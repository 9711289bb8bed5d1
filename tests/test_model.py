import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtx.aggregators import aggregate
from gtx.errors import ConfigError, DataError
from gtx.model import (
    ACCURACY_CEIL,
    ACCURACY_FLOOR,
    ClassPrior,
    LabelerEstimate,
    LabelRecord,
    Method,
    as_label,
    kernel,
    log_odds,
)

from oracles import bayes_posterior, normalize


def rec(labeler, value, example=0):
    return LabelRecord(example_id=example, labeler_id=labeler, value=value)


def est(accuracies):
    return {i: LabelerEstimate(i, a) for i, a in enumerate(accuracies)}


class TestLabelValue:
    def test_valid(self):
        assert as_label(0) == 0
        assert as_label(1) == 1
        assert as_label(True) == 1

    @pytest.mark.parametrize("bad", [2, -1, 0.5, "1", None])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            as_label(bad)


class TestLabelRecord:
    def test_is_a_tuple_of_its_fields(self):
        r = LabelRecord(0, "a", True)
        assert r == (0, "a", 1) and type(r.value) is int
        assert hash(r) == hash((0, "a", 1))

    def test_every_way_of_making_one_checks_the_value(self):
        r = LabelRecord(0, "a", 1)
        with pytest.raises(ValueError):
            r._replace(value=2)
        with pytest.raises(ValueError):
            LabelRecord._make((0, "a", 2))
        assert LabelRecord._make((0, "a", 1.0)) == r._replace(value=True) == r


class TestLabelerEstimate:
    def test_clamps_to_open_interval(self):
        assert LabelerEstimate("a", 1.0).accuracy == ACCURACY_CEIL
        assert LabelerEstimate("a", 0.0).accuracy == ACCURACY_FLOOR
        assert LabelerEstimate("a", 0.5).accuracy == 0.5

    @pytest.mark.parametrize("bad", [1.7, math.inf, -3.0, -math.inf, math.nan, 1.0000001])
    def test_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match="accuracy"):
            LabelerEstimate("a", bad)

    @pytest.mark.parametrize("bad", ["0.8", "a", True, False])
    def test_non_number_rejected(self, bad):
        with pytest.raises(ValueError, match="accuracy"):
            LabelerEstimate("a", bad)

    def test_log_weights(self):
        e = LabelerEstimate("a", 0.8)
        assert e.log_weight == math.log(0.8)
        assert e.log_counterweight == math.log1p(-0.8)

    @given(st.floats(0, 1))
    def test_vote_of_one_is_the_swapped_vote_of_zero(self, a):
        # the threshold engine shares one accumulator pair between the two
        # truths of an example on this symmetry
        for code, (zero, one) in enumerate(LabelerEstimate("a", a).increments):
            assert one == zero[::-1], code


class TestClassPrior:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ClassPrior(0.6, 0.6)

    def test_float32_values_sum_as_their_float64_values(self):
        # float32(0.1) + float32(0.9) is 1 in float32, 1 - 2.2e-8 in float64
        with pytest.raises(ConfigError, match="prior must sum to 1"):
            ClassPrior(np.float32(0.1), np.float32(0.9))
        assert ClassPrior(np.float32(0.25), np.float32(0.75)) == ClassPrior(0.25, 0.75)

    @pytest.mark.parametrize(
        "p0,p1",
        [(math.nan, 0.5), (0.5, math.nan), (math.nan, math.nan), (math.inf, 0.0),
         (-math.inf, math.inf),
         # not numbers: a one-line ValueError, not a TypeError from the range test
         ("0.5", "0.5"), (None, 1), (True, False), (0.5, "0.5")],
    )
    def test_non_finite_rejected(self, p0, p1):
        with pytest.raises(ValueError, match="prior"):
            ClassPrior(p0, p1)

    def test_degenerate_is_legal(self):
        p = ClassPrior(1.0, 0.0)
        assert p.p1 == 0.0

    def test_uniform(self):
        u = ClassPrior.uniform()
        assert u.p0 == u.p1 == 0.5


class TestPosterior:
    def test_two_agreeing_labelers(self):
        # two votes for class 1 at accuracies 0.9 and 0.8:
        # P(1) = 0.72 / (0.72 + 0.02) = 36/37
        agg = aggregate(Method.GTX, [rec("a", 1), rec("b", 1)], {"a": LabelerEstimate("a", 0.9), "b": LabelerEstimate("b", 0.8)})
        assert agg.soft_p1 == pytest.approx(36 / 37, abs=1e-12)
        assert agg.label == 1 and agg.confidence == agg.soft_p1

    def test_single_label_confidence_equals_accuracy(self):
        agg = aggregate(Method.GTX, [rec(0, 1)], est([0.85]))
        assert agg.label == 1
        assert agg.confidence == pytest.approx(0.85, abs=1e-12)

    def test_zero_prior_wins_over_any_evidence(self):
        prior = ClassPrior(1.0, 0.0)
        agg = aggregate(Method.GTX, [rec(i, 1) for i in range(6)], est([0.99] * 6), prior=prior)
        assert agg.soft_p1 == 0.0
        assert (agg.label, agg.confidence) == (0, 1.0)

    def test_missing_estimate(self):
        with pytest.raises(DataError, match="no accuracy estimate for labeler 'ghost'"):
            aggregate(Method.GTX, [rec("ghost", 1)], {})

    def test_duplicate_labeler(self):
        with pytest.raises(DataError, match="labeler 'a' voted twice"):
            aggregate(Method.GTX, [rec("a", 1), rec("a", 0)], est([0.9]))

    def test_log_likelihood_matches_direct_sum(self):
        labels = [rec(0, 1), rec(1, 0), rec(2, 1)]
        accs = [0.9, 0.7, 0.6]
        # aggregate sums the two log-likelihoods; its posterior is theirs
        agg = aggregate(Method.GTX, labels, est(accs))
        want0 = math.log(0.1) + math.log(0.7) + math.log(0.4)
        want1 = math.log(0.9) + math.log(0.3) + math.log(0.6)
        p0, p1 = normalize(want0, want1)
        assert agg.soft_p1 == pytest.approx(p1, abs=1e-12)
        assert agg.confidence == pytest.approx(max(p0, p1), abs=1e-12)


class TestLogOdds:
    def test_midpoint_is_zero(self):
        assert log_odds(0.5) == 0.0

    def test_matches_direct_formula(self):
        for p in (0.6, 0.85, 0.96, 0.99):
            assert log_odds(p) == pytest.approx(math.log(p / (1 - p)), rel=1e-12)

    def test_antisymmetric(self):
        assert log_odds(0.8) == pytest.approx(-log_odds(0.2), abs=1e-12)


label_lists = st.lists(st.integers(0, 1), min_size=1, max_size=6)
accuracy_lists = st.lists(st.floats(0.01, 0.99), min_size=6, max_size=6)
priors = st.sampled_from(
    [ClassPrior.uniform(), ClassPrior(0.3, 0.7), ClassPrior(0.9, 0.1)]
)


class TestPosteriorProperties:
    @given(values=label_lists, accs=accuracy_lists, prior=priors)
    def test_matches_brute_force_bayes(self, values, accs, prior):
        accs = accs[: len(values)]
        clamped = [LabelerEstimate(i, a).accuracy for i, a in enumerate(accs)]
        labels = [rec(i, v) for i, v in enumerate(values)]
        agg = aggregate(Method.GTX, labels, est(accs), prior=prior)
        want0, want1 = bayes_posterior(values, clamped, prior.p0, prior.p1)
        assert agg.soft_p1 == pytest.approx(want1, abs=1e-9)
        assert agg.confidence == pytest.approx(max(want0, want1), abs=1e-9)

    @given(values=st.lists(st.integers(0, 1), min_size=1, max_size=12), data=st.data())
    def test_normalized_and_bounded(self, values, data):
        accs = data.draw(
            st.lists(
                st.floats(0.01, 0.99),
                min_size=len(values),
                max_size=len(values),
            )
        )
        labels = [rec(i, v) for i, v in enumerate(values)]
        agg = aggregate(Method.GTX, labels, est(accs))
        assert 0.0 <= agg.soft_p1 <= 1.0
        assert 0.5 <= agg.confidence <= 1.0
        # p0 + p1 == 1
        assert agg.confidence == pytest.approx(
            agg.soft_p1 if agg.label else 1.0 - agg.soft_p1, abs=1e-12
        )

    @given(values=label_lists, data=st.data())
    def test_flipping_every_vote_swaps_classes_exactly(self, values, data):
        accs = data.draw(
            st.lists(
                st.floats(0.01, 0.99),
                min_size=len(values),
                max_size=len(values),
            )
        )
        estimates = est(accs)
        straight = aggregate(Method.GTX, [rec(i, v) for i, v in enumerate(values)], estimates)
        flipped = aggregate(Method.GTX, [rec(i, 1 - v) for i, v in enumerate(values)], estimates)
        # each vote contributes the mirrored term, so this holds bit for bit;
        # an exact tie (p0 == p1) goes to class 0 both ways
        assert flipped.confidence == straight.confidence
        tie = straight.label == 0 and straight.confidence == straight.soft_p1
        assert flipped.label == (0 if tie else 1 - straight.label)

    @settings(max_examples=50)
    @given(values=label_lists, data=st.data())
    def test_label_order_is_irrelevant(self, values, data):
        accs = data.draw(
            st.lists(
                st.floats(0.01, 0.99),
                min_size=len(values),
                max_size=len(values),
            )
        )
        estimates = est(accs)
        labels = [rec(i, v) for i, v in enumerate(values)]
        agg = aggregate(Method.GTX, labels, estimates)
        rev = aggregate(Method.GTX, list(reversed(labels)), estimates)
        assert rev.soft_p1 == pytest.approx(agg.soft_p1, abs=1e-12)


_finalizer_accuracies = st.sampled_from([0.0, 0.5, 0.6, 0.75, 0.9, 0.99, 1.0]) | st.floats(0, 1)


_PRIORS = [ClassPrior.uniform(), ClassPrior(0.3, 0.7), ClassPrior(0.9, 0.1),
           ClassPrior(1.0, 0.0), ClassPrior(0.0, 1.0)]


@st.composite
def _closed_examples(draw, priors=_PRIORS):
    """A rule, a prior and per-example ``(s0, s1)`` as the engines reach
    them, with exact ties: ``s0 == s1`` and equal log-sums
    ``lp0 + s0 == lp1 + s1``."""
    method = draw(st.sampled_from(list(Method)))
    prior = draw(st.sampled_from(priors))
    lp0, lp1 = prior.logs
    # few distinct accuracies, so that opposite votes often cancel exactly
    pool = [LabelerEstimate(0, a).increments[method.code]
            for a in draw(st.lists(_finalizer_accuracies, min_size=1, max_size=3))]
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    votes = [[rnd.choice(pool)[rnd.getrandbits(1)] for _ in range(rnd.randint(1, 40))]
             for _ in range(draw(st.integers(1, 64)))]
    return method, prior, _sums(rnd, votes, prior)


def _sums(rnd, votes, prior):
    """``(s0, s1)`` of each list of increment pairs in ``votes``, a quarter
    of them set to an exact tie of the sums and a quarter to one of the
    log-sums."""
    lp0, lp1 = prior.logs
    rows = []
    for pairs in votes:
        s0 = s1 = 0.0
        for d0, d1 in pairs:
            s0 += d0
            s1 += d1
        tie = rnd.choice(["none", "none", "sums", "logs"])
        if tie == "sums":
            s0 = s1 = max(s0, s1)
        elif tie == "logs" and math.isfinite(lp0 + lp1):
            s0, s1 = lp1, lp0
        rows.append((s0, s1))
    return rows


def _assert_closes_as_finalize(kern, rows):
    """``kern.finalize_array`` of ``rows`` equals ``kern.finalize`` row by row."""
    s0, s1 = zip(*rows)
    got = kern.finalize_array(np.array(s0), np.array(s1))
    want = zip(*map(kern.finalize, s0, s1))
    # repr tells a bool from an int, a numpy scalar from a float, and
    # every float bit from its neighbours
    assert [repr(x.tolist()) for x in got] == [repr(list(w)) for w in want]


class TestArrayFinalizer:
    @settings(max_examples=300)
    @given(_closed_examples())
    def test_equals_scalar_finalize(self, case):
        method, prior, rows = case
        _assert_closes_as_finalize(kernel(method, prior), rows)

    @pytest.mark.parametrize("prior", _PRIORS)
    @settings(max_examples=10, deadline=None)
    @given(accs=st.lists(_finalizer_accuracies, min_size=1, max_size=3),
           seed=st.integers(0, 2**32 - 1))
    def test_gtx_equals_scalar_finalize_at_engine_sizes(self, prior, accs, seed):
        """An engine close holds thousands of examples that share few gaps:
        5,000 rows summing a few vote sets, each in a shuffled order."""
        rnd = random.Random(seed)
        pool = [LabelerEstimate(0, a).increments[Method.GTX.code] for a in accs]
        sets = [[rnd.choice(pool)[rnd.getrandbits(1)] for _ in range(rnd.randint(1, 5))]
                for _ in range(8)]
        votes = [rnd.sample(v, len(v)) for v in rnd.choices(sets, k=5000)]
        rows = _sums(rnd, votes, prior)
        assert len(set(rows)) < len(rows) // 10
        _assert_closes_as_finalize(kernel(Method.GTX, prior), rows)

    @pytest.mark.parametrize("prior", _PRIORS)
    @settings(max_examples=100)
    @given(data=st.data())
    def test_gtx_finalize_equals_the_two_exp_oracle(self, prior, data):
        """``finalize`` exponentiates only the gap; ``normalize`` both
        log-sums less their max.  The results keep every bit."""
        _, _, rows = data.draw(_closed_examples(priors=[prior]))
        lp0, lp1 = prior.logs
        finalize = kernel(Method.GTX, prior).finalize
        for s0, s1 in rows:
            p0, p1 = normalize(lp0 + s0, lp1 + s1)
            want = (0, p0, p1) if p0 >= p1 else (1, p1, p1)
            assert repr(finalize(s0, s1)) == repr(want)

    @settings(max_examples=300)
    @given(_closed_examples(priors=[ClassPrior.uniform()]))
    def test_swapped_sums_swap_the_classes(self, case):
        """Under the uniform prior, ``(s1, s0)`` keeps the confidence bits
        and the stop verdict of ``(s0, s1)``, and flips the label unless the
        two classes tie (label 0, confidence 0.5, both ways)."""
        method, _, rows = case
        kern = kernel(method)
        for s0, s1 in rows:
            label, conf, _ = kern.finalize(s0, s1)
            flipped, flipped_conf, _ = kern.finalize(s1, s0)
            assert repr(flipped_conf) == repr(conf)
            assert flipped == 1 - label or (flipped == label == 0 and conf == 0.5)
        if kern.stop is not None:
            s0, s1 = np.array(rows).T
            confs = {kern.finalize(*row)[1] for row in rows}
            for tau in sorted({0.51, 0.75, 0.9, 0.99, 1.0} | {c for c in confs if c > 0.5}):
                reached = kern.stop(tau)
                assert reached(s1, s0).tolist() == reached(s0, s1).tolist()

    def test_uniform_gtx_kernel_is_one_object(self):
        assert kernel(Method.GTX) is kernel(Method.GTX, ClassPrior(0.5, 0.5))
        # another prior's kernel is built per call
        assert kernel(Method.GTX, ClassPrior(0.3, 0.7)).finalize(0.0, 0.0) == (1, 0.7, 0.7)
