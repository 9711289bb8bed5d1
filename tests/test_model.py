import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtx.errors import DuplicateLabeler, MissingEstimate
from gtx.model import (
    ACCURACY_CEIL,
    ACCURACY_FLOOR,
    ClassPrior,
    LabelerEstimate,
    LabelRecord,
    PosteriorResult,
    as_label,
    hard_label,
    log_likelihood,
    log_odds,
    posterior,
    uncertainty,
)

from oracles import bayes_posterior


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

    @pytest.mark.parametrize(
        "p0,p1",
        [(math.nan, 0.5), (0.5, math.nan), (math.nan, math.nan), (math.inf, 0.0),
         (-math.inf, math.inf)],
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
        post = posterior([rec("a", 1), rec("b", 1)], {"a": LabelerEstimate("a", 0.9), "b": LabelerEstimate("b", 0.8)})
        assert post.p1 == pytest.approx(36 / 37, abs=1e-12)
        assert post.p0 + post.p1 == pytest.approx(1.0, abs=1e-12)

    def test_single_label_confidence_equals_accuracy(self):
        post = posterior([rec(0, 1)], est([0.85]))
        label, conf = hard_label(post)
        assert label == 1
        assert conf == pytest.approx(0.85, abs=1e-12)

    def test_empty_labels_return_prior(self):
        prior = ClassPrior(0.3, 0.7)
        post = posterior([], est([]), prior=prior)
        assert post.p1 == pytest.approx(0.7, abs=1e-12)

    def test_zero_prior_wins_over_any_evidence(self):
        prior = ClassPrior(1.0, 0.0)
        post = posterior([rec(i, 1) for i in range(6)], est([0.99] * 6), prior=prior)
        assert post.p1 == 0.0
        assert post.p0 == 1.0

    def test_missing_estimate(self):
        with pytest.raises(MissingEstimate):
            posterior([rec("ghost", 1)], {})

    def test_duplicate_labeler(self):
        with pytest.raises(DuplicateLabeler):
            posterior([rec("a", 1), rec("a", 0)], est([0.9]))

    def test_log_likelihood_matches_direct_sum(self):
        labels = [rec(0, 1), rec(1, 0), rec(2, 1)]
        accs = [0.9, 0.7, 0.6]
        ll0, ll1 = log_likelihood(labels, est(accs))
        want0 = math.log(0.1) + math.log(0.7) + math.log(0.4)
        want1 = math.log(0.9) + math.log(0.3) + math.log(0.6)
        assert ll0 == pytest.approx(want0, abs=1e-12)
        assert ll1 == pytest.approx(want1, abs=1e-12)


class TestHardLabel:
    def test_tie_goes_to_class_zero(self):
        label, conf = hard_label(PosteriorResult(0.5, 0.5))
        assert label == 0
        assert conf == 0.5

    def test_uncertainty_is_one_minus_confidence(self):
        post = PosteriorResult(0.2, 0.8)
        assert uncertainty(post) == pytest.approx(0.2, abs=1e-15)


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
        post = posterior(labels, est(accs), prior=prior)
        want0, want1 = bayes_posterior(values, clamped, prior.p0, prior.p1)
        assert post.p0 == pytest.approx(want0, abs=1e-9)
        assert post.p1 == pytest.approx(want1, abs=1e-9)

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
        post = posterior(labels, est(accs))
        assert 0.0 <= post.p0 <= 1.0
        assert 0.0 <= post.p1 <= 1.0
        assert post.p0 + post.p1 == pytest.approx(1.0, abs=1e-12)
        _, conf = hard_label(post)
        assert 0.5 <= conf <= 1.0
        assert 0.0 <= uncertainty(post) <= 0.5

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
        straight = posterior([rec(i, v) for i, v in enumerate(values)], estimates)
        flipped = posterior([rec(i, 1 - v) for i, v in enumerate(values)], estimates)
        # each vote contributes the mirrored term, so this holds bit for bit
        assert flipped.p0 == straight.p1
        assert flipped.p1 == straight.p0

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
        post = posterior(labels, estimates)
        rev = posterior(list(reversed(labels)), estimates)
        assert rev.p1 == pytest.approx(post.p1, abs=1e-12)
