import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtx import aggregators
from gtx.aggregators import AggregateLabel, Method, aggregate
from gtx.errors import DataError
from gtx.io import read_label_records, write_label_records
from gtx.model import LabelerEstimate, LabelRecord

from oracles import aggregate as spec_aggregate
from oracles import aggregate_fault as spec_fault
from oracles import bayes_posterior, logodds_margin, majority, share_vote, weighted_share


def rec(labeler, value, example=0):
    return LabelRecord(example_id=example, labeler_id=labeler, value=value)


def est(accuracies):
    return {i: LabelerEstimate(i, a) for i, a in enumerate(accuracies)}


class TestMajorityVote:
    def test_two_to_one(self):
        agg = aggregate(Method.MV, [rec(0, 1), rec(1, 1), rec(2, 0)])
        assert agg.label == 1
        assert agg.confidence == pytest.approx(2 / 3, abs=1e-15)
        assert agg.n_labels == 3

    def test_tie_goes_to_class_zero(self):
        agg = aggregate(Method.MV, [rec(0, 1), rec(1, 0)])
        assert agg.label == 0
        assert agg.confidence == 0.5

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="cannot aggregate zero labels"):
            aggregate(Method.MV, [])


class TestWeightedMajority:
    def test_accuracy_mass_splits_the_vote(self):
        # votes (1, 1, 0) at accuracies (0.9, 0.6, 0.8):
        # class-1 mass 1.5 of 2.3 total
        agg = aggregate(Method.WMV, [rec(0, 1), rec(1, 1), rec(2, 0)], est([0.9, 0.6, 0.8]))
        assert agg.label == 1
        assert agg.confidence == pytest.approx(1.5 / 2.3, abs=1e-12)
        assert agg.soft_p1 == pytest.approx(1.5 / 2.3, abs=1e-12)

    def test_heavy_minority_outweighs_majority(self):
        agg = aggregate(Method.WMV, [rec(0, 1), rec(1, 0), rec(2, 0)], est([0.95, 0.51, 0.4]))
        assert agg.label == 1

    def test_missing_estimate(self):
        with pytest.raises(DataError, match="no accuracy estimate for labeler 0"):
            aggregate(Method.WMV, [rec(0, 1)], {})


class TestShareVote:
    def test_each_voter_splits_its_accuracy(self):
        # votes (1, 0) at accuracies (0.9, 0.6): class-1 mass 0.9 + 0.4 = 1.3
        # of 2 voters
        agg = aggregate(Method.SV, [rec(0, 1), rec(1, 0)], est([0.9, 0.6]))
        assert agg.label == 1
        assert agg.confidence == pytest.approx(0.65, abs=1e-12)

    def test_mass_identity(self):
        # class masses always sum to the voter count
        labels = [rec(i, v) for i, v in enumerate([1, 0, 1, 1, 0])]
        accs = [0.55, 0.95, 0.7, 0.62, 0.88]
        agg = aggregate(Method.SV, labels, est(accs))
        _, conf = share_vote([r.value for r in labels], accs)
        assert agg.confidence == pytest.approx(conf, abs=1e-12)


class TestNaiveBayesAggregate:
    def test_matches_posterior(self):
        labels = [rec(0, 1), rec(1, 0)]
        estimates = est([0.9, 0.7])
        agg = aggregate(Method.GTX, labels, estimates)
        p0, p1 = bayes_posterior([1, 0], [0.9, 0.7])
        assert agg.soft_p1 == pytest.approx(p1, abs=1e-12)
        assert agg.confidence == pytest.approx(max(p0, p1), abs=1e-12)

    def test_single_vote(self):
        agg = aggregate(Method.GTX, [rec(0, 0)], est([0.8]))
        assert agg.label == 0
        assert agg.confidence == pytest.approx(0.8, abs=1e-12)


class TestDispatch:
    def test_by_method(self):
        labels = [rec(0, 1), rec(1, 1), rec(2, 0)]
        estimates = est([0.9, 0.6, 0.8])
        for method in Method:
            via = aggregate(method, labels, estimates)
            assert via == aggregate(method.value, labels, estimates)
            assert via.method == method

    def test_estimates_required_except_mv(self):
        labels = [rec(0, 1)]
        assert aggregate(Method.MV, labels).label == 1
        for method in (Method.WMV, Method.SV, Method.GTX):
            with pytest.raises(DataError, match=f"method {method} requires accuracy estimates"):
                aggregate(method, labels)

    def test_string_method_names(self):
        assert aggregate("mv", [rec(0, 1)]).method is Method.MV

    @pytest.mark.parametrize("bad", ["xx", ["gtx"], None, 3])
    def test_unknown_method_is_a_value_error(self, bad):
        with pytest.raises(ValueError):
            aggregate(bad, [rec(0, 1)], est([0.9]))


class TestChecks:
    """Which error ``aggregate`` raises when a vote set breaks several rules."""

    @pytest.mark.parametrize("method", list(Method))
    def test_duplicate_labeler(self, method):
        with pytest.raises(DataError, match="labeler 0 voted twice on example 0"):
            aggregate(method, [rec(0, 1), rec(1, 1), rec(0, 1)], est([0.9, 0.8]))

    def test_duplicate_labeler_before_several_examples(self):
        with pytest.raises(DataError, match="labeler 0 voted twice on example 1"):
            aggregate(Method.GTX, [rec(0, 1, example=0), rec(0, 0, example=1)], {})

    def test_several_examples_before_missing_estimate(self):
        with pytest.raises(ValueError, match="multiple examples"):
            aggregate(Method.GTX, [rec(0, 1, example=0), rec(1, 0, example=1)], {})

    def test_missing_estimate_last(self):
        with pytest.raises(DataError, match="no accuracy estimate for labeler 1"):
            aggregate(Method.GTX, [rec(0, 1), rec(1, 0)], est([0.9]))

    @pytest.mark.parametrize("method", [Method.WMV, Method.SV, Method.GTX])
    def test_empty_before_missing_estimates(self, method):
        with pytest.raises(DataError, match="cannot aggregate zero labels"):
            aggregate(method, [], None)

    @pytest.mark.parametrize("wrap", [tuple, iter, lambda votes: (v for v in votes)])
    def test_any_iterable_of_votes(self, wrap):
        votes = [rec(0, 1), rec(1, 1), rec(2, 0)]
        for method in Method:
            assert aggregate(method, wrap(votes), est([0.9, 0.6, 0.8])) == aggregate(
                method, votes, est([0.9, 0.6, 0.8]))


@st.composite
def _any_votes(draw):
    """Votes that may repeat a voter, span a second example or name voters
    without an estimate, with estimates that may be None; the empty list too."""
    n = draw(st.integers(0, 5))
    voters = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    examples = draw(st.lists(st.sampled_from([7, 7, 7, "8"]), min_size=n, max_size=n))
    values = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    known = draw(st.none() | st.sets(st.integers(0, 5), min_size=3))
    estimates = None if known is None else {i: LabelerEstimate(i, 0.55 + i / 15) for i in known}
    return list(map(LabelRecord, examples, voters, values)), estimates


class TestFaultOrder:
    @settings(max_examples=400)
    @given(_any_votes(), st.sampled_from(list(Method)), st.sampled_from([list, tuple, iter]))
    def test_the_error_or_the_bits_of_the_spec(self, drawn, method, wrap):
        votes, estimates = drawn
        fault = spec_fault(method, votes, estimates)
        if fault is None:
            got = aggregate(method, wrap(votes), estimates)
            assert repr(got) == repr(spec_aggregate(method, votes, estimates))
        else:
            with pytest.raises(DataError) as err:
                aggregate(method, wrap(votes), estimates)
            assert str(err.value) == fault


class TestOnePass:
    def test_valid_examples_never_reach_the_fault_path(self, tmp_path):
        p = tmp_path / "labels.jsonl"
        write_label_records(p, [LabelRecord(i // 4, f"w{(i * 7) % 20:02d}", i * 5 % 7 % 2)
                                for i in range(3000)])
        records, _ = read_label_records(p)
        by_example = {}
        for r in records:
            by_example.setdefault(r.example_id, []).append(r)
        estimates = {f"w{j:02d}": LabelerEstimate(f"w{j:02d}", 0.55 + j / 50) for j in range(20)}
        with mock.patch.object(aggregators, "_fault", side_effect=AssertionError("fault path")):
            for method in Method:
                for votes in by_example.values():
                    got = aggregate(method, votes, estimates)
                    assert repr(got) == repr(spec_aggregate(method, votes, estimates))
        assert len(by_example) == 750


vote_sets = st.integers(1, 7).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        st.lists(st.floats(0.01, 0.99), min_size=n, max_size=n),
    )
)


class TestAgainstOracles:
    @given(vote_sets, st.sampled_from(list(Method)), st.randoms(use_true_random=False))
    def test_bits_equal_the_left_to_right_spec(self, votes, method, rnd):
        # repr tells every bit of a float and -0.0 from 0.0; the spec sums
        # the votes in the order given, shuffled here
        values, accs = votes
        labels = [rec(i, v, example=7) for i, v in enumerate(values)]
        rnd.shuffle(labels)
        estimates = None if method is Method.MV else est(accs)
        got = aggregate(method, labels, estimates)
        assert type(got) is AggregateLabel
        assert repr(got) == repr(spec_aggregate(method, labels, estimates))

    @given(vote_sets)
    def test_mv(self, votes):
        values, accs = votes
        labels = [rec(i, v) for i, v in enumerate(values)]
        agg = aggregate(Method.MV, labels)
        label, conf = majority(values)
        assert agg.label == label
        assert agg.confidence == pytest.approx(conf, abs=1e-12)

    @given(vote_sets)
    def test_wmv(self, votes):
        values, accs = votes
        clamped = [LabelerEstimate(i, a).accuracy for i, a in enumerate(accs)]
        labels = [rec(i, v) for i, v in enumerate(values)]
        agg = aggregate(Method.WMV, labels, est(accs))
        label, conf = weighted_share(values, clamped)
        assert agg.label == label
        assert agg.confidence == pytest.approx(conf, abs=1e-12)

    @given(vote_sets)
    def test_sv(self, votes):
        values, accs = votes
        clamped = [LabelerEstimate(i, a).accuracy for i, a in enumerate(accs)]
        labels = [rec(i, v) for i, v in enumerate(values)]
        agg = aggregate(Method.SV, labels, est(accs))
        label, conf = share_vote(values, clamped)
        assert agg.label == label
        assert agg.confidence == pytest.approx(conf, abs=1e-12)

    @given(vote_sets)
    def test_gtx_argmax_equals_logodds_majority(self, votes):
        values, accs = votes
        clamped = [LabelerEstimate(i, a).accuracy for i, a in enumerate(accs)]
        margin = logodds_margin(values, clamped)
        if abs(margin) < 1e-9:
            return
        labels = [rec(i, v) for i, v in enumerate(values)]
        agg = aggregate(Method.GTX, labels, est(accs))
        assert agg.label == (1 if margin > 0 else 0)

    @given(
        values=st.lists(st.integers(0, 1), min_size=1, max_size=9),
        acc=st.floats(0.51, 0.99),
    )
    def test_gtx_reduces_to_mv_for_equal_accuracies(self, values, acc):
        if 2 * sum(values) == len(values):
            return  # exact ties depend on float summation order
        labels = [rec(i, v) for i, v in enumerate(values)]
        estimates = est([acc] * len(values))
        assert aggregate(Method.GTX, labels, estimates).label == aggregate(Method.MV, labels).label
