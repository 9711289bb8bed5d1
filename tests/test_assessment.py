import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gtx.assessment import (
    AssessmentSet,
    estimate_accuracy,
    oracle_estimates,
    run_assessment,
)
from gtx.errors import DataError
from gtx.model import ACCURACY_CEIL, ACCURACY_FLOOR
from gtx.simulation import SimLabeler

import oracles


def assessment(labels):
    return AssessmentSet(
        example_ids=tuple(range(len(labels))), true_labels=tuple(labels)
    )


class TestAssessmentSet:
    def test_empty_rejected(self):
        with pytest.raises(DataError, match="assessment set has no items"):
            AssessmentSet(example_ids=(), true_labels=())

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            AssessmentSet(example_ids=(1, 1), true_labels=(0, 1))

    def test_items_pair_ids_with_labels(self):
        a = assessment([0, 1, 1])
        assert list(a.items()) == [(0, 0), (1, 1), (2, 1)]
        assert len(a) == 3


class TestEstimateAccuracy:
    def test_fraction_correct(self):
        a = assessment([0, 1, 1, 0])
        responses = {0: 0, 1: 1, 2: 0, 3: 1}  # half right
        e = estimate_accuracy("w", responses, a)
        assert e.accuracy == 0.5
        assert e.n_assessed == 4
        assert e.labeler_id == "w"

    def test_perfect_score_clamps_to_ceiling(self):
        a = assessment([0, 1])
        e = estimate_accuracy("w", {0: 0, 1: 1}, a)
        assert e.accuracy == ACCURACY_CEIL

    def test_zero_score_clamps_to_floor(self):
        a = assessment([0, 1])
        e = estimate_accuracy("w", {0: 1, 1: 0}, a)
        assert e.accuracy == ACCURACY_FLOOR

    def test_missing_response_is_an_error(self):
        a = assessment([0, 1, 0])
        with pytest.raises(DataError, match="missing 2"):
            estimate_accuracy("w", {1: 1}, a)

    def test_extra_responses_ignored(self):
        a = assessment([0, 1])
        e = estimate_accuracy("w", {0: 0, 1: 1, 99: 0}, a)
        assert e.n_assessed == 2


class TestRunAssessment:
    def test_deterministic_for_fixed_seed(self):
        labelers = [SimLabeler(i, 0.7) for i in range(4)]
        a = assessment([0, 1] * 10)
        one = run_assessment(labelers, a, np.random.default_rng(7))
        two = run_assessment(labelers, a, np.random.default_rng(7))
        assert one == two

    def test_estimates_concentrate_near_truth(self):
        # 600 items at accuracy 0.8: the MLE lands within a few points
        labelers = [SimLabeler(0, 0.8)]
        a = assessment([i % 2 for i in range(600)])
        (e,) = run_assessment(labelers, a, np.random.default_rng(3)).values()
        assert abs(e.accuracy - 0.8) < 0.05
        assert e.n_assessed == 600

    def test_one_estimate_per_labeler(self):
        labelers = [SimLabeler(i, 0.6 + 0.1 * i) for i in range(3)]
        a = assessment([0, 1, 1])
        out = run_assessment(labelers, a, np.random.default_rng(0))
        assert sorted(out) == [0, 1, 2]
        for lid, e in out.items():
            assert e.labeler_id == lid
            assert e.n_assessed == 3

    @pytest.mark.parametrize("bad", [{}, None, [0, 1], (0, 1)])
    def test_an_assessment_of_another_type_is_a_data_error(self, bad):
        # {} once raised ZeroDivisionError and None AttributeError
        with pytest.raises(DataError, match="assessment must be an AssessmentSet"):
            run_assessment([SimLabeler(0, 0.8)], bad, np.random.default_rng(0))


class TestRunAssessmentAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        # an empty pool is a ConfigError (tests/test_api.py)
        accuracies=st.lists(
            st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=1,
            max_size=12),
        labels=st.lists(st.integers(0, 1), min_size=1, max_size=200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_equals_per_draw_loop(self, accuracies, labels, seed):
        labelers = [SimLabeler(i, a) for i, a in enumerate(accuracies)]
        a = assessment(labels)
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = oracles.run_assessment(labelers, a, want_rng)
        got = run_assessment(labelers, a, got_rng)
        # repr tells a float from a numpy float and an int from a numpy int
        assert repr(got) == repr(want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestOracleEstimates:
    def test_uses_true_accuracy(self):
        labelers = [SimLabeler("a", 0.73), SimLabeler("b", 1.0)]
        out = oracle_estimates(labelers)
        assert out["a"].accuracy == 0.73
        # perfect labelers still get clamped so their votes stay finite
        assert out["b"].accuracy == ACCURACY_CEIL
