import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtx.aggregators import Method
from gtx.errors import ConfigError
from gtx.metrics import mean_se, summarize, trial_report
from gtx.simulation import SimConfig, init_simulation
from gtx.strategies import (
    BudgetLedger,
    CollectionOutcome,
    ThresholdConfig,
    run_confidence_threshold,
)

import oracles
from support import make_estimates


def outcome(rows):
    """A one-label-per-example outcome over examples 0..n-1 from
    (label, soft_p1) rows."""
    n = len(rows)
    return CollectionOutcome(
        Method.GTX,
        BudgetLedger(total=n, spent=n),
        np.array([label for label, _ in rows], dtype=np.int64),
        np.array([max(soft, 1 - soft) for _, soft in rows], dtype=np.float64),
        np.array([soft for _, soft in rows], dtype=np.float64),
        np.ones(n, dtype=np.int64),
    )


@st.composite
def scored_runs(draw):
    """A one-label-per-example outcome of 1..20,000 examples and a truth of
    at least that many labels, as an int8 array or a list.  Soft scores are
    uniform in [0, 1] with exact 0.0 and 1.0 mixed in, and the first up to
    20 are drawn by Hypothesis."""
    n = draw(st.integers(1, 20) | st.integers(1, 20_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    soft = rng.random(n)
    soft[rng.random(n) < 0.05] = 0.0
    soft[rng.random(n) < 0.05] = 1.0
    head = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), max_size=min(n, 20)))
    soft[:len(head)] = head
    labels = rng.random(n) < soft
    truth = (rng.random(n + draw(st.integers(0, 3))) < 0.5).astype(np.int8)
    out = outcome(list(zip(labels.tolist(), soft.tolist())))
    return out, truth.tolist() if draw(st.booleans()) else truth


def small_outcome(seed=0, budget=40):
    cfg = SimConfig(15, 4, 0.6, 0.9)
    ds, labelers = init_simulation(cfg, np.random.default_rng(seed))
    estimates = make_estimates([lab.accuracy for lab in labelers])
    out = run_confidence_threshold(
        ds,
        labelers,
        estimates,
        ThresholdConfig(tau=0.9, kappa=4),
        budget=budget,
        method=Method.GTX,
        rng=np.random.default_rng(seed + 1),
    )
    return out, ds


class TestErrorRate:
    def test_counts_wrong_hard_labels(self):
        out = outcome([(1, 0.9), (0, 0.2), (1, 0.8)])
        truth = np.array([1, 1, 0], dtype=np.int8)
        assert trial_report(out, truth).error_rate == pytest.approx(2 / 3)

    def test_none_when_nothing_labeled(self):
        rep = trial_report(outcome([]), [])
        assert (rep.n_labeled, rep.spent, rep.avg_k, rep.error_rate, rep.mae) == (
            0, 0, None, None, None)

    def test_short_truth_is_a_value_error(self):
        # numpy would broadcast a one-label truth over all five examples
        out = outcome([(1, 0.9)] * 5)
        with pytest.raises(ValueError, match="true_labels holds 1 labels"):
            trial_report(out, [1])
        with pytest.raises(ValueError, match="true_labels holds 4 labels"):
            trial_report(out, np.ones(4, dtype=np.int8))
        assert trial_report(out, [1] * 5).error_rate == 0.0

    def test_zero_budget_outcome(self):
        out, ds = small_outcome(budget=0)
        rep = trial_report(out, ds.true_labels)
        assert (rep.avg_k, rep.error_rate, rep.mae) == (None, None, None)


class TestMeanAbsoluteError:
    def test_distance_from_soft_score_to_truth(self):
        out = outcome([(1, 0.9), (0, 0.3)])
        truth = np.array([1, 0], dtype=np.int8)
        assert trial_report(out, truth).mae == pytest.approx((0.1 + 0.3) / 2)

    @given(st.lists(st.tuples(st.integers(0, 1), st.floats(0.0, 1.0)), min_size=1, max_size=30))
    def test_error_rate_at_most_twice_mae(self, rows):
        # a wrong hard label implies soft mass >= 0.5 on the wrong side
        out = outcome([(1 if soft > 0.5 else 0, soft) for _, soft in rows])
        truth = np.array([t for t, _ in rows], dtype=np.int8)
        rep = trial_report(out, truth)
        assert rep.error_rate <= 2 * rep.mae + 1e-12


class TestAgainstOracles:
    @settings(max_examples=100, deadline=None)
    @given(run=scored_runs())
    def test_scores_equal_the_loops_bit_for_bit(self, run):
        out, truth = run
        rep = trial_report(out, truth)
        assert repr(rep.error_rate) == repr(oracles.error_rate(out, truth))
        assert repr(rep.mae) == repr(oracles.mean_absolute_error(out, truth))


class TestMeanSe:
    def test_frozen_example(self):
        mean, se = mean_se([0.1, 0.2])
        assert mean == pytest.approx(0.15)
        assert se == pytest.approx(0.05)
        assert (mean, se) == oracles.mean_se([0.1, 0.2])

    def test_single_value_has_zero_se(self):
        assert mean_se([0.7]) == (0.7, 0.0)

    def test_empty(self):
        assert mean_se([]) == (None, None)
        assert mean_se([None, None]) == (None, None)

    def test_nones_are_skipped(self):
        mean, se = mean_se([0.1, None, 0.2])
        assert mean == pytest.approx(0.15)
        assert se == pytest.approx(0.05)
        assert (mean, se) == oracles.mean_se([0.1, None, 0.2])

    @pytest.mark.parametrize("rows", [[0.7], [0.1, 0.2, 0.4], [np.float64(0.3), 1, 2.5]])
    def test_float_rows_give_plain_floats(self, rows):
        # summary.csv writes plain floats through its template
        assert [type(x) for x in mean_se(rows)] == [float, float]

    def test_array_rows_are_averaged_element_by_element(self):
        rows = [np.array([0.1, 0.5]), None, np.array([0.2, 0.9]), np.array([0.4, 0.3])]
        mean, se = mean_se(rows)
        expected = [oracles.mean_se(col) for col in ([0.1, 0.2, 0.4], [0.5, 0.9, 0.3])]
        assert list(zip(mean.tolist(), se.tolist())) == expected

    def test_one_array_row_has_zero_se(self):
        mean, se = mean_se([np.array([0.25, 0.5])])
        assert mean.tolist() == [0.25, 0.5]
        assert se.tolist() == [0.0, 0.0]


class TestTrialReportAndSummary:
    def test_report_fields(self):
        out, ds = small_outcome()
        rep = trial_report(out, ds.true_labels)
        assert rep.method is Method.GTX
        assert rep.spent == out.ledger.spent
        assert rep.avg_k == pytest.approx(rep.spent / rep.n_labeled)

    def test_summary_means(self):
        out0, ds0 = small_outcome(seed=1)
        out1, ds1 = small_outcome(seed=2)
        reps = [trial_report(out0, ds0.true_labels), trial_report(out1, ds1.true_labels)]
        summ = summarize(reps)
        assert summ.trials == 2
        assert summ.error_rate_mean == pytest.approx(
            (reps[0].error_rate + reps[1].error_rate) / 2
        )

    def test_summarize_rejects_mixed_methods(self):
        out, ds = small_outcome()
        a = trial_report(out, ds.true_labels)
        b = dataclasses.replace(a, method=Method.SV)
        with pytest.raises(ConfigError, match="got gtx and sv"):
            summarize([a, b])

    def test_summarize_rejects_empty(self):
        with pytest.raises(ConfigError):
            summarize([])
