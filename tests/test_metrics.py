import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gtx.aggregators import Method
from gtx.errors import ConfigError
from gtx.metrics import (
    error_rate,
    mean_absolute_error,
    mean_se,
    summarize,
    trial_report,
)
from gtx.simulation import SimConfig, init_simulation
from gtx.strategies import (
    BudgetLedger,
    CollectionOutcome,
    ThresholdConfig,
    run_confidence_threshold,
)

from support import make_estimates


def outcome(rows):
    """A one-label-per-example outcome over examples 0..n-1 from
    (label, soft_p1) rows."""
    n = len(rows)
    return CollectionOutcome(
        Method.GTX,
        BudgetLedger(total=n, spent=n),
        list(range(n)),
        [label for label, _ in rows],
        [max(soft, 1 - soft) for _, soft in rows],
        [soft for _, soft in rows],
        [1] * n,
    )


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
        assert error_rate(out, truth) == pytest.approx(2 / 3)

    def test_none_when_nothing_labeled(self):
        assert error_rate(outcome([]), []) is None

    def test_zero_budget_outcome(self):
        out, ds = small_outcome(budget=0)
        assert error_rate(out, ds.true_labels) is None
        assert mean_absolute_error(out, ds.true_labels) is None


class TestMeanAbsoluteError:
    def test_distance_from_soft_score_to_truth(self):
        out = outcome([(1, 0.9), (0, 0.3)])
        truth = np.array([1, 0], dtype=np.int8)
        assert mean_absolute_error(out, truth) == pytest.approx((0.1 + 0.3) / 2)

    @given(st.lists(st.tuples(st.integers(0, 1), st.floats(0.0, 1.0)), min_size=1, max_size=30))
    def test_error_rate_at_most_twice_mae(self, rows):
        # a wrong hard label implies soft mass >= 0.5 on the wrong side
        out = outcome([(1 if soft > 0.5 else 0, soft) for _, soft in rows])
        truth = np.array([t for t, _ in rows], dtype=np.int8)
        assert error_rate(out, truth) <= 2 * mean_absolute_error(out, truth) + 1e-12


class TestMeanSe:
    def test_frozen_example(self):
        mean, se = mean_se([0.1, 0.2])
        assert mean == pytest.approx(0.15)
        assert se == pytest.approx(0.05)

    def test_single_value_has_zero_se(self):
        assert mean_se([0.7]) == (0.7, 0.0)

    def test_empty(self):
        assert mean_se([]) == (None, None)

    def test_nones_are_skipped(self):
        mean, se = mean_se([0.1, None, 0.2])
        assert mean == pytest.approx(0.15)
        assert se == pytest.approx(0.05)


class TestTrialReportAndSummary:
    def test_report_fields(self):
        out, ds = small_outcome()
        rep = trial_report(out, ds.true_labels, "threshold", params={"tau": 0.9}, seed=3)
        assert rep.method is Method.GTX
        assert rep.params == (("tau", 0.9),)
        assert rep.spent == out.ledger.spent
        assert rep.avg_k == pytest.approx(rep.spent / rep.n_labeled)

    def test_summary_means(self):
        out0, ds0 = small_outcome(seed=1)
        out1, ds1 = small_outcome(seed=2)
        reps = [
            trial_report(out0, ds0.true_labels, "threshold", params={"tau": 0.9}),
            trial_report(out1, ds1.true_labels, "threshold", params={"tau": 0.9}),
        ]
        summ = summarize(reps)
        assert summ.trials == 2
        assert summ.error_rate_mean == pytest.approx(
            (reps[0].error_rate + reps[1].error_rate) / 2
        )

    def test_summarize_rejects_mixed_cells(self):
        out, ds = small_outcome()
        a = trial_report(out, ds.true_labels, "threshold", params={"tau": 0.9})
        b = trial_report(out, ds.true_labels, "threshold", params={"tau": 0.95})
        with pytest.raises(ConfigError):
            summarize([a, b])

    def test_summarize_rejects_empty(self):
        with pytest.raises(ConfigError):
            summarize([])
