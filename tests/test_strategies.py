import json
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gtx import strategies
from gtx.aggregators import Method, aggregate
from gtx.assessment import oracle_estimates
from gtx.errors import ConfigError
from gtx.io import write_event_log
from gtx.model import LabelerEstimate, LabelRecord
from gtx.simulation import SimConfig, SimLabeler, init_simulation
from gtx.strategies import (
    BudgetLedger,
    EventLog,
    LabelEvent,
    ThresholdConfig,
    run_confidence_threshold,
    run_uncertainty_sampling,
)

from oracles import confidence_threshold, elicit_label, select_labeler, uncertainty_sampling
from support import (
    FIRST, RIGHT, WRONG, Script, finals, make_dataset, make_estimates, make_labelers,
)


def records_by_example(outcome):
    """Rebuild per-example LabelRecord lists from the event log."""
    groups = {}
    for ev in outcome.event_log:
        groups.setdefault(ev.example_id, []).append(
            LabelRecord(example_id=ev.example_id, labeler_id=ev.labeler_id, value=ev.value)
        )
    return groups


def event_triples(outcome):
    return [(ev.example_id, ev.labeler_id, ev.value) for ev in outcome.event_log]


class TestThresholdConfig:
    def test_exactly_one_stopping_rule(self):
        with pytest.raises(ConfigError):
            ThresholdConfig(tau=0.9, kappa=3, fixed_count=2)
        with pytest.raises(ConfigError):
            ThresholdConfig(tau=None, kappa=3, fixed_count=None)

    def test_tau_range(self):
        with pytest.raises(ConfigError):
            ThresholdConfig(tau=0.5, kappa=3)
        with pytest.raises(ConfigError):
            ThresholdConfig(tau=1.01, kappa=3)
        assert ThresholdConfig(tau=1.0, kappa=3).tau == 1.0
        assert ThresholdConfig(tau=1, kappa=3).tau == 1

    def test_fixed_count_within_kappa(self):
        with pytest.raises(ConfigError):
            ThresholdConfig(tau=None, kappa=3, fixed_count=4)
        with pytest.raises(ConfigError):
            ThresholdConfig(tau=None, kappa=3, fixed_count=0)

    @pytest.mark.parametrize("kwargs, key", [
        (dict(tau=0.9, kappa=2.5), "kappa"),
        (dict(tau=0.9, kappa=3.0), "kappa"),
        (dict(tau=0.9, kappa=True), "kappa"),
        (dict(tau=0.9, kappa="3"), "kappa"),
        (dict(tau=None, kappa=3, fixed_count=2.5), "fixed_count"),
        (dict(tau=None, kappa=3, fixed_count=True), "fixed_count"),
        (dict(tau=None, kappa=3.0, fixed_count=2), "kappa"),
        (dict(tau="0.9", kappa=3), "tau"),
        (dict(tau=True, kappa=3), "tau"),
        (dict(tau=float("nan"), kappa=3), "tau"),
    ])
    def test_bad_types_are_config_errors(self, kwargs, key):
        with pytest.raises(ConfigError, match=key):
            ThresholdConfig(**kwargs)


class TestBudgetLedger:
    def test_overcharge_rejected(self):
        assert BudgetLedger(total=5, spent=3).remaining == 2
        with pytest.raises(ValueError):
            BudgetLedger(total=1, spent=2)

    def test_numpy_integers_accepted_as_the_engines_budgets_are(self):
        assert BudgetLedger(np.int64(10), np.int64(3)).remaining == 7

    def test_whole_numbers_kept_as_ints_as_the_engines_keep_them(self):
        for total in (4.0, np.float32(4.0), np.int32(4)):
            assert BudgetLedger(total).total == 4 and type(BudgetLedger(total).total) is int
        assert BudgetLedger(10**400).total == 10**400  # is_int before any float()
        for total in (4.5, math.inf, math.nan, -1.0, True):
            with pytest.raises(ConfigError, match="^budget must be a non-negative integer"):
                BudgetLedger(total)


class TestThresholdStopping:
    def test_stops_at_threshold_inclusive(self):
        # one confident vote at estimated 0.9 meets tau = 0.9 exactly
        ds = make_dataset([1])
        labelers = make_labelers([0.9, 0.9, 0.9])
        out = run_confidence_threshold(
            ds,
            labelers,
            make_estimates([0.9, 0.9, 0.9]),
            ThresholdConfig(tau=0.9, kappa=3),
            budget=10,
            method=Method.GTX,
            rng=Script([FIRST, RIGHT]),
        )
        assert out.labels_per_example.tolist() == [1]
        assert out.labels.tolist() == [1]
        assert out.confidences[0] == pytest.approx(0.9, abs=1e-12)
        assert out.ledger.spent == 1

    def test_disagreement_runs_to_kappa(self):
        # right, wrong, right at 0.9: confidence never reaches 0.95
        ds = make_dataset([1])
        labelers = make_labelers([0.9, 0.9, 0.9])
        out = run_confidence_threshold(
            ds,
            labelers,
            make_estimates([0.9, 0.9, 0.9]),
            ThresholdConfig(tau=0.95, kappa=3),
            budget=10,
            method=Method.GTX,
            rng=Script([FIRST, RIGHT, FIRST, WRONG, FIRST, RIGHT]),
        )
        assert out.labels_per_example.tolist() == [3]
        assert out.labels.tolist() == [1]
        assert out.confidences[0] == pytest.approx(0.9, abs=1e-12)

    def test_two_agreeing_votes_clear_high_bar(self):
        ds = make_dataset([1])
        labelers = make_labelers([0.9, 0.9, 0.9, 0.9, 0.9])
        out = run_confidence_threshold(
            ds,
            labelers,
            make_estimates([0.9] * 5),
            ThresholdConfig(tau=0.95, kappa=5),
            budget=10,
            method=Method.GTX,
            rng=Script([FIRST, RIGHT, FIRST, RIGHT]),
        )
        # 0.81 / (0.81 + 0.01)
        assert out.labels_per_example.tolist() == [2]
        assert out.confidences[0] == pytest.approx(0.81 / 0.82, abs=1e-12)

    def test_tau_of_one_never_stops_early(self):
        ds = make_dataset([1])
        labelers = make_labelers([0.99] * 4)
        out = run_confidence_threshold(
            ds,
            labelers,
            make_estimates([0.99] * 4),
            ThresholdConfig(tau=1.0, kappa=4),
            budget=10,
            method=Method.GTX,
            rng=Script([FIRST, RIGHT] * 4),
        )
        assert out.labels_per_example.tolist() == [4]

    def test_identical_high_accuracies_stop_after_one_label(self):
        # estimated accuracy equal to tau stops immediately, so every
        # example costs exactly one label and coverage equals the budget
        ds = make_dataset([1, 0, 1, 0, 1, 0])
        labelers = make_labelers([0.99] * 5)
        out = run_confidence_threshold(
            ds,
            labelers,
            make_estimates([0.99] * 5),
            ThresholdConfig(tau=0.99, kappa=5),
            budget=4,
            method=Method.GTX,
            rng=np.random.default_rng(0),
        )
        assert out.labels_per_example.tolist() == [1, 1, 1, 1]
        assert out.n_labeled == 4
        assert out.ledger.spent == 4

    def test_sv_threshold_stopping(self):
        # a single 0.8-mass vote meets tau = 0.8 on the nose
        ds = make_dataset([1])
        labelers = make_labelers([0.8, 0.8, 0.8])
        out = run_confidence_threshold(
            ds,
            labelers,
            make_estimates([0.8] * 3),
            ThresholdConfig(tau=0.8, kappa=3),
            budget=10,
            method=Method.SV,
            rng=Script([FIRST, RIGHT]),
        )
        assert out.labels_per_example.tolist() == [1]
        assert out.confidences[0] == pytest.approx(0.8, abs=1e-12)

    def test_sv_plateau_runs_to_kappa(self):
        # equal accuracies agreeing: winning mass stays at 0.8 forever,
        # so tau = 0.85 is unreachable and kappa ends the example
        ds = make_dataset([1])
        labelers = make_labelers([0.8] * 3)
        out = run_confidence_threshold(
            ds,
            labelers,
            make_estimates([0.8] * 3),
            ThresholdConfig(tau=0.85, kappa=3),
            budget=10,
            method=Method.SV,
            rng=Script([FIRST, RIGHT] * 3),
        )
        assert out.labels_per_example.tolist() == [3]
        assert out.confidences[0] == pytest.approx(0.8, abs=1e-12)

    def test_script_one_draw_short_raises(self):
        # the third label has its selection draw but not its correctness draw
        ds = make_dataset([1])
        labelers = make_labelers([0.9, 0.9, 0.9])
        with pytest.raises(ValueError, match="draw stream ended after 5 draws; 3 labels need 6"):
            run_confidence_threshold(
                ds,
                labelers,
                make_estimates([0.9, 0.9, 0.9]),
                ThresholdConfig(tau=0.95, kappa=3),
                budget=10,
                method=Method.GTX,
                rng=Script([FIRST, RIGHT, FIRST, WRONG, FIRST]),
            )


class TestThresholdBudget:
    def test_fixed_count_spends_evenly(self):
        ds = make_dataset([1, 0, 1])
        labelers = make_labelers([0.8] * 4)
        out = run_confidence_threshold(
            ds,
            labelers,
            None,
            ThresholdConfig(tau=None, kappa=4, fixed_count=2),
            budget=100,
            method=Method.MV,
            rng=np.random.default_rng(0),
        )
        assert out.labels_per_example.tolist() == [2, 2, 2]
        assert out.ledger.spent == 6
        assert out.ledger.remaining == 94

    def test_budget_cut_keeps_partial_example(self):
        ds = make_dataset([1, 1])
        labelers = make_labelers([0.8] * 4)
        out = run_confidence_threshold(
            ds,
            labelers,
            None,
            ThresholdConfig(tau=None, kappa=4, fixed_count=2),
            budget=3,
            method=Method.MV,
            rng=np.random.default_rng(0),
        )
        assert out.labels_per_example.tolist() == [2, 1]
        assert out.ledger.spent == 3
        assert out.n_labeled == 2

    def test_zero_budget_yields_empty_outcome(self):
        ds = make_dataset([1, 0])
        labelers = make_labelers([0.8] * 3)
        out = run_confidence_threshold(
            ds,
            labelers,
            make_estimates([0.8] * 3),
            ThresholdConfig(tau=0.9, kappa=3),
            budget=0,
            method=Method.GTX,
            rng=np.random.default_rng(0),
        )
        assert out.n_labeled == 0
        assert out.ledger.spent == 0
        assert finals(out) == {}
        assert out.event_log == []

    def test_examples_visited_in_id_order(self):
        ds = make_dataset([0, 1, 0, 1])
        labelers = make_labelers([0.8] * 3)
        out = run_confidence_threshold(
            ds,
            labelers,
            None,
            ThresholdConfig(tau=None, kappa=3, fixed_count=1),
            budget=100,
            method=Method.MV,
            rng=np.random.default_rng(0),
        )
        assert list(range(out.n_labeled)) == [0, 1, 2, 3]
        assert [ev.example_id for ev in out.event_log] == [0, 1, 2, 3]

    def test_spent_equals_event_count_and_per_example_sum(self):
        ds = make_dataset([0, 1] * 10)
        labelers = make_labelers([0.6, 0.7, 0.8, 0.9])
        out = run_confidence_threshold(
            ds,
            labelers,
            make_estimates([0.6, 0.7, 0.8, 0.9]),
            ThresholdConfig(tau=0.93, kappa=4),
            budget=31,
            method=Method.GTX,
            rng=np.random.default_rng(5),
        )
        assert out.ledger.spent == len(out.event_log)
        assert out.ledger.spent == sum(out.labels_per_example)


class TestThresholdValidation:
    def test_mv_requires_fixed_count(self):
        ds = make_dataset([1])
        labelers = make_labelers([0.8] * 3)
        for method in (Method.MV, Method.WMV):
            with pytest.raises(ConfigError, match="fixed_count"):
                run_confidence_threshold(
                    ds,
                    labelers,
                    make_estimates([0.8] * 3),
                    ThresholdConfig(tau=0.9, kappa=3),
                    budget=10,
                    method=method,
                    rng=np.random.default_rng(0),
                )

    def test_kappa_cannot_exceed_pool(self):
        ds = make_dataset([1])
        labelers = make_labelers([0.8] * 2)
        with pytest.raises(ConfigError, match="kappa"):
            run_confidence_threshold(
                ds,
                labelers,
                make_estimates([0.8] * 2),
                ThresholdConfig(tau=0.9, kappa=3),
                budget=10,
                method=Method.GTX,
                rng=np.random.default_rng(0),
            )

    def test_negative_budget_rejected(self):
        ds = make_dataset([1])
        labelers = make_labelers([0.8])
        with pytest.raises(ConfigError, match="budget"):
            run_confidence_threshold(
                ds,
                labelers,
                make_estimates([0.8]),
                ThresholdConfig(tau=0.9, kappa=1),
                budget=-1,
                method=Method.GTX,
                rng=np.random.default_rng(0),
            )


@pytest.mark.parametrize("engine", [run_confidence_threshold, run_uncertainty_sampling])
class TestPoolIds:
    """Pool ids are all strs or all integers, as a label file's are, so they sort."""

    def _run(self, engine, ids):
        config = (ThresholdConfig(tau=0.9, kappa=2),) if engine is run_confidence_threshold else ()
        return engine(make_dataset([1, 0]), [SimLabeler(i, 0.8) for i in ids],
                      {i: LabelerEstimate(i, 0.8) for i in ids}, *config, 4, Method.GTX,
                      np.random.default_rng(0))

    @pytest.mark.parametrize("ids", [[0, "a"], ["b", 1, "a"], [np.int64(2), "2"]])
    def test_a_pool_of_strs_and_integers_is_a_config_error(self, engine, ids):
        with pytest.raises(ConfigError, match="^labeler ids must be all strings or all integers$"):
            self._run(engine, ids)

    @pytest.mark.parametrize("ids", [["b", "a"], [3, np.int64(1)]])
    def test_a_pool_of_one_id_type_runs(self, engine, ids):
        assert {ev.labeler_id for ev in self._run(engine, ids).event_log} <= set(ids)


def _run_engine(kind, budget):
    ds = make_dataset([1, 0, 1])
    labelers = make_labelers([0.8, 0.8])
    estimates = make_estimates([0.8, 0.8])
    if kind == "threshold":
        return run_confidence_threshold(
            ds, labelers, estimates, ThresholdConfig(tau=0.9, kappa=2),
            budget=budget, method=Method.GTX, rng=np.random.default_rng(0),
        )
    return run_uncertainty_sampling(
        ds, labelers, estimates, budget=budget, method=Method.GTX,
        rng=np.random.default_rng(0),
    )


@pytest.mark.parametrize("kind", ["threshold", "uncertainty"])
class TestBudgetValidation:
    @pytest.mark.parametrize("budget,shown", [
        (float("nan"), "nan"), (float("inf"), "inf"), ("5", "'5'"), (True, "True"),
        (-1, "-1"), (2.5, "2.5"), (None, "None"),
    ])
    def test_bad_budget_is_a_config_error_naming_it(self, kind, budget, shown):
        with pytest.raises(ConfigError, match=f"budget must be a non-negative integer, got {shown}$"):
            _run_engine(kind, budget)

    @pytest.mark.parametrize("budget", [4, np.int64(4), 4.0, np.float64(4.0)])
    def test_whole_numbers_run(self, kind, budget):
        out = _run_engine(kind, budget)
        assert out.ledger.total == 4 and type(out.ledger.total) is int
        assert out.ledger.spent == len(out.event_log) == 4


class TestAgainstAggregators:
    @pytest.mark.parametrize(
        "method,stopping",
        [
            (Method.MV, ThresholdConfig(tau=None, kappa=5, fixed_count=3)),
            (Method.WMV, ThresholdConfig(tau=None, kappa=5, fixed_count=4)),
            (Method.SV, ThresholdConfig(tau=0.9, kappa=5)),
            (Method.GTX, ThresholdConfig(tau=0.93, kappa=5)),
        ],
    )
    def test_threshold_finals_match_aggregate(self, method, stopping):
        cfg = SimConfig(30, 5, 0.6, 0.95)
        ds, labelers = init_simulation(cfg, np.random.default_rng(21))
        estimates = make_estimates([lab.accuracy for lab in labelers])
        out = run_confidence_threshold(
            ds,
            labelers,
            estimates,
            stopping,
            budget=90,
            method=method,
            rng=np.random.default_rng(99),
        )
        groups = records_by_example(out)
        assert sorted(groups) == list(range(out.n_labeled))
        got = finals(out)
        for ex, recs in groups.items():
            want = aggregate(method, recs, estimates)
            assert got[ex] == want  # bit-exact, not approximate

    @pytest.mark.parametrize("method", list(Method))
    def test_uncertainty_finals_match_aggregate(self, method):
        cfg = SimConfig(12, 4, 0.55, 0.95)
        ds, labelers = init_simulation(cfg, np.random.default_rng(3))
        estimates = make_estimates([lab.accuracy for lab in labelers])
        out = run_uncertainty_sampling(
            ds,
            labelers,
            estimates,
            budget=30,
            method=method,
            rng=np.random.default_rng(17),
        )
        groups = records_by_example(out)
        got = finals(out)
        for ex, recs in groups.items():
            want = aggregate(method, recs, estimates)
            assert got[ex] == want

    def test_event_confidence_matches_aggregate_of_prefix(self):
        cfg = SimConfig(8, 5, 0.6, 0.9)
        ds, labelers = init_simulation(cfg, np.random.default_rng(8))
        estimates = make_estimates([lab.accuracy for lab in labelers])
        out = run_confidence_threshold(
            ds,
            labelers,
            estimates,
            ThresholdConfig(tau=0.97, kappa=5),
            budget=40,
            method=Method.GTX,
            rng=np.random.default_rng(2),
        )
        prefix = {}
        for ev in out.event_log:
            prefix.setdefault(ev.example_id, []).append(
                LabelRecord(ev.example_id, ev.labeler_id, ev.value)
            )
            want = aggregate(Method.GTX, prefix[ev.example_id], estimates)
            assert ev.confidence == want.confidence


# accuracies on and around the taus, the clamps and the extremes
_accuracies = st.sampled_from([0.0, 0.3, 0.5, 0.6, 0.8, 0.85, 0.9, 0.95, 0.99, 1.0]) | st.floats(0, 1)


@st.composite
def _threshold_runs(draw):
    """A dataset, a pool, estimates, a stopping rule, a budget and a seed, with
    budgets from 0 past what the dataset can take (every pool exhausted)."""
    n_labelers = draw(st.integers(1, 6))
    method = draw(st.sampled_from(tuple(Method)))
    kappa = draw(st.integers(1, n_labelers))
    if method in (Method.MV, Method.WMV) or draw(st.booleans()):
        stopping = ThresholdConfig(tau=None, kappa=kappa, fixed_count=draw(st.integers(1, kappa)))
    else:
        tau = draw(st.sampled_from([0.8, 0.9, 0.95, 0.99, 1.0]) | st.floats(0.5, 1.0, exclude_min=True))
        stopping = ThresholdConfig(tau=tau, kappa=kappa)
    truth = draw(st.lists(st.integers(0, 1), min_size=1, max_size=120))
    accs = draw(st.lists(_accuracies, min_size=n_labelers, max_size=n_labelers))
    ests = draw(st.lists(_accuracies, min_size=n_labelers, max_size=n_labelers))
    # labeler ids need not be 0..L-1 nor arrive sorted
    ids = draw(st.permutations(range(0, 3 * n_labelers, 3)))
    labelers = [SimLabeler(i, a) for i, a in zip(ids, accs)]
    estimates = {i: LabelerEstimate(i, a) for i, a in zip(ids, ests)}
    return dict(
        dataset=make_dataset(truth), labelers=labelers, estimates=estimates, config=stopping,
        budget=draw(st.integers(0, len(truth) * kappa + 3)), method=method,
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _outcome_fields(out):
    columns = (out.labels, out.confidences, out.soft_p1s, out.labels_per_example)
    return (out.method, out.ledger, [(c.tolist(), c.dtype) for c in columns], out.event_log)


class TestThresholdAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(run=_threshold_runs(), window=st.none() | st.integers(1, 40), record=st.booleans())
    def test_engine_equals_one_label_loop(self, run, window, record):
        # a window of a few labels puts window edges inside examples and at
        # the budget, and lets windows that skip offsets end early; None
        # keeps the engine's own window
        seed = run.pop("seed")
        want = confidence_threshold(**run, rng=np.random.default_rng(seed), record_events=record)
        with mock.patch.object(strategies, "_WINDOW", window or strategies._WINDOW):
            got = run_confidence_threshold(
                **run, rng=np.random.default_rng(seed), record_events=record
            )
        assert _outcome_fields(got) == _outcome_fields(want)  # bit for bit

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("method, interval", [
        (Method.SV, (0.8, 1.0)), (Method.GTX, (0.6, 0.9)),
    ])
    def test_forty_labelers_kappa_forty(self, method, interval, seed):
        # many labels per example, which the property's pools of at most 6
        # never reach: sv on the accurate cohort takes 36 to 39 labels an
        # example, gtx on the noisy one 7 to 8, up to 31
        rng = np.random.default_rng(seed)
        labelers = make_labelers(rng.uniform(*interval, 40).tolist())
        run = dict(dataset=make_dataset(rng.integers(0, 2, 2000)), labelers=labelers,
                   estimates=oracle_estimates(labelers),
                   config=ThresholdConfig(tau=0.99, kappa=40), budget=2000, method=method)
        want = confidence_threshold(**run, rng=np.random.default_rng(seed))
        got = run_confidence_threshold(**run, rng=np.random.default_rng(seed))
        assert got.ledger.spent == 2000 and got.labels_per_example.max() > 6
        assert _outcome_fields(got) == _outcome_fields(want)  # bit for bit

    def test_window_after_skipped_offsets_reuses_their_draws(self):
        # at sv tau 0.9 the first examples take all four labels, so the next
        # window simulates every fourth offset only; an example that stops
        # early ends it, and the window after it starts on draws already
        # taken for more labels than it reads
        ids = [0, 3, 6, 9, 15, 12]
        run = dict(
            dataset=make_dataset([0] * 5),
            labelers=[SimLabeler(i, 0.0) for i in ids],
            estimates={i: LabelerEstimate(i, 0.3 if i == 12 else 0.0) for i in ids},
            config=ThresholdConfig(tau=0.9, kappa=4), budget=11, method=Method.SV,
        )
        want = confidence_threshold(**run, rng=np.random.default_rng(0))
        with mock.patch.object(strategies, "_WINDOW", 8):
            got = run_confidence_threshold(**run, rng=np.random.default_rng(0))
        assert _outcome_fields(got) == _outcome_fields(want)


@st.composite
def _uncertainty_runs(draw):
    """A dataset, a pool, estimates, a rule, the event flag and a budget
    from 0 past what the dataset can take: below, at and above the
    example count, and enough to use up every pool."""
    n_labelers = draw(st.integers(1, 6))
    truth = draw(st.lists(st.integers(0, 1), min_size=1, max_size=60))
    accs = draw(st.lists(_accuracies, min_size=n_labelers, max_size=n_labelers))
    ests = draw(st.lists(_accuracies, min_size=n_labelers, max_size=n_labelers))
    ids = draw(st.permutations(range(0, 3 * n_labelers, 3)))
    return dict(
        dataset=make_dataset(truth), labelers=[SimLabeler(i, a) for i, a in zip(ids, accs)],
        estimates={i: LabelerEstimate(i, a) for i, a in zip(ids, ests)},
        budget=draw(st.integers(0, len(truth) * n_labelers + 3)),
        method=draw(st.sampled_from(tuple(Method))), record_events=draw(st.booleans()),
    )


def _uncertainty_fields(out):
    return _outcome_fields(out), [(d.tolist(), d.dtype) for d in out.dynamics]


class TestUncertaintyAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(run=_uncertainty_runs(), seed=st.integers(0, 2**32 - 1))
    def test_engine_equals_one_label_heap_loop(self, run, seed):
        want = uncertainty_sampling(**run, rng=np.random.default_rng(seed))
        got = run_uncertainty_sampling(**run, rng=np.random.default_rng(seed))
        # repr tells -0.0 from 0.0 and an int from a numpy int
        assert repr(_uncertainty_fields(got)) == repr(_uncertainty_fields(want))
        for ev in got.event_log or ():
            assert type(ev) is LabelEvent
            assert ev == (ev.step, ev.example_id, ev.labeler_id, ev.value, ev.confidence)


class TestUncertaintyAgainstOracleAtScale:
    """Heap loops longer than a draw block (``_HEAP_BLOCK`` labels), which
    the property's runs never reach: one stopped by its budget and one whose
    pools all run dry, under every rule, with and without events."""

    N, ACCS = 2100, [0.55, 0.65, 0.7, 0.8, 0.9, 0.97]  # 12,600 labels at most

    @pytest.mark.parametrize("record_events", [True, False])
    @pytest.mark.parametrize("method", list(Method))
    @pytest.mark.parametrize("budget", [12_000, 13_000])
    def test_engine_equals_one_label_heap_loop(self, budget, method, record_events):
        assert budget - self.N > strategies._HEAP_BLOCK
        run = dict(dataset=make_dataset(np.random.default_rng(5).integers(0, 2, self.N)),
                   labelers=make_labelers(self.ACCS),
                   estimates=make_estimates([0.6, 0.6, 0.75, 0.85, 0.85, 0.95]),
                   budget=budget, method=method, record_events=record_events)
        want = uncertainty_sampling(**run, rng=np.random.default_rng(budget))
        got = run_uncertainty_sampling(**run, rng=np.random.default_rng(budget))
        assert got.ledger.spent == min(budget, self.N * len(self.ACCS))
        g, w = repr(_uncertainty_fields(got)), repr(_uncertainty_fields(want))
        # lengths, not the strings: pytest's diff of two long reprs takes minutes
        at = len(os.path.commonprefix((g, w)))
        assert at == len(g) == len(w), f"{g[at - 30:at + 30]!r} (engine), {w[at - 30:at + 30]!r}"


def _flip_fields(run, engine, seed, truth):
    out = engine(**dict(run, dataset=make_dataset(truth), record_events=True),
                 rng=np.random.default_rng(seed))
    events = [(ev.step, ev.example_id, ev.labeler_id, ev.confidence) for ev in out.event_log]
    return out.labels_per_example.tolist(), out.ledger, events


class TestClassNamesDoNotMatter:
    """A run on the flipped truth ``1 - y`` with the same draws asks the
    same labelers about the same examples and reaches the same confidences."""

    @settings(max_examples=200, deadline=None)
    @given(run=_threshold_runs())
    def test_threshold_run_is_the_same_on_flipped_truth(self, run):
        seed, truth = run.pop("seed"), run["dataset"].true_labels
        assert (_flip_fields(run, run_confidence_threshold, seed, truth)
                == _flip_fields(run, run_confidence_threshold, seed, 1 - truth))

    @settings(max_examples=200, deadline=None)
    @given(run=_uncertainty_runs(), seed=st.integers(0, 2**32 - 1))
    def test_uncertainty_run_is_the_same_on_flipped_truth(self, run, seed):
        truth = run["dataset"].true_labels
        assert (_flip_fields(run, run_uncertainty_sampling, seed, truth)
                == _flip_fields(run, run_uncertainty_sampling, seed, 1 - truth))


def _assert_log_file(path, log, method):
    """``write_event_log`` of ``log`` writes each event's json.dumps line."""
    write_event_log(path, log, method)
    want = "".join(json.dumps({"step": ev.step, "example_id": ev.example_id,
                               "labeler_id": ev.labeler_id, "value": ev.value,
                               "confidence": ev.confidence, "method": str(method)},
                              sort_keys=True, separators=(",", ":")) + "\n" for ev in log)
    assert path.read_text(encoding="utf-8") == want


class TestEventLogFile:
    @settings(max_examples=100, deadline=None)
    @given(run=_threshold_runs())
    def test_threshold_log_writes_one_json_line_per_event(self, tmp_path_factory, run):
        seed = run.pop("seed")
        out = run_confidence_threshold(**run, rng=np.random.default_rng(seed))
        _assert_log_file(tmp_path_factory.getbasetemp() / "t.jsonl", out.event_log, run["method"])

    @settings(max_examples=100, deadline=None)
    @given(run=_uncertainty_runs(), seed=st.integers(0, 2**32 - 1))
    def test_uncertainty_log_writes_one_json_line_per_event(self, tmp_path_factory, run, seed):
        run["record_events"] = True
        out = run_uncertainty_sampling(**run, rng=np.random.default_rng(seed))
        _assert_log_file(tmp_path_factory.getbasetemp() / "u.jsonl", out.event_log, run["method"])

    def test_string_labeler_ids_are_json_strings(self, tmp_path):
        labelers = [SimLabeler(i, 0.8) for i in ("b", 'q"uote', "a%s")]
        out = run_uncertainty_sampling(make_dataset([0, 1, 1]), labelers, None, 7, Method.MV,
                                       np.random.default_rng(0))
        assert {ev.labeler_id for ev in out.event_log} == {"b", 'q"uote', "a%s"}
        _assert_log_file(tmp_path / "s.jsonl", out.event_log, Method.MV)


class TestEventLogContract:
    """An ``EventLog`` behaves as the list of its ``LabelEvent``s."""

    @pytest.fixture(scope="class")
    def logs(self):
        out = run_uncertainty_sampling(make_dataset([0, 1] * 6), make_labelers([0.7, 0.9, 0.6]),
                                       make_estimates([0.7, 0.9, 0.6]), 20, Method.GTX,
                                       np.random.default_rng(3))
        return out.event_log, [LabelEvent(*ev) for ev in out.event_log]

    def test_length_and_indexing(self, logs):
        log, events = logs
        assert isinstance(log, EventLog) and len(log) == len(events) == 20
        assert log[0] == events[0] and log[-1] == events[-1] and log[19] == events[19]
        assert [log[i] for i in range(-20, 20)] == events + events
        for index in (20, -21):
            with pytest.raises(IndexError):
                log[index]
        with pytest.raises(TypeError):
            log["0"]

    @pytest.mark.parametrize("cut", [slice(None), slice(2, 5), slice(-3, None),
                                     slice(None, None, -2), slice(5, 2), slice(1, 100, 3)])
    def test_slices_are_the_lists_slices(self, logs, cut):
        log, events = logs
        assert log[cut] == events[cut] and events[cut] == log[cut]
        assert repr(log[cut]) == repr(events[cut])

    def test_events_hold_python_numbers(self, logs):
        log, _ = logs
        for ev in (log[0], log[-1], *log):
            assert type(ev) is LabelEvent
            assert list(map(type, ev)) == [int, int, int, int, float]

    def test_equality_and_repr_are_the_lists(self, logs):
        log, events = logs
        assert log == events and events == log and not log != events
        assert log == tuple(events) and log == log[:]
        assert log != events[:-1] and events[:-1] != log
        changed = events[:3] + [events[3]._replace(confidence=0.25)] + events[4:]
        assert log != changed and changed != log
        assert log != 5 and log != "x"
        assert repr(log) == repr(events)

    def test_an_empty_log_equals_the_empty_list(self):
        out = run_confidence_threshold(make_dataset([0, 1]), make_labelers([0.8] * 3), None,
                                       ThresholdConfig(tau=None, kappa=3, fixed_count=1), 0,
                                       Method.MV, np.random.default_rng(0))
        assert out.event_log == [] and [] == out.event_log and not out.event_log
        assert len(out.event_log) == 0 and list(out.event_log) == [] and repr(out.event_log) == "[]"


def _held_bytes(engine, record):
    """Bytes that a default-sized gtx run under ``engine`` still holds when
    it returns, beside its outcome's label count."""
    n = 15000 if engine is run_confidence_threshold else 5000
    ds, labelers = init_simulation(SimConfig(n, 10, 0.6, 0.9), np.random.default_rng(1))
    estimates = oracle_estimates(labelers)
    args = (ThresholdConfig(tau=0.95, kappa=5),) if engine is run_confidence_threshold else ()
    tracemalloc.start()
    try:
        out = engine(ds, labelers, estimates, *args, 15000, Method.GTX,
                     np.random.default_rng(2), record_events=record)
        return tracemalloc.get_traced_memory()[0], out.ledger.spent
    finally:
        tracemalloc.stop()


class TestEventLogMemory:
    @pytest.mark.parametrize("engine", [run_confidence_threshold, run_uncertainty_sampling],
                             ids=["threshold", "uncertainty"])
    def test_a_recorded_run_holds_at_most_48_bytes_per_event_more(self, engine):
        # five numpy columns hold 40 bytes per event; a list of named
        # tuples held about 160
        without, spent = _held_bytes(engine, False)
        held, spent_again = _held_bytes(engine, True)
        assert spent == spent_again == 15000
        assert held - without <= 48 * spent


class TestReplayAgainstPublicApi:
    @pytest.mark.parametrize("runner_kind", ["threshold", "uncertainty"])
    def test_engine_draws_equal_select_plus_elicit(self, runner_kind):
        cfg = SimConfig(15, 5, 0.55, 0.95)
        ds, labelers = init_simulation(cfg, np.random.default_rng(4))
        estimates = make_estimates([lab.accuracy for lab in labelers])
        seed = 123
        if runner_kind == "threshold":
            out = run_confidence_threshold(
                ds,
                labelers,
                estimates,
                ThresholdConfig(tau=0.95, kappa=5),
                budget=40,
                method=Method.GTX,
                rng=np.random.default_rng(seed),
            )
        else:
            out = run_uncertainty_sampling(
                ds,
                labelers,
                estimates,
                budget=40,
                method=Method.GTX,
                rng=np.random.default_rng(seed),
            )
        # replaying the event sequence through the one-step oracles of
        # tests/oracles.py with the same stream must reproduce every pick
        stream = np.random.default_rng(seed)
        used = {}
        truth = ds.true_labels.tolist()
        for ev in out.event_log:
            picked = select_labeler(used.setdefault(ev.example_id, set()), labelers, stream)
            rec = elicit_label(picked, ev.example_id, truth[ev.example_id], stream)
            assert picked.labeler_id == ev.labeler_id
            assert rec.value == ev.value
            used[ev.example_id].add(picked.labeler_id)


class TestDeterminismAndMonotonicity:
    def test_same_seed_same_run(self):
        cfg = SimConfig(20, 5, 0.6, 0.9)
        ds, labelers = init_simulation(cfg, np.random.default_rng(6))
        estimates = make_estimates([lab.accuracy for lab in labelers])
        outs = [
            run_confidence_threshold(
                ds,
                labelers,
                estimates,
                ThresholdConfig(tau=0.95, kappa=5),
                budget=60,
                method=Method.GTX,
                rng=np.random.default_rng(7),
            )
            for _ in range(2)
        ]
        assert event_triples(outs[0]) == event_triples(outs[1])
        assert outs[0].confidences.tolist() == outs[1].confidences.tolist()

    @pytest.mark.parametrize("runner_kind", ["threshold", "uncertainty"])
    def test_smaller_budget_is_a_prefix(self, runner_kind):
        cfg = SimConfig(10, 4, 0.55, 0.9)
        ds, labelers = init_simulation(cfg, np.random.default_rng(9))
        estimates = make_estimates([lab.accuracy for lab in labelers])

        def run(budget):
            if runner_kind == "threshold":
                return run_confidence_threshold(
                    ds,
                    labelers,
                    estimates,
                    ThresholdConfig(tau=0.97, kappa=4),
                    budget=budget,
                    method=Method.GTX,
                    rng=np.random.default_rng(10),
                )
            return run_uncertainty_sampling(
                ds,
                labelers,
                estimates,
                budget=budget,
                method=Method.GTX,
                rng=np.random.default_rng(10),
            )

        small, big = run(12), run(25)
        assert event_triples(big)[:12] == event_triples(small)
        # coverage and per-example counts only grow with budget
        assert small.n_labeled <= big.n_labeled
        small_k = dict(enumerate(small.labels_per_example.tolist()))
        big_k = dict(enumerate(big.labels_per_example.tolist()))
        for ex, k in small_k.items():
            assert big_k[ex] >= k


class TestOutcomeColumns:
    @pytest.mark.parametrize("budget", [0, 7, 30])
    @pytest.mark.parametrize("runner_kind", ["threshold", "uncertainty"])
    def test_columns_are_typed_arrays_indexed_by_example(self, runner_kind, budget):
        cfg = SimConfig(12, 4, 0.55, 0.95)
        ds, labelers = init_simulation(cfg, np.random.default_rng(3))
        estimates = make_estimates([lab.accuracy for lab in labelers])
        if runner_kind == "threshold":
            out = run_confidence_threshold(
                ds, labelers, estimates, ThresholdConfig(tau=0.95, kappa=4),
                budget=budget, method=Method.GTX, rng=np.random.default_rng(17),
            )
        else:
            out = run_uncertainty_sampling(
                ds, labelers, estimates, budget=budget, method=Method.GTX,
                rng=np.random.default_rng(17),
            )
        columns = (out.labels, out.confidences, out.soft_p1s, out.labels_per_example)
        assert [c.dtype for c in columns] == [np.int64, np.float64, np.float64, np.int64]
        assert {len(c) for c in columns} == {out.n_labeled}
        assert out.n_labeled == len({ev.example_id for ev in out.event_log})
        assert not hasattr(out, "example_ids") and not hasattr(out, "aggregates")


class TestUncertaintySampling:
    def test_first_pass_covers_in_id_order(self):
        ds = make_dataset([0, 1, 0, 1])
        labelers = make_labelers([0.8, 0.8])
        out = run_uncertainty_sampling(
            ds,
            labelers,
            make_estimates([0.8, 0.8]),
            budget=4,
            method=Method.GTX,
            rng=np.random.default_rng(0),
        )
        assert [ev.example_id for ev in out.event_log] == [0, 1, 2, 3]
        assert out.labels_per_example.tolist() == [1, 1, 1, 1]

    def test_extra_label_goes_to_most_uncertain(self):
        # first pass leaves example 1 with the least confident aggregate
        ds = make_dataset([1, 1, 1])
        labelers = make_labelers([0.9, 0.8, 0.7])
        estimates = make_estimates([0.9, 0.8, 0.7])
        script = Script(
            [
                FIRST, RIGHT,   # ex0 by labeler 0: conf 0.9
                0.7, RIGHT,     # ex1 by labeler 2: conf 0.7
                0.34, RIGHT,    # ex2 by labeler 1: conf 0.8
                FIRST, RIGHT,   # phase 2: ex1 again, labeler 0
            ]
        )
        out = run_uncertainty_sampling(
            ds, labelers, estimates, budget=4, method=Method.GTX, rng=script
        )
        assert [ev.example_id for ev in out.event_log] == [0, 1, 2, 1]
        assert [ev.labeler_id for ev in out.event_log] == [0, 2, 1, 0]
        assert out.labels_per_example.tolist() == [1, 2, 1]

    def test_uncertainty_ties_break_toward_lowest_id(self):
        ds = make_dataset([1, 1, 1])
        labelers = make_labelers([0.8, 0.8, 0.8])
        script = Script([FIRST, RIGHT] * 3 + [FIRST, RIGHT])
        out = run_uncertainty_sampling(
            ds,
            labelers,
            make_estimates([0.8] * 3),
            budget=4,
            method=Method.GTX,
            rng=script,
        )
        assert [ev.example_id for ev in out.event_log] == [0, 1, 2, 0]

    def test_run_ends_when_every_pool_is_exhausted(self):
        ds = make_dataset([1, 0])
        labelers = make_labelers([0.8])
        out = run_uncertainty_sampling(
            ds,
            labelers,
            make_estimates([0.8]),
            budget=10,
            method=Method.GTX,
            rng=np.random.default_rng(0),
        )
        assert out.ledger.spent == 2
        assert out.labels_per_example.tolist() == [1, 1]

    def test_budget_below_coverage_stops_mid_pass(self):
        ds = make_dataset([1, 0, 1])
        labelers = make_labelers([0.8, 0.8])
        out = run_uncertainty_sampling(
            ds,
            labelers,
            make_estimates([0.8, 0.8]),
            budget=2,
            method=Method.GTX,
            rng=np.random.default_rng(0),
        )
        assert out.n_labeled == 2
        assert list(range(out.n_labeled)) == [0, 1]
        assert [d.tolist() for d in out.dynamics] == [[], [], []]  # coverage never completed

    @pytest.mark.parametrize("draws,budget,message", [
        (5, 3, "ended after 5 draws; 3 labels need 6"),  # short in the first pass
        (7, 10, "ended after 7 draws; 6 labels need 12"),  # short after it
    ])
    def test_short_draw_stream_raises(self, draws, budget, message):
        ds = make_dataset([1, 0, 1])
        labelers = make_labelers([0.8, 0.8])
        with pytest.raises(ValueError, match=message):
            run_uncertainty_sampling(
                ds, labelers, make_estimates([0.8, 0.8]), budget=budget,
                method=Method.GTX, rng=Script(([FIRST, RIGHT] * 6)[:draws]),
            )

    @pytest.mark.parametrize("budget", [0, 5])
    def test_empty_dataset_with_dynamics(self, budget):
        out = run_uncertainty_sampling(
            make_dataset([]), make_labelers([0.8, 0.8]), make_estimates([0.8, 0.8]),
            budget=budget, method=Method.GTX, rng=np.random.default_rng(0),
        )
        assert out.n_labeled == 0 and out.ledger.spent == 0 and out.event_log == []
        assert [d.dtype for d in out.dynamics] == [np.int64, np.float64, np.float64]
        assert [d.tolist() for d in out.dynamics] == [[], [], []]

    def test_dynamics_single_point_when_budget_equals_coverage(self):
        ds = make_dataset([1, 0, 1])
        labelers = make_labelers([0.8, 0.8])
        out = run_uncertainty_sampling(
            ds,
            labelers,
            make_estimates([0.8, 0.8]),
            budget=3,
            method=Method.GTX,
            rng=np.random.default_rng(0),
        )
        steps, errors, maes = out.dynamics
        assert len(steps) == len(errors) == len(maes) == 1
        assert steps[0] == 3

    def test_dynamics_track_every_label_and_end_consistent(self):
        from gtx.metrics import trial_report

        cfg = SimConfig(25, 5, 0.6, 0.9)
        ds, labelers = init_simulation(cfg, np.random.default_rng(13))
        estimates = make_estimates([lab.accuracy for lab in labelers])
        out = run_uncertainty_sampling(
            ds,
            labelers,
            estimates,
            budget=60,
            method=Method.GTX,
            rng=np.random.default_rng(14),
        )
        steps, errors, maes = out.dynamics
        assert [d.dtype for d in out.dynamics] == [np.int64, np.float64, np.float64]
        assert steps.tolist() == list(range(25, 61))
        assert len(errors) == len(maes) == len(steps)
        rep = trial_report(out, ds.true_labels)
        assert errors[-1] == pytest.approx(rep.error_rate, abs=1e-9)
        assert maes[-1] == pytest.approx(rep.mae, abs=1e-9)
