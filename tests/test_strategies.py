from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gtx import strategies
from gtx.aggregators import Method, aggregate
from gtx.errors import ConfigError
from gtx.model import ClassPrior, LabelerEstimate, LabelRecord, UNIFORM_PRIOR
from gtx.simulation import SimConfig, SimLabeler, UniformStream, init_simulation
from gtx.strategies import (
    BudgetLedger,
    ThresholdConfig,
    run_confidence_threshold,
    run_uncertainty_sampling,
)

from oracles import confidence_threshold, elicit_label, select_labeler
from support import FIRST, RIGHT, WRONG, Script, make_dataset, make_estimates, make_labelers


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

    def test_fixed_count_within_kappa(self):
        with pytest.raises(ConfigError):
            ThresholdConfig(tau=None, kappa=3, fixed_count=4)
        with pytest.raises(ConfigError):
            ThresholdConfig(tau=None, kappa=3, fixed_count=0)


class TestBudgetLedger:
    def test_overcharge_rejected(self):
        assert BudgetLedger(total=5, spent=3).remaining == 2
        with pytest.raises(ValueError):
            BudgetLedger(total=1, spent=2)


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
        assert out.labels_per_example == [1]
        assert out.labels == [1]
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
        assert out.labels_per_example == [3]
        assert out.labels == [1]
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
        assert out.labels_per_example == [2]
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
        assert out.labels_per_example == [4]

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
        assert out.labels_per_example == [1, 1, 1, 1]
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
        assert out.labels_per_example == [1]
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
        assert out.labels_per_example == [3]
        assert out.confidences[0] == pytest.approx(0.8, abs=1e-12)

    def test_degenerate_prior_is_certain_immediately(self):
        ds = make_dataset([1])
        labelers = make_labelers([0.9] * 3)
        out = run_confidence_threshold(
            ds,
            labelers,
            make_estimates([0.9] * 3),
            ThresholdConfig(tau=0.99, kappa=3),
            budget=10,
            method=Method.GTX,
            rng=Script([FIRST, RIGHT]),
            prior=ClassPrior(1.0, 0.0),
        )
        assert out.labels_per_example == [1]
        assert out.labels == [0]
        assert out.confidences[0] == 1.0

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
        assert out.labels_per_example == [2, 2, 2]
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
        assert out.labels_per_example == [2, 1]
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
        assert out.aggregates == {}
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
        assert out.example_ids == [0, 1, 2, 3]
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
        assert sorted(groups) == out.example_ids
        for ex, recs in groups.items():
            want = aggregate(method, recs, estimates)
            assert out.aggregates[ex] == want  # bit-exact, not approximate

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
        for ex, recs in groups.items():
            want = aggregate(method, recs, estimates)
            assert out.aggregates[ex] == want

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
_priors = st.sampled_from(
    [UNIFORM_PRIOR, ClassPrior(0.3, 0.7), ClassPrior(0.9, 0.1), ClassPrior(1.0, 0.0), ClassPrior(0.0, 1.0)]
)


@st.composite
def _threshold_runs(draw):
    """A dataset, a pool, estimates, a stopping rule, a budget and a seed, with
    budgets from 0 past what the dataset can take (every pool exhausted)."""
    n_labelers = draw(st.integers(1, 6))
    method = draw(st.sampled_from(list(Method)))
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
        prior=draw(_priors), seed=draw(st.integers(0, 2**32 - 1)),
    )


def _outcome_fields(out):
    return (out.method, out.ledger, out.example_ids, out.labels, out.confidences,
            out.soft_p1s, out.labels_per_example, out.event_log)


class TestThresholdAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(run=_threshold_runs(), window=st.none() | st.integers(1, 40), record=st.booleans())
    def test_engine_equals_one_label_loop(self, run, window, record):
        # a window of a few labels puts window edges inside examples and at
        # the budget, and lets windows that skip offsets end early; None
        # keeps the engine's own window
        seed, prior = run.pop("seed"), run.pop("prior")
        want = confidence_threshold(
            **run, rng=np.random.default_rng(seed), prior=prior, record_events=record
        )
        with mock.patch.object(strategies, "_WINDOW", window or strategies._WINDOW):
            got = run_confidence_threshold(
                **run, rng=np.random.default_rng(seed), prior=prior, record_events=record
            )
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
        want = confidence_threshold(**run, rng=np.random.default_rng(0), prior=UNIFORM_PRIOR)
        with mock.patch.object(strategies, "_WINDOW", 8):
            got = run_confidence_threshold(**run, rng=np.random.default_rng(0))
        assert _outcome_fields(got) == _outcome_fields(want)


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
        stream = UniformStream(np.random.default_rng(seed))
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
        assert outs[0].confidences == outs[1].confidences

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
        assert set(small.example_ids) <= set(big.example_ids)
        small_k = dict(zip(small.example_ids, small.labels_per_example))
        big_k = dict(zip(big.example_ids, big.labels_per_example))
        for ex, k in small_k.items():
            assert big_k[ex] >= k


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
        assert out.labels_per_example == [1, 1, 1, 1]

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
        assert out.labels_per_example == [1, 2, 1]

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
        assert out.labels_per_example == [1, 1]

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
            record_dynamics=True,
        )
        assert out.n_labeled == 2
        assert out.example_ids == [0, 1]
        assert out.dynamics == []  # coverage never completed

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
            record_dynamics=True,
        )
        assert len(out.dynamics) == 1
        assert out.dynamics[0][0] == 3

    def test_dynamics_track_every_label_and_end_consistent(self):
        from gtx.metrics import error_rate, mean_absolute_error

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
            record_dynamics=True,
        )
        steps = [d[0] for d in out.dynamics]
        assert steps == list(range(25, 61))
        err_final = error_rate(out, ds.true_labels)
        mae_final = mean_absolute_error(out, ds.true_labels)
        assert out.dynamics[-1][1] == pytest.approx(err_final, abs=1e-9)
        assert out.dynamics[-1][2] == pytest.approx(mae_final, abs=1e-9)
