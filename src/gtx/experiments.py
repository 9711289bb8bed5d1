"""Repeated-trial experiment harness with deterministic seeding.

Every random draw in an experiment descends from one master seed through
``np.random.SeedSequence`` spawn keys, so results are reproducible bit for
bit regardless of worker count and stable under changes to the trial count:

* environment stream, spawn key ``(0, trial)``: dataset labels, then labeler
  accuracies, then (unless oracle accuracies are requested) assessment item
  labels and assessment responses;
* collection stream, spawn key ``(1, trial, method_code, cell_code)``: the
  select/elicit draws of one collection run.  The method code is
  ``Method.code`` (mv=0, wmv=1, sv=2, gtx=3); the cell code is
  ``tau_code(tau)`` (``round(tau * 10000)``) for threshold cells and the
  fixed label count for count cells (0 for uncertainty sampling).

A trial therefore shares one simulated world across every method and sweep
cell, which makes per-trial paired comparisons between methods meaningful,
and no stream is ever split across processes.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .aggregators import Method
from .assessment import oracle_estimates, run_assessment
from .errors import ConfigError, GtxError, as_path
from .io import (
    ExperimentConfig,
    tau_code,
    write_aggregates_csv,
    write_columns,
    write_csv,
    write_event_log,
    write_json,
)
from .metrics import TrialSummary, mean_se, summarize, trial_report
from .model import kernel
from .simulation import SimConfig, draw_assessment, init_simulation
from .strategies import (
    ThresholdConfig,
    run_confidence_threshold,
    run_uncertainty_sampling,
)

__all__ = [
    "Cell",
    "SweepResult",
    "UncertaintyResult",
    "build_trial_env",
    "collection_rng",
    "environment_rng",
    "run_threshold_experiment",
    "run_uncertainty_experiment",
    "threshold_cells",
    "write_results",
]

_ENV_DOMAIN = 0
_COLLECT_DOMAIN = 1


def environment_rng(master_seed: int, trial: int) -> np.random.Generator:
    seq = np.random.SeedSequence(master_seed, spawn_key=(_ENV_DOMAIN, trial))
    return np.random.default_rng(seq)


def collection_rng(
    master_seed: int, trial: int, method: Method, cell_code: int
) -> np.random.Generator:
    seq = np.random.SeedSequence(
        master_seed,
        spawn_key=(_COLLECT_DOMAIN, trial, Method(method).code, cell_code),
    )
    return np.random.default_rng(seq)


def build_trial_env(config: ExperimentConfig, master_seed: int, trial: int):
    """Simulate one trial's world: dataset, labelers, accuracy estimates."""
    rng = environment_rng(master_seed, trial)
    sim = SimConfig(config.n_examples, config.n_labelers, *config.accuracy_interval)
    dataset, labelers = init_simulation(sim, rng)
    if config.oracle_accuracy:
        estimates = oracle_estimates(labelers)
    else:
        assessment = draw_assessment(config.assessment_size, rng)
        estimates = run_assessment(labelers, assessment, rng)
    return dataset, labelers, estimates


@dataclass(frozen=True)
class Cell:
    """One sweep cell: a method plus its stopping rule, whose tau or fixed
    count is the cell's value and gives its code."""

    method: Method
    stopping: ThresholdConfig

    @property
    def code(self) -> int:
        return tau_code(self.value) if self.kind == "tau" else self.value

    @property
    def kind(self) -> str:
        return "tau" if self.stopping.tau is not None else "count"

    @property
    def value(self):
        s = self.stopping
        return s.tau if s.tau is not None else s.fixed_count


def threshold_cells(config: ExperimentConfig) -> tuple[Cell, ...]:
    """Sweep grid: rules whose kernel has no stop test (MV, WMV) take the
    fixed counts, the others the tau grid, each cell the config's kappa."""
    cells = []
    for method in config.methods:
        if kernel(method).stop is None:
            for c in config.fixed_counts:
                cells.append(Cell(method, ThresholdConfig(None, config.kappa, c)))
        else:
            for t in config.tau_grid:
                cells.append(Cell(method, ThresholdConfig(t, config.kappa)))
    return tuple(cells)


def _threshold_run(config, env, cell, trial, record_events):
    rng = collection_rng(config.seed, trial, cell.method, cell.code)
    return run_confidence_threshold(
        *env, cell.stopping, config.budget, cell.method, rng, record_events=record_events
    )


def _threshold_trial(trial, config, cells):
    env = build_trial_env(config, config.seed, trial)
    return [
        trial_report(_threshold_run(config, env, cell, trial, False), env[0].true_labels)
        for cell in cells
    ]


def _uncertainty_trial(trial, config):
    """One trial's reports and dynamics arrays per method; trial 0 also
    records event logs and returns its outcomes as the exemplars (recording
    events draws nothing, so the outcomes are unchanged)."""
    dataset, labelers, estimates = build_trial_env(config, config.seed, trial)
    truth = dataset.true_labels
    reports, dynamics, outcomes = [], [], []
    for method in config.methods:
        outcome = run_uncertainty_sampling(
            dataset, labelers, estimates, config.budget, method,
            collection_rng(config.seed, trial, method, 0),
            record_events=trial == 0,
        )
        reports.append(trial_report(outcome, truth))
        dynamics.append(outcome.dynamics)
        outcome.dynamics = None
        if trial == 0:
            outcomes.append(outcome)
    return reports, dynamics, (outcomes, truth) if trial == 0 else None


# Most trials in one task for a worker process.  With two tasks per worker
# in flight, what is queued does not grow with the trial count.
_MAX_CHUNK = 16


def _trial_span(worker, start: int, stop: int) -> list:
    return [worker(t) for t in range(start, stop)]


def _map_trials(worker, trials: int, workers: int, progress=None):
    def collect(results):
        done = []
        for res in results:
            done.append(res)
            if progress is not None:
                progress(f"trial {len(done)}/{trials}")
        return done

    chunk = max(1, min(trials // (workers * 4), _MAX_CHUNK))
    # a pool starts all of its processes at the first submit
    workers = min(workers, -(-trials // chunk))
    if workers <= 1:
        return collect(map(worker, range(trials)))
    # imported here: the process pool's modules take about a third of ``import gtx``
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    spans = ((a, min(a + chunk, trials)) for a in range(0, trials, chunk))

    def in_order(pool):
        flight = deque(pool.submit(_trial_span, worker, *span)
                       for span in itertools.islice(spans, 2 * workers))
        while flight:
            results = flight.popleft().result()
            for span in itertools.islice(spans, 1):
                flight.append(pool.submit(_trial_span, worker, *span))
            yield from results

    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return collect(in_order(pool))
    except BrokenProcessPool as exc:
        raise GtxError(f"a worker process died: {exc}") from exc


def _pick_best(cells, summaries, methods):
    """Lowest mean error per method; ties prefer fewer labels, then the
    smaller cell code so the choice never depends on float noise order."""
    def rank(i):
        s = summaries[i]
        err = s.error_rate_mean if s.error_rate_mean is not None else float("inf")
        avg = s.avg_k_mean if s.avg_k_mean is not None else float("inf")
        return (err, avg, cells[i].code)

    return {
        method: min((i for i, c in enumerate(cells) if c.method == method), key=rank)
        for method in methods
    }


@dataclass
class SweepResult:
    config: ExperimentConfig
    cells: tuple
    reports: tuple  # reports[i] is the per-trial tuple for cells[i]
    summaries: tuple
    best: dict
    exemplars: dict  # method -> (CollectionOutcome of trial 0 at best cell, truth)


def _threshold_exemplars(config, cells, best):
    env = build_trial_env(config, config.seed, 0)
    return {
        method: (
            _threshold_run(config, env, cells[i], 0, True),
            env[0].true_labels,
        )
        for method, i in best.items()
    }


def run_threshold_experiment(
    config: ExperimentConfig, *, workers: int = 1, progress=None
) -> SweepResult:
    """Sweep every (method, stopping parameter) cell over ``config.trials``
    trials seeded from ``config.seed``."""
    trials = config.trials
    cells = threshold_cells(config)
    worker = functools.partial(_threshold_trial, config=config, cells=cells)
    per_trial = _map_trials(worker, trials, workers, progress)
    reports = tuple(
        tuple(per_trial[t][i] for t in range(trials)) for i in range(len(cells))
    )
    summaries = tuple(summarize(r) for r in reports)
    best = _pick_best(cells, summaries, config.methods)
    exemplars = _threshold_exemplars(config, cells, best)
    return SweepResult(
        config=config,
        cells=cells,
        reports=reports,
        summaries=summaries,
        best=best,
        exemplars=exemplars,
    )


@dataclass
class UncertaintyResult:
    """``curves[method]`` is five equal-length arrays: the running label
    count (int64) and, at each count, the across-trial mean and standard
    error of the error rate and of the MAE (float64), by ``metrics.mean_se``
    over the trials' arrays."""

    config: ExperimentConfig
    reports: dict  # method -> per-trial tuple of TrialReport
    summaries: dict  # method -> TrialSummary
    curves: dict  # method -> (labels, err_mean, err_se, mae_mean, mae_se)
    exemplars: dict  # method -> (CollectionOutcome of trial 0, truth)


def _uncertainty_curves(dynamics_per_trial):
    """Average the per-label error trajectories across trials, column by
    column.  Each trajectory is a ``(steps, errors, maes)`` triple of
    arrays, and every trial records the same steps: from full coverage at
    ``n_examples`` labels to the end of the run at ``min(budget,
    n_examples * n_labelers)``."""
    steps = dynamics_per_trial[0][0]
    for other, _, _ in dynamics_per_trial[1:]:
        if not np.array_equal(other, steps):
            raise ValueError("trials recorded dynamics at different label counts")
    err_mean, err_se = mean_se([errs for _, errs, _ in dynamics_per_trial])
    mae_mean, mae_se = mean_se([maes for _, _, maes in dynamics_per_trial])
    return steps, err_mean, err_se, mae_mean, mae_se


def run_uncertainty_experiment(
    config: ExperimentConfig, *, workers: int = 1, progress=None
) -> UncertaintyResult:
    """Run uncertainty sampling for each method over ``config.trials``
    trials seeded from ``config.seed``."""
    trials = config.trials
    worker = functools.partial(_uncertainty_trial, config=config)
    per_trial = _map_trials(worker, trials, workers, progress)
    outcomes, truth = per_trial[0][2]
    reports = {}
    curves = {}
    exemplars = {}
    for mi, method in enumerate(config.methods):
        reports[method] = tuple(per_trial[t][0][mi] for t in range(trials))
        curves[method] = _uncertainty_curves(
            [per_trial[t][1][mi] for t in range(trials)]
        )
        exemplars[method] = (outcomes[mi], truth)
    summaries = {m: summarize(r) for m, r in reports.items()}
    return UncertaintyResult(
        config=config,
        reports=reports,
        summaries=summaries,
        curves=curves,
        exemplars=exemplars,
    )


# ---------------------------------------------------------------------------
# result files


# summary.csv: the cell, then TrialSummary's fields after the method, each
# mean named without its "_mean", then whether the cell is its method's best
_SUMMARY_HEADER = ["method", "cell_type", "cell",
                   *(f.name.removesuffix("_mean") for f in fields(TrialSummary)[1:]), "best"]

# best_cells.csv: summary.csv columns in its own order, the cell as best_tau
_BEST_HEADER = ["method", "avg_k", "best_tau", "n_labeled", "error_rate", "mae",
                "avg_k_se", "n_labeled_se", "error_rate_se", "mae_se", "trials"]
_BEST_SOURCES = [_SUMMARY_HEADER.index("cell" if c == "best_tau" else c) for c in _BEST_HEADER]


def _summary_row(cell_type, cell_value, s: TrialSummary, best: bool):
    """A summary.csv row: TrialSummary's fields after the method are the
    columns between the cell and ``best``."""
    return [str(s.method), cell_type, cell_value, *astuple(s)[1:], int(best)]


def _write_run_json(out_dir: Path, result) -> None:
    payload = {
        "strategy": result.config.strategy,
        "master_seed": result.config.seed,
        "config": result.config.as_dict(),
    }
    write_json(out_dir / "run.json", payload)


def _write_exemplars(out_dir: Path, exemplars: dict, methods) -> None:
    """Trial-0 aggregates (one CSV, method column) and one event log per
    method; a combined log would repeat (example, labeler) pairs across
    methods and break the label-record schema."""
    outcomes = [exemplars[m][0] for m in methods]
    truth = exemplars[methods[0]][1]
    write_aggregates_csv(out_dir / "aggregates.csv", outcomes, truth)
    for method, outcome in zip(methods, outcomes):
        write_event_log(out_dir / f"events_{method}.jsonl", outcome.event_log, method)


def write_results(result, out_dir) -> None:
    """Write an experiment's result files into ``out_dir``.

    Threshold sweeps produce summary.csv (every cell), best_cells.csv (one
    row per method at its best cell), aggregates.csv and
    events_<method>.jsonl (trial 0 at each method's best cell), and
    run.json.  Uncertainty runs produce summary.csv, dynamics.csv,
    the same exemplar files, and run.json.  Every file is byte-deterministic
    for a given config and seed; worker count is deliberately not recorded.
    """
    if isinstance(result, SweepResult):
        best_idx = set(result.best.values())
        rows = [
            _summary_row(c.kind, c.value, s, i in best_idx)
            for i, (c, s) in enumerate(zip(result.cells, result.summaries))
        ]
    elif isinstance(result, UncertaintyResult):
        rows = [
            _summary_row("budget", result.config.budget, result.summaries[m], False)
            for m in result.config.methods
        ]
    else:
        raise ConfigError(f"cannot write results of type {type(result).__name__}")
    out_dir = as_path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "summary.csv", _SUMMARY_HEADER, rows)
    if isinstance(result, SweepResult):
        write_csv(
            out_dir / "best_cells.csv",
            _BEST_HEADER,
            ([rows[result.best[m]][j] for j in _BEST_SOURCES] for m in result.config.methods),
        )
    else:
        write_columns(
            out_dir / "dynamics.csv", "method,labels,error_rate,error_rate_se,mae,mae_se\n",
            ((str(m) + ",%s" * 5 + "\n", result.curves[m]) for m in result.config.methods),
        )
    _write_exemplars(out_dir, result.exemplars, result.config.methods)
    _write_run_json(out_dir, result)
