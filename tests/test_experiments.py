import csv
import dataclasses
import tempfile
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gtx.experiments
from gtx.aggregators import Method
from gtx.errors import ConfigError
from gtx.experiments import (
    _SUMMARY_HEADER,
    Cell,
    _uncertainty_curves,
    build_trial_env,
    collection_rng,
    environment_rng,
    run_threshold_experiment,
    run_uncertainty_experiment,
    threshold_cells,
    write_results,
)
from gtx.io import ExperimentConfig, config_from_dict, read_label_records
from gtx.metrics import TrialReport, TrialSummary, summarize
from gtx.strategies import ThresholdConfig, run_uncertainty_sampling

import oracles
from support import finals


def tiny_threshold_config(**extra):
    raw = {
        "strategy": "threshold",
        "trials": 4,
        "budget": 240,
        "n_examples": 80,
        "n_labelers": 6,
        "kappa": 3,
        "tau_grid": [0.9, 0.97],
        "fixed_counts": [1, 2],
    }
    raw.update(extra)
    return config_from_dict(raw)


def tiny_uncertainty_config(**extra):
    raw = {
        "strategy": "uncertainty",
        "trials": 3,
        "n_examples": 40,
        "budget": 120,
        "n_labelers": 5,
    }
    raw.update(extra)
    return config_from_dict(raw)


class TestSeeding:
    def test_environment_stream_is_per_trial(self):
        a = environment_rng(0, 0).random(4)
        b = environment_rng(0, 1).random(4)
        c = environment_rng(0, 0).random(4)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_collection_streams_separate_methods_and_cells(self):
        draws = {
            (m, code): collection_rng(0, 0, m, code).random()
            for m in Method
            for code in (9700, 9900)
        }
        assert len(set(draws.values())) == len(draws)

    def test_same_world_across_methods_within_a_trial(self):
        cfg = tiny_threshold_config()
        ds1, labs1, est1 = build_trial_env(cfg, 0, 2)
        ds2, labs2, est2 = build_trial_env(cfg, 0, 2)
        assert np.array_equal(ds1.true_labels, ds2.true_labels)
        assert labs1 == labs2
        assert est1 == est2

    def test_oracle_mode_uses_true_accuracies(self):
        cfg = tiny_threshold_config(oracle_accuracy=True)
        _, labelers, estimates = build_trial_env(cfg, 0, 0)
        for lab in labelers:
            assert estimates[lab.labeler_id].accuracy == pytest.approx(
                min(max(lab.accuracy, 0.01), 0.99)
            )


class TestCells:
    def test_grid_layout(self):
        cfg = tiny_threshold_config()
        cells = threshold_cells(cfg)
        by_method = {}
        for c in cells:
            by_method.setdefault(c.method, []).append(c.value)
        assert by_method[Method.MV] == [1, 2]
        assert by_method[Method.WMV] == [1, 2]
        assert by_method[Method.SV] == [0.9, 0.97]
        assert by_method[Method.GTX] == [0.9, 0.97]

    def test_cell_codes(self):
        assert Cell(Method.GTX, ThresholdConfig(tau=0.97, kappa=5)).code == 9700
        assert Cell(Method.MV, ThresholdConfig(tau=None, kappa=5, fixed_count=3)).code == 3


class TestThresholdExperiment:
    def test_shapes_and_grouping(self):
        cfg = tiny_threshold_config()
        res = run_threshold_experiment(cfg)
        assert len(res.cells) == 8
        assert all(len(r) == cfg.trials for r in res.reports)
        assert len(res.summaries) == len(res.cells)
        for method in cfg.methods:
            assert method in res.best
            assert res.cells[res.best[method]].method == method

    def test_earlier_trials_stable_as_count_grows(self):
        cfg = tiny_threshold_config()
        small = run_threshold_experiment(dataclasses.replace(cfg, trials=2))
        big = run_threshold_experiment(dataclasses.replace(cfg, trials=4))
        for i in range(len(small.cells)):
            assert big.reports[i][:2] == small.reports[i]

    def test_workers_do_not_change_results(self):
        cfg = tiny_threshold_config()
        seq = run_threshold_experiment(cfg, workers=1)
        par = run_threshold_experiment(cfg, workers=2)
        assert seq.reports == par.reports
        assert seq.best == par.best

    @pytest.mark.parametrize("trials,asked", [(1, []), (3, [3]), (4, [4])])
    def test_pool_is_no_larger_than_its_chunks(self, trials, asked):
        # a pool starts all of its processes at once, so 64 workers for a
        # few trials would fork 64; this pool records what it is asked for
        # and starts at most 2
        seen = []

        class Pool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                seen.append(max_workers)
                super().__init__(max_workers=min(max_workers, 2))

        cfg = tiny_threshold_config(trials=trials)
        # _map_trials imports the pool class from its module when it needs one
        with mock.patch("concurrent.futures.process.ProcessPoolExecutor", Pool):
            par = run_threshold_experiment(cfg, workers=64)
        assert seen == asked
        assert par.reports == run_threshold_experiment(cfg, workers=1).reports

    def test_parallel_progress_comes_before_memory_grows_with_trials(self):
        # a million trials: submitting them all before the first result
        # would allocate about 90 MiB of trial indices
        cfg = tiny_threshold_config(trials=10**6, budget=30, n_examples=20)
        lines = []

        class Enough(Exception):
            pass

        def progress(line):
            lines.append(line)
            if len(lines) == 3:
                raise Enough

        tracemalloc.start()
        try:
            with pytest.raises(Enough):
                run_threshold_experiment(cfg, workers=2, progress=progress)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lines == [f"trial {t}/1000000" for t in (1, 2, 3)]
        assert peak < 2**20

    def test_best_cell_minimizes_mean_error(self):
        cfg = tiny_threshold_config()
        res = run_threshold_experiment(cfg)
        for method, idx in res.best.items():
            best_err = res.summaries[idx].error_rate_mean
            for i, c in enumerate(res.cells):
                if c.method == method:
                    assert best_err <= res.summaries[i].error_rate_mean

    def test_exemplars_carry_event_logs(self):
        cfg = tiny_threshold_config()
        res = run_threshold_experiment(cfg)
        for method, (outcome, truth) in res.exemplars.items():
            assert outcome.method == method
            assert outcome.event_log
            assert len(truth) == cfg.n_examples


def _bits(curve):
    """A curve's columns as raw bytes, so that equality is bit for bit."""
    return [(c.dtype, c.tobytes()) for c in curve]


class TestUncertaintyExperiment:
    def test_reports_and_curves(self):
        cfg = tiny_uncertainty_config()
        res = run_uncertainty_experiment(cfg)
        for method in cfg.methods:
            assert len(res.reports[method]) == cfg.trials
            labels = res.curves[method][0]
            assert labels[0] == cfg.n_examples
            assert labels[-1] == cfg.budget
            assert len(labels) == cfg.budget - cfg.n_examples + 1
            assert all(len(col) == len(labels) for col in res.curves[method])

    def test_workers_do_not_change_results(self):
        cfg = tiny_uncertainty_config()
        seq = run_uncertainty_experiment(cfg, workers=1)
        par = run_uncertainty_experiment(cfg, workers=2)
        assert seq.reports == par.reports
        assert seq.curves.keys() == par.curves.keys()
        for method in cfg.methods:
            assert _bits(seq.curves[method]) == _bits(par.curves[method])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_exemplars_are_trial_zero_with_events(self, workers):
        cfg = tiny_uncertainty_config()
        res = run_uncertainty_experiment(cfg, workers=workers)
        dataset, labelers, estimates = build_trial_env(cfg, cfg.seed, 0)
        assert list(res.exemplars) == list(cfg.methods)
        for method, (outcome, truth) in res.exemplars.items():
            fresh = run_uncertainty_sampling(
                dataset, labelers, estimates, cfg.budget, method,
                collection_rng(cfg.seed, 0, method, 0), record_events=True,
            )
            assert outcome.event_log and outcome.event_log == fresh.event_log
            assert finals(outcome) == finals(fresh)
            assert outcome.dynamics is None
            assert np.array_equal(truth, dataset.true_labels)

    def test_zero_trials_is_a_config_error(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(tiny_uncertainty_config(), trials=0)


_RUNNERS = {"threshold": run_threshold_experiment, "uncertainty": run_uncertainty_experiment}
# the property's base configs: every size as small as a run allows
_BASES = {
    "threshold": tiny_threshold_config(
        trials=2, budget=30, n_examples=20, n_labelers=4, tau_grid=[0.9],
        assessment_size=5,
    ),
    "uncertainty": tiny_uncertainty_config(
        trials=2, budget=30, n_examples=10, n_labelers=4, kappa=3, assessment_size=5,
    ),
}
_items = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4), st.floats(), st.text(max_size=2),
    st.sampled_from(list(Method)),
)
_junk = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 0), st.floats(), st.text(max_size=3),
    st.lists(_items, max_size=3), st.lists(_items, max_size=3).map(tuple),
)
# values of each field's own form, most of them valid
_near = {
    "strategy": st.sampled_from(list(_RUNNERS)),
    "methods": st.lists(st.sampled_from(list(Method)), min_size=1, max_size=4, unique=True),
    "tau_grid": st.lists(st.floats(0.5, 1.0), min_size=1, max_size=3),
    "fixed_counts": st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True),
    "accuracy_interval": st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
    "oracle_accuracy": st.booleans(),
}


def _changes(base):
    """One or two fields of ``base`` set to any value: wrong types and
    items, zeros and negatives, and sizes up to the base's own."""
    def values(name):
        own = getattr(base, name)
        near = _near.get(name, st.integers(0, own) if type(own) is int else _junk)
        return st.booleans().flatmap(lambda junk: _junk if junk else near)

    names = [f.name for f in dataclasses.fields(base)]
    return st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True).flatmap(
        lambda keys: st.fixed_dictionaries({k: values(k) for k in keys}))


class TestConfigGate:
    def test_replace_with_zero_trials_is_a_config_error(self):
        for cfg, run in ((tiny_uncertainty_config(), run_uncertainty_experiment),
                         (tiny_threshold_config(), run_threshold_experiment)):
            with pytest.raises(ConfigError, match="trials must be >= 1, got 0"):
                run(dataclasses.replace(cfg, trials=0))

    def test_no_methods_is_a_config_error(self):
        with pytest.raises(ConfigError, match=r"methods must be a non-empty list, got \(\)"):
            run_threshold_experiment(dataclasses.replace(tiny_threshold_config(), methods=()))

    def test_built_directly_is_validated(self):
        fields = dataclasses.asdict(tiny_threshold_config())
        with pytest.raises(ConfigError, match="duplicate method gtx"):
            ExperimentConfig(**{**fields, "methods": ("gtx", Method.GTX)})

    @given(st.sampled_from(list(_BASES.values())), st.data())
    @settings(max_examples=100, deadline=None)
    def test_replace_is_a_config_error_or_a_complete_run(self, base, data):
        changes = data.draw(_changes(base))
        try:
            cfg = dataclasses.replace(base, **changes)
        except ConfigError as exc:
            assert "\n" not in str(exc)
            return
        result = _RUNNERS[cfg.strategy](cfg)
        assert result.config is cfg
        with tempfile.TemporaryDirectory() as out:
            write_results(result, out)


# Four per-trial values whose squared deviations from their mean differ in
# the last bit between x ** 2 (libm pow) and x * x.
_POW_SENSITIVE = [0.33, 0.32, 0.84, 0.24666666666666667]


class TestUncertaintyCurves:
    @pytest.mark.parametrize("trials", range(1, 7))
    def test_columns_equal_mean_se_bit_for_bit(self, trials):
        rng = np.random.default_rng(trials)
        steps = np.arange(50, 850, dtype=np.int64)
        dynamics = [(steps, rng.random(800), rng.random(800) / 3) for _ in range(trials)]
        curve = _uncertainty_curves(dynamics)
        err = [oracles.mean_se(col) for col in zip(*(e.tolist() for _, e, _ in dynamics))]
        mae = [oracles.mean_se(col) for col in zip(*(m.tolist() for _, _, m in dynamics))]
        expected = (steps, *(np.array(c) for c in zip(*err)), *(np.array(c) for c in zip(*mae)))
        assert _bits(curve) == _bits(expected)

    def test_pow_sensitive_values(self):
        mean = sum(_POW_SENSITIVE) / 4
        deviations = [v - mean for v in _POW_SENSITIVE]
        assert [d ** 2 for d in deviations] != [d * d for d in deviations]
        dynamics = [(np.array([7]), np.array([v]), np.array([v])) for v in _POW_SENSITIVE]
        _, err_mean, err_se, _, _ = _uncertainty_curves(dynamics)
        assert (err_mean[0], err_se[0]) == oracles.mean_se(_POW_SENSITIVE)


# per-trial figures: any rate, or one of the values that tell x ** 2 from x * x
_rates = st.sampled_from(_POW_SENSITIVE) | st.floats(0.0, 1.0)


@st.composite
def _trial_reports(draw):
    """A report of one trial; n_labeled 0 leaves avg_k, error rate and MAE
    None, the rows that trial means skip."""
    n = draw(st.integers(0, 3) | st.integers(1, 20_000))
    if n == 0:
        return TrialReport(Method.GTX, 0, 0, None, None, None)
    avg_k = draw(st.floats(1.0, 8.0) | st.sampled_from([1.0, 2.5, 3.0]))
    return TrialReport(Method.GTX, n, round(avg_k * n), avg_k, draw(_rates), draw(_rates))


def _same(got, expected):
    return [repr(x) for x in got] == [repr(x) for x in expected]


class TestTrialMeansAgainstOracle:
    """``summarize`` and ``_uncertainty_curves`` average trials through
    ``metrics.mean_se``; both must equal the scalar loop of the oracle."""

    @given(st.lists(_trial_reports(), min_size=1, max_size=8))
    @example([TrialReport(Method.GTX, 3, 6, 2.0, v, v) for v in _POW_SENSITIVE])
    @settings(max_examples=200, deadline=None)
    def test_summary_figures(self, reports):
        s = summarize(reports)
        expected = [oracles.mean_se([getattr(r, f) for r in reports])
                    for f in ("avg_k", "n_labeled", "error_rate", "mae")]
        assert s.trials == len(reports)
        assert _same([s.avg_k_mean, s.avg_k_se, s.n_labeled_mean, s.n_labeled_se,
                      s.error_rate_mean, s.error_rate_se, s.mae_mean, s.mae_se],
                     [x for pair in expected for x in pair])

    @given(st.lists(st.lists(st.tuples(_rates, _rates), min_size=4, max_size=4),
                    min_size=1, max_size=8))
    @example([[(v, v)] * 4 for v in _POW_SENSITIVE])
    @settings(max_examples=200, deadline=None)
    def test_curve_columns(self, trials):
        steps = np.arange(10, 14)
        dynamics = [(steps, np.array([e for e, _ in t]), np.array([m for _, m in t]))
                    for t in trials]
        _, err_mean, err_se, mae_mean, mae_se = _uncertainty_curves(dynamics)
        for j in range(len(steps)):
            err = oracles.mean_se([t[j][0] for t in trials])
            mae = oracles.mean_se([t[j][1] for t in trials])
            assert _same([err_mean[j].item(), err_se[j].item(),
                          mae_mean[j].item(), mae_se[j].item()], [*err, *mae])


class TestWriteResults:
    def test_threshold_file_set(self, tmp_path):
        cfg = tiny_threshold_config()
        res = run_threshold_experiment(cfg)
        write_results(res, tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "aggregates.csv",
            "best_cells.csv",
            "events_gtx.jsonl",
            "events_mv.jsonl",
            "events_sv.jsonl",
            "events_wmv.jsonl",
            "run.json",
            "summary.csv",
        ]
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(summary) == 1 + len(res.cells)
        best = (tmp_path / "best_cells.csv").read_text().splitlines()
        assert best[0].startswith("method,avg_k,best_tau,n_labeled,error_rate,mae")
        assert len(best) == 1 + len(cfg.methods)

    def test_event_files_are_valid_label_records(self, tmp_path):
        cfg = tiny_threshold_config()
        res = run_threshold_experiment(cfg)
        write_results(res, tmp_path)
        recs, steps = read_label_records(tmp_path / "events_gtx.jsonl")
        assert steps == sorted(steps)
        assert len(recs) == res.exemplars[Method.GTX][0].ledger.spent

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = tiny_threshold_config()
        one, two = tmp_path / "one", tmp_path / "two"
        write_results(run_threshold_experiment(cfg), one)
        write_results(run_threshold_experiment(cfg, workers=2), two)
        for p in sorted(one.iterdir()):
            assert p.read_bytes() == (two / p.name).read_bytes()

    def test_uncertainty_file_set(self, tmp_path):
        cfg = tiny_uncertainty_config(methods=["gtx", "mv"])
        res = run_uncertainty_experiment(cfg)
        write_results(res, tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert "dynamics.csv" in names
        assert "events_gtx.jsonl" in names
        dyn = (tmp_path / "dynamics.csv").read_text().splitlines()
        # one row per method per recorded step
        assert len(dyn) == 1 + 2 * (cfg.budget - cfg.n_examples + 1)

    def test_zero_budget_writes_headers_only_aggregates(self, tmp_path):
        cfg = tiny_threshold_config(budget=0, n_examples=10)
        res = run_threshold_experiment(dataclasses.replace(cfg, trials=1))
        write_results(res, tmp_path)
        agg = (tmp_path / "aggregates.csv").read_text().splitlines()
        assert len(agg) == 1
        for method in res.config.methods:  # each exemplar holds an empty EventLog
            assert (tmp_path / f"events_{method}.jsonl").read_bytes() == b""


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


class TestOneSummaryTable:
    """summary.csv's rows are TrialSummary's fields, and best_cells.csv is
    the best rows of summary.csv, projected."""

    def test_summary_columns_name_the_summary_fields(self):
        # the header is derived from TrialSummary's fields; a renamed or
        # reordered field changes summary.csv, so the file's header is pinned
        assert [f.name for f in dataclasses.fields(TrialSummary)][0] == "method"
        assert _SUMMARY_HEADER == [
            "method", "cell_type", "cell", "trials", "avg_k", "avg_k_se", "n_labeled",
            "n_labeled_se", "error_rate", "error_rate_se", "mae", "mae_se", "best"]

    @pytest.mark.parametrize("extra", [{}, {"methods": ["sv"]}, {"budget": 0, "trials": 1}],
                             ids=["four-methods", "one-method", "budget-0"])
    def test_best_cells_are_the_best_summary_rows(self, tmp_path, extra):
        cfg = tiny_threshold_config(**extra)
        write_results(run_threshold_experiment(cfg), tmp_path)
        summary = _read_csv(tmp_path / "summary.csv")
        best = _read_csv(tmp_path / "best_cells.csv")
        head = summary[0]
        flagged = [row for row in summary[1:] if row[head.index("best")] == "1"]
        assert sorted(row[0] for row in flagged) == sorted(str(m) for m in cfg.methods)
        best_rows = {row[0]: row for row in flagged}
        sources = [head.index("cell" if c == "best_tau" else c) for c in best[0]]
        assert best[1:] == [[best_rows[str(m)][j] for j in sources] for m in cfg.methods]
        if not cfg.budget:  # no example labeled: every trial mean is an empty cell
            assert {row[best[0].index("avg_k")] for row in best[1:]} == {""}


class TestBestCellTieBreaks:
    """best_cells.csv holds each method's cell of lowest mean error; an error
    tie goes to fewer labels, then to the smaller cell code."""

    def test_fewer_labels_then_the_smaller_code(self, tmp_path):
        cfg = tiny_threshold_config(methods=["mv", "sv"], trials=1, fixed_counts=[1, 2, 3],
                                    tau_grid=[0.9, 0.97, 0.99])
        # (error rate, avg_k) of each cell in grid order: mv's counts 1..3, then
        # sv's taus; mv's count 1 and sv's tau 0.99 lose only a tie-break
        means = [(0.1, 3.0), (0.1, 2.0), (0.1, 2.0), (0.2, 1.0), (0.1, 4.0), (0.1, 4.0)]
        summaries = [TrialSummary(c.method, 1, k, 0.0, 80.0, 0.0, err, 0.0, 0.2, 0.0)
                     for c, (err, k) in zip(threshold_cells(cfg), means)]
        with mock.patch.object(gtx.experiments, "summarize", side_effect=summaries):
            write_results(run_threshold_experiment(cfg), tmp_path)
        best = _read_csv(tmp_path / "best_cells.csv")
        columns = [best[0].index(c) for c in ("method", "best_tau", "avg_k", "error_rate")]
        assert [[row[j] for j in columns] for row in best[1:]] == [
            ["mv", "2", "2.0", "0.1"], ["sv", "0.97", "4.0", "0.1"]]
