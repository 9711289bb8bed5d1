import tracemalloc

import numpy as np
import pytest

from gtx.aggregators import Method
from gtx.errors import ConfigError
from gtx.experiments import (
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
from gtx.io import config_from_dict, read_label_records
from gtx.metrics import mean_se
from gtx.strategies import run_uncertainty_sampling


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
        assert Cell(method=Method.GTX, tau=0.97).code == 9700
        assert Cell(method=Method.MV, fixed_count=3).code == 3

    def test_cell_needs_exactly_one_parameter(self):
        with pytest.raises(ValueError):
            Cell(method=Method.GTX)
        with pytest.raises(ValueError):
            Cell(method=Method.GTX, tau=0.9, fixed_count=2)


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
        small = run_threshold_experiment(cfg, trials=2)
        big = run_threshold_experiment(cfg, trials=4)
        for i in range(len(small.cells)):
            assert big.reports[i][:2] == small.reports[i]

    def test_workers_do_not_change_results(self):
        cfg = tiny_threshold_config()
        seq = run_threshold_experiment(cfg, workers=1)
        par = run_threshold_experiment(cfg, workers=2)
        assert seq.reports == par.reports
        assert seq.best == par.best

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
            assert res.summaries[method].strategy == "uncertainty"

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
            assert outcome.aggregates == fresh.aggregates
            assert outcome.dynamics is None
            assert np.array_equal(truth, dataset.true_labels)

    def test_zero_trials_is_a_config_error(self):
        with pytest.raises(ConfigError):
            run_uncertainty_experiment(tiny_uncertainty_config(), trials=0)


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
        err = [mean_se(col) for col in zip(*(e.tolist() for _, e, _ in dynamics))]
        mae = [mean_se(col) for col in zip(*(m.tolist() for _, _, m in dynamics))]
        expected = (steps, *(np.array(c) for c in zip(*err)), *(np.array(c) for c in zip(*mae)))
        assert _bits(curve) == _bits(expected)

    def test_pow_sensitive_values(self):
        mean = sum(_POW_SENSITIVE) / 4
        deviations = [v - mean for v in _POW_SENSITIVE]
        assert [d ** 2 for d in deviations] != [d * d for d in deviations]
        dynamics = [(np.array([7]), np.array([v]), np.array([v])) for v in _POW_SENSITIVE]
        _, err_mean, err_se, _, _ = _uncertainty_curves(dynamics)
        assert (err_mean[0], err_se[0]) == mean_se(_POW_SENSITIVE)


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
        res = run_threshold_experiment(cfg, trials=1)
        write_results(res, tmp_path)
        agg = (tmp_path / "aggregates.csv").read_text().splitlines()
        assert len(agg) == 1
