import json
import os

import pytest

import gtx.experiments
from gtx.cli import main
from gtx.io import write_label_records
from gtx.model import LabelRecord


def _crash(*args, **kwargs):
    """A trial worker whose process dies without raising."""
    os._exit(1)


@pytest.fixture
def threshold_config(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(
        json.dumps(
            {
                "strategy": "threshold",
                "trials": 2,
                "budget": 120,
                "n_examples": 60,
                "n_labelers": 5,
                "kappa": 3,
                "tau_grid": [0.9],
                "fixed_counts": [2],
                "methods": ["gtx", "mv"],
            }
        )
    )
    return p


class TestExperimentCommands:
    def test_threshold_success(self, tmp_path, threshold_config, capsys):
        out = tmp_path / "out"
        code = main(["threshold", "--config", str(threshold_config), "--out", str(out)])
        assert code == 0
        assert (out / "summary.csv").exists()
        assert (out / "run.json").exists()
        err = capsys.readouterr().err
        assert "trial 2/2" in err

    def test_pareto_uses_same_cells(self, tmp_path, threshold_config):
        out = tmp_path / "out"
        code = main(["pareto", "--config", str(threshold_config), "--out", str(out)])
        assert code == 0
        assert (out / "curve.csv").exists()

    def test_uncertainty_success(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "strategy": "uncertainty",
                    "trials": 2,
                    "n_examples": 30,
                    "n_labelers": 5,
                    "methods": ["gtx"],
                }
            )
        )
        out = tmp_path / "out"
        code = main(["uncertainty", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "dynamics.csv").exists()

    def test_crashed_worker_exits_two_with_one_line(
        self, tmp_path, threshold_config, capsys, monkeypatch
    ):
        monkeypatch.setattr(gtx.experiments, "_threshold_trial", _crash)
        code = main(["threshold", "--config", str(threshold_config),
                     "--out", str(tmp_path / "o"), "--workers", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "worker" in err and "Traceback" not in err

    def test_strategy_command_mismatch_is_config_error(self, tmp_path, threshold_config):
        code = main(
            ["uncertainty", "--config", str(threshold_config), "--out", str(tmp_path / "o")]
        )
        assert code == 1

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"strategy": "threshold", "bogus": 1}))
        code = main(["threshold", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    def test_missing_config_file_exits_two(self, tmp_path):
        code = main(
            ["threshold", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_usage_error_exits_one(self, capsys):
        assert main(["threshold"]) == 1  # --config and --out are required
        assert main(["no-such-command"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_seed_override_lands_in_run_json(self, tmp_path, threshold_config):
        out = tmp_path / "out"
        main(["threshold", "--config", str(threshold_config), "--out", str(out), "--seed", "7"])
        run = json.loads((out / "run.json").read_text())
        assert run["master_seed"] == 7
        assert run["config"]["seed"] == 7

    def test_trials_override(self, tmp_path, threshold_config):
        out = tmp_path / "out"
        main(
            ["threshold", "--config", str(threshold_config), "--out", str(out), "--trials", "3"]
        )
        run = json.loads((out / "run.json").read_text())
        assert run["config"]["trials"] == 3

    def test_oracle_flag_overrides_config(self, tmp_path, threshold_config):
        out = tmp_path / "out"
        main(
            [
                "threshold",
                "--config",
                str(threshold_config),
                "--out",
                str(out),
                "--oracle-accuracy",
            ]
        )
        run = json.loads((out / "run.json").read_text())
        assert run["config"]["oracle_accuracy"] is True

    def test_bad_seed_value_exits_one(self, tmp_path, threshold_config):
        code = main(
            [
                "threshold",
                "--config",
                str(threshold_config),
                "--out",
                str(tmp_path / "o"),
                "--seed",
                "-3",
            ]
        )
        assert code == 1


class TestAssessCommand:
    def test_estimates_from_files(self, tmp_path, capsys):
        truth = tmp_path / "truth.jsonl"
        write_label_records(
            truth, [LabelRecord(i, "expert", v) for i, v in enumerate([0, 1, 1, 0])]
        )
        labels = tmp_path / "labels.jsonl"
        recs = [LabelRecord(i, "p", v) for i, v in enumerate([0, 1, 1, 1])] + [
            LabelRecord(i, "q", v) for i, v in enumerate([1, 0, 0, 1])
        ]
        write_label_records(labels, recs)
        out = tmp_path / "out"
        code = main(
            ["assess", "--labels", str(labels), "--truth", str(truth), "--out", str(out)]
        )
        assert code == 0
        lines = (out / "estimates.csv").read_text().splitlines()
        assert lines[0] == "labeler_id,n_assessed,accuracy"
        assert lines[1] == "p,4,0.75"
        assert lines[2] == "q,4,0.01"  # all four wrong, clamped at the floor

    def test_incomplete_coverage_exits_two(self, tmp_path):
        truth = tmp_path / "truth.jsonl"
        write_label_records(
            truth, [LabelRecord(i, "expert", 1) for i in range(3)]
        )
        labels = tmp_path / "labels.jsonl"
        write_label_records(labels, [LabelRecord(0, "p", 1)])
        code = main(
            [
                "assess",
                "--labels",
                str(labels),
                "--truth",
                str(truth),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 2

    def test_malformed_labels_exit_two(self, tmp_path):
        truth = tmp_path / "truth.jsonl"
        write_label_records(truth, [LabelRecord(0, "expert", 1)])
        labels = tmp_path / "labels.jsonl"
        labels.write_text("not json\n")
        code = main(
            [
                "assess",
                "--labels",
                str(labels),
                "--truth",
                str(truth),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "field,bad", [("example_id", [1]), ("example_id", True), ("labeler_id", {"a": 1})]
    )
    def test_non_scalar_id_exits_two_with_one_line(self, tmp_path, capsys, field, bad):
        truth = tmp_path / "truth.jsonl"
        write_label_records(truth, [LabelRecord(1, "expert", 1)])
        labels = tmp_path / "labels.jsonl"
        row = {"example_id": 1, "labeler_id": "p", "step": 1, "value": 1}
        row[field] = bad
        labels.write_text(json.dumps(row) + "\n")
        code = main(
            ["assess", "--labels", str(labels), "--truth", str(truth), "--out", str(tmp_path / "o")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert field in err and "Traceback" not in err
