import contextlib
import csv
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gtx
import gtx.cli
import gtx.experiments
from gtx.cli import main
from gtx.errors import is_int
from gtx.io import write_csv, write_label_records
from gtx.model import LabelRecord
from gtx.simulation import MAX_SIZE
from oracles import read_label_records as spec_read_label_records
from support import fuzz_configs, json_lines, json_values

NOT_UTF8 = b"\xff\xfe{}"  # a UTF-16 byte-order mark


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

    def test_pareto_command_is_gone(self, tmp_path, threshold_config):
        # `threshold` is the one sweep command; `pareto` was its alias
        out = tmp_path / "out"
        code = main(["pareto", "--config", str(threshold_config), "--out", str(out)])
        assert code == 1
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "methods,needle",
        [({"method": "gtx"}, "unknown config keys: method"),
         ({"methods": "gtx"}, "methods must be a non-empty list, got 'gtx'")],
    )
    def test_methods_not_given_as_a_list_exit_one_with_one_line(
        self, tmp_path, capsys, methods, needle
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"strategy": "threshold", **methods}))
        code = main(["threshold", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: ") and needle in err
        assert not (tmp_path / "o").exists()

    def test_repeated_methods_exit_one_with_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "strategy": "threshold", "methods": ["gtx", "gtx"], "trials": 1, "budget": 60,
            "n_examples": 30, "n_labelers": 4, "kappa": 3, "tau_grid": [0.9],
            "fixed_counts": [1],
        }))
        code = main(["threshold", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: invalid config: duplicate method gtx\n"
        assert not (tmp_path / "o").exists()

    def test_missing_config_file_exits_two(self, tmp_path):
        code = main(
            ["threshold", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_non_utf8_config_exits_one_naming_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(NOT_UTF8)
        code = main(["threshold", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith(f"error: {cfg}: not valid JSON: ")
        assert "utf-8" in err

    def test_an_int_too_long_to_read_exits_one_naming_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"  # past Python's 4300-digit limit, a plain ValueError
        cfg.write_text('{"strategy": "threshold", "budget": %s}' % ("1" * 5000))
        code = main(["threshold", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith(f"error: {cfg}: not valid JSON: ")

    def test_a_foreign_exception_is_a_traceback(self, tmp_path, threshold_config, monkeypatch):
        # only the package's own errors (and OSError, MemoryError) are input
        # problems; anything else marks a bug and propagates out of main
        def buggy(*args, **kwargs):
            raise ValueError("a bug")

        monkeypatch.setitem(gtx.cli._RUNNERS, "threshold", buggy)
        with pytest.raises(ValueError, match="a bug"):
            main(["threshold", "--config", str(threshold_config), "--out", str(tmp_path / "o")])

    def test_usage_error_exits_one(self, capsys):
        assert main(["threshold"]) == 1  # --config and --out are required
        assert main(["no-such-command"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_bad_seed_value_exits_one(self, tmp_path, threshold_config, capsys):
        config = json.loads(threshold_config.read_text())
        threshold_config.write_text(json.dumps(dict(config, seed=-3)))
        code = main(["threshold", "--config", str(threshold_config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


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

    @pytest.mark.parametrize("bad", ["true", "1.0", "0.0"])
    def test_non_int_value_exits_two_with_one_line(self, tmp_path, capsys, bad):
        truth = tmp_path / "truth.jsonl"
        write_label_records(truth, [LabelRecord(1, "expert", 1)])
        labels = tmp_path / "labels.jsonl"
        labels.write_text(f'{{"example_id": 1, "labeler_id": "p", "step": 1, "value": {bad}}}\n')
        code = main(
            ["assess", "--labels", str(labels), "--truth", str(truth), "--out", str(tmp_path / "o")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "labels.jsonl:1:" in err and "value" in err

    @pytest.mark.parametrize("kind", ["labels", "truth"])
    def test_non_utf8_file_exits_two_naming_it(self, tmp_path, capsys, kind):
        paths = {k: tmp_path / f"{k}.jsonl" for k in ("labels", "truth")}
        write_label_records(paths["labels"], [LabelRecord(0, "p", 1)])
        write_label_records(paths["truth"], [LabelRecord(0, "expert", 1)])
        paths[kind].write_bytes(NOT_UTF8)
        code = main(["assess", "--labels", str(paths["labels"]), "--truth", str(paths["truth"]),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith(f"error: {paths[kind]}: invalid UTF-8: ")

    @pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank"])
    def test_empty_truth_exits_two_naming_the_file(self, tmp_path, capsys, text):
        truth = tmp_path / "truth.jsonl"
        truth.write_text(text)
        labels = tmp_path / "labels.jsonl"
        write_label_records(labels, [LabelRecord(4, "p", 1)])
        code = main(["assess", "--labels", str(labels), "--truth", str(truth),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {truth}: assessment set has no items\n"

    def test_duplicate_truth_exits_two_naming_the_file(self, tmp_path, capsys):
        truth = tmp_path / "truth.jsonl"
        write_label_records(truth, [LabelRecord(4, "e1", 1), LabelRecord(4, "e2", 0)])
        labels = tmp_path / "labels.jsonl"
        write_label_records(labels, [LabelRecord(4, "p", 1)])
        code = main(["assess", "--labels", str(labels), "--truth", str(truth),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {truth}: duplicate truth for example 4\n"

    def test_labeler_id_with_no_utf8_form_exits_two_writing_nothing(self, tmp_path, capsys):
        truth = tmp_path / "truth.jsonl"
        write_label_records(truth, [LabelRecord(0, "expert", 1)])
        labels = tmp_path / "labels.jsonl"  # JSON escapes a lone surrogate
        labels.write_text('{"example_id": 0, "labeler_id": "\\ud800", "step": 1, "value": 1}')
        out = tmp_path / "o"
        code = main(["assess", "--labels", str(labels), "--truth", str(truth), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: labeler id '\\ud800' is not valid text\n"
        assert not out.exists()

    def test_labeler_ids_of_equal_text_exit_two_with_one_line(self, tmp_path, capsys):
        truth = tmp_path / "truth.jsonl"
        write_label_records(truth, [LabelRecord(0, "expert", 1)])
        labels = tmp_path / "labels.jsonl"
        write_label_records(labels, [LabelRecord(0, 1, 1), LabelRecord(0, "1", 0)])
        out = tmp_path / "o"
        code = main(["assess", "--labels", str(labels), "--truth", str(truth), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "1 and '1'" in err
        assert not (out / "estimates.csv").exists()

    def test_assess_builds_no_records(self, tmp_path):
        # 3,000 labels over three read blocks, a "{" in one line's method (so
        # its block is read line by line), and 1,000 labels on truth items
        rng = random.Random(5)
        rows = [{"example_id": i // 5, "labeler_id": f"w{i % 5}", "step": i + 1,
                 "value": rng.randrange(2)} for i in range(3000)]
        rows[1500]["method"] = "{"
        labels = tmp_path / "labels.jsonl"
        labels.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        truth = tmp_path / "truth.jsonl"
        write_label_records(truth, [LabelRecord(i, "expert", rng.randrange(2)) for i in range(200)])
        refuse = mock.Mock(side_effect=AssertionError("assess built records"))
        with mock.patch("gtx.io.read_label_records", refuse), \
                mock.patch("gtx.cli.read_label_records", refuse, create=True):
            code = main(["assess", "--labels", str(labels), "--truth", str(truth),
                         "--out", str(tmp_path / "out")])
        assert code == 0 and not refuse.called
        # the estimates of the spec reader's records
        aset = gtx.AssessmentSet(*zip(*((r.example_id, r.value)
                                        for r in spec_read_label_records(truth)[0])))
        by_labeler = {}
        for rec in spec_read_label_records(labels)[0]:
            if rec.example_id in aset.example_ids:
                by_labeler.setdefault(rec.labeler_id, {})[rec.example_id] = rec.value
        estimates = sorted((gtx.estimate_accuracy(j, r, aset) for j, r in by_labeler.items()),
                           key=lambda e: str(e.labeler_id))
        want = tmp_path / "want.csv"
        write_csv(want, ["labeler_id", "n_assessed", "accuracy"],
                  [[e.labeler_id, e.n_assessed, e.accuracy] for e in estimates])
        assert (tmp_path / "out" / "estimates.csv").read_bytes() == want.read_bytes()
        assert len(estimates) == 5 and {e.n_assessed for e in estimates} == {200}


def _read_back(path):
    """The rows ``csv.reader`` reads from ``path``, each of the header's width."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert {len(row) for row in rows} == {len(rows[0])}
    return rows


class TestEveryCsvReadsBack:
    """``csv.reader`` reads back every row of every CSV that gtx writes."""

    @pytest.mark.parametrize("budget", [0, 90])
    @pytest.mark.parametrize("command", ["threshold", "uncertainty"])
    def test_experiment_files(self, tmp_path, command, budget):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"strategy": command, "trials": 2, "budget": budget,
                                   "n_examples": 30, "n_labelers": 5, "kappa": 3,
                                   "tau_grid": [0.9], "fixed_counts": [2]}))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        names = ["summary.csv", "aggregates.csv"]
        names.append("best_cells.csv" if command == "threshold" else "dynamics.csv")
        files = {name: _read_back(out / name) for name in names}
        for name, rows in files.items():
            text = (out / name).read_text(encoding="utf-8")
            assert rows == [line.split(",") for line in text.splitlines()]
            for row in rows[1:]:  # the rule's name (and a cell type), then numbers
                assert row[0] in ("mv", "wmv", "sv", "gtx")
                numbers = row[2 if name == "summary.csv" else 1:]
                assert all(math.isfinite(float(cell)) for cell in numbers if cell)
        summary = files["summary.csv"]
        if not budget:  # no example labeled: the None cells of a trial mean read back empty
            avg_k = summary[0].index("avg_k")
            assert {row[avg_k] for row in summary[1:]} == {""}

    @given(st.lists(st.text(st.characters(blacklist_categories=["Cs"]), max_size=5)
                    | st.sampled_from(['a,b', 'c\nd', 'q"x', 'e\rf', '"', '']),
                    min_size=1, max_size=4, unique=True),
           st.lists(st.integers(0, 1), min_size=1, max_size=4))
    @example(["a,b", "c\nd", 'q"x'], [1, 0])
    @settings(deadline=None)
    def test_assess_estimates(self, tmp_path_factory, ids, truth):
        base = tmp_path_factory.getbasetemp()
        write_label_records(base / "rb_truth.jsonl",
                            [LabelRecord(i, "expert", v) for i, v in enumerate(truth)])
        records = [LabelRecord(i, lab, (i + j) % 2) for j, lab in enumerate(ids)
                   for i in range(len(truth))]
        write_label_records(base / "rb_labels.jsonl", records)
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(["assess", "--labels", str(base / "rb_labels.jsonl"),
                         "--truth", str(base / "rb_truth.jsonl"), "--out", str(base / "rb_out")])
        assert code == 0
        aset = gtx.AssessmentSet(tuple(range(len(truth))), tuple(truth))
        estimates = [gtx.estimate_accuracy(lab, {r.example_id: r.value for r in records
                                                 if r.labeler_id == lab}, aset)
                     for lab in sorted(ids)]
        assert _read_back(base / "rb_out" / "estimates.csv") == [
            ["labeler_id", "n_assessed", "accuracy"],
            *([e.labeler_id, str(e.n_assessed), repr(e.accuracy)] for e in estimates)]


_MEMORY_CAP = 1 << 30  # address space of the capped CLI process, in bytes


def _capped_cli(tmp_path, config):
    """Run ``gtx threshold`` on ``config`` in a child process whose address
    space is capped, so an oversized allocation fails there at once instead
    of taking memory from the test run."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(Path(gtx.__file__).parents[1]),
                                          os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "gtx.cli", "threshold", "--config", str(cfg),
         "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (_MEMORY_CAP,) * 2),
    )


class TestOversizedConfigs:
    def test_huge_kappa_exits_one_with_one_line(self, tmp_path):
        run = _capped_cli(tmp_path, {"strategy": "threshold", "kappa": 10**12})
        assert run.returncode == 1
        assert run.stderr.count("\n") == 1 and run.stderr.startswith("error: ")
        assert "kappa (1000000000000) exceeds n_labelers (10)" in run.stderr

    def test_run_too_large_for_memory_exits_two_with_one_line(self, tmp_path):
        run = _capped_cli(tmp_path, {"strategy": "threshold", "n_examples": 10**12})
        assert run.returncode == 2
        assert run.stderr.count("\n") == 1 and run.stderr.startswith("error: ")
        assert "Unable to allocate" in run.stderr and "Traceback" not in run.stderr

    @pytest.mark.parametrize("key", ["n_examples", "n_labelers", "assessment_size"])
    @pytest.mark.parametrize("size", [10**19, 2**62, MAX_SIZE + 1])
    def test_size_no_array_can_hold_exits_one_naming_it(self, tmp_path, capsys, key, size):
        # numpy refuses such a length with a plain ValueError before allocating
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"strategy": "threshold", key: size, "budget": 10, "trials": 1}))
        code = main(["threshold", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and f"{key} must be <= {MAX_SIZE}, got {size}" in err

    def test_largest_size_is_a_memory_error(self, tmp_path):
        run = _capped_cli(tmp_path, {"strategy": "threshold", "n_examples": MAX_SIZE,
                                     "budget": 10, "trials": 1})
        assert run.returncode == 2
        assert run.stderr.count("\n") == 1 and run.stderr.startswith("error: ")
        assert "Unable to allocate" in run.stderr


@st.composite
def _label_file(draw):
    """Lines of a label file: records with increasing steps over a few ids
    and any label value, with one arbitrary JSON line at a drawn place."""
    rows = draw(st.lists(st.fixed_dictionaries({
        "example_id": st.integers(0, 2) | st.text(max_size=1),
        "labeler_id": st.sampled_from(["p", "q", 0]),
        "value": st.integers(-1, 2) | st.booleans() | st.floats(),
    }), max_size=6))
    lines = [json.dumps({**row, "step": i + 1}) for i, row in enumerate(rows)]
    at = draw(st.integers(0, len(lines)))
    return lines[:at] + draw(st.lists(json_lines, max_size=1)) + lines[at:]


class TestAssessArbitraryInput:
    @given(_label_file(), _label_file())
    @example(['{"example_id": 0, "labeler_id": "e", "step": 1, "value": 1}'], ["[" * 100_000])
    @example(['{"example_id": 0, "labeler_id": "e", "step": 1, "value": 1}'],
             ['{"example_id": 0, "labeler_id": "\\ud800", "step": 1, "value": 1}'])  # no UTF-8
    @example(['{"example_id": %s, "labeler_id": "e", "step": 1, "value": 1}' % ("1" * 5000)], [])
    def test_exits_zero_one_or_two_with_one_line(self, tmp_path_factory, truth, labels):
        base = tmp_path_factory.getbasetemp()
        (base / "fuzz_truth.jsonl").write_text("\n".join(truth), encoding="utf-8")
        (base / "fuzz_labels.jsonl").write_text("\n".join(labels), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["assess", "--truth", str(base / "fuzz_truth.jsonl"),
                         "--labels", str(base / "fuzz_labels.jsonl"),
                         "--out", str(base / "fuzz_out")])
        assert code in (0, 1, 2)
        if code:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


# every integer size capped, and absent ones set, so that a valid run is tiny
_TINY = {"n_examples": 30, "n_labelers": 10, "assessment_size": 30, "trials": 2, "budget": 100}


def _tiny(raw):
    sizes = {key: raw.get(key, cap) for key, cap in _TINY.items()}
    return {**raw, **{k: min(v, _TINY[k]) if is_int(v) else v for k, v in sizes.items()}}


# valid or nearly valid tiny configs, without their strategy
_tiny_configs = st.fixed_dictionaries({
    "trials": st.integers(1, 2), "budget": st.integers(0, 100),
    "n_examples": st.integers(1, 30), "n_labelers": st.integers(3, 6),
    "kappa": st.integers(1, 3), "assessment_size": st.integers(1, 30),
}, optional={
    "methods": st.lists(st.sampled_from(["mv", "wmv", "sv", "gtx"]), min_size=1, unique=True),
    "tau_grid": st.lists(st.sampled_from([0.6, 0.9, 0.95, 1.0]), min_size=1, unique=True),
    "fixed_counts": st.lists(st.integers(1, 3), min_size=1, unique=True),
    "accuracy_interval": st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted),
    "oracle_accuracy": st.booleans(),
    "seed": st.integers(0, 2**70),
})


@st.composite
def _experiment_runs(draw):
    """A command and the bytes of its config file: a tiny config of that
    strategy (drawn most often), any config with its sizes made tiny, any
    JSON value, or any bytes."""
    command = draw(st.sampled_from(["threshold", "uncertainty"]))
    tiny = _tiny_configs.map(lambda c: {"strategy": command, **c})
    config = st.one_of(tiny, tiny, tiny, fuzz_configs.map(_tiny), json_values)
    return command, draw(config.map(lambda v: json.dumps(v).encode()) | st.binary(max_size=8))


class TestExperimentArbitraryConfig:
    @given(_experiment_runs(), st.sampled_from([1, 2, 0, -1]))  # at most two workers
    @example(("threshold", NOT_UTF8), 1)
    @example(("threshold", b'{"strategy": "threshold", "budget": %s}' % (b"1" * 5000)), 1)
    @example(("threshold", json.dumps({"strategy": "threshold", "n_examples": 10**19,
                                       "budget": 10, "trials": 1}).encode()), 1)
    @example(("threshold", json.dumps({"strategy": "threshold", "n_labelers": 10**19,
                                       "budget": 10, "trials": 1}).encode()), 1)
    @settings(deadline=None)  # a valid run may start a worker pool
    def test_exits_zero_one_or_two_with_one_error_line(self, tmp_path_factory, run, workers):
        command, text = run
        base = tmp_path_factory.getbasetemp()
        (base / "fuzz_config.json").write_bytes(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(base / "fuzz_config.json"),
                         "--out", str(base / "fuzz_run"), "--workers", str(workers)])
        assert code in (0, 1, 2)  # any other exception propagates and fails the test
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
        assert len(errors) == (code != 0)
        assert "Traceback" not in err.getvalue()


class TestColdStart:
    def test_import_leaves_the_process_pool_unloaded(self):
        # the pool is imported when a run asks for more than one worker
        code = "import sys, gtx, gtx.cli; print('multiprocessing' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(gtx.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
        assert (run.returncode, run.stdout) == (0, "False\n"), run.stderr
