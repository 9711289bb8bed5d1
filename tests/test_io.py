import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gtx.aggregators import Method
from gtx.errors import AlreadyLabeled, ConfigError
from gtx.io import (
    DEFAULT_TAU_GRID,
    config_from_dict,
    fmt,
    load_config,
    read_assessment_set,
    read_label_records,
    write_csv,
    write_event_log,
    write_label_records,
)
from gtx.model import LabelRecord
from gtx.strategies import LabelEvent


class TestConfigDefaults:
    def test_minimal_threshold_config(self):
        cfg = config_from_dict({"strategy": "threshold", "method": "gtx"})
        assert cfg.budget == 15000
        assert cfg.n_examples == 15000
        assert cfg.n_labelers == 10
        assert cfg.kappa == 5
        assert cfg.trials == 100
        assert cfg.tau_grid == DEFAULT_TAU_GRID
        assert cfg.fixed_counts == (1, 2, 3, 4, 5)
        assert (cfg.accuracy_low, cfg.accuracy_high) == (0.8, 1.0)
        assert cfg.assessment_size == 100
        assert cfg.methods == (Method.GTX,)
        assert cfg.oracle_accuracy is False

    def test_minimal_uncertainty_config(self):
        cfg = config_from_dict({"strategy": "uncertainty"})
        assert cfg.n_examples == 5000
        assert cfg.budget == 15000  # three labels per example
        assert cfg.trials == 10
        assert cfg.methods == tuple(Method)

    def test_threshold_pool_defaults_to_budget(self):
        cfg = config_from_dict({"strategy": "threshold", "budget": 600})
        assert cfg.n_examples == 600

    def test_uncertainty_budget_follows_pool(self):
        cfg = config_from_dict({"strategy": "uncertainty", "n_examples": 100})
        assert cfg.budget == 300

    def test_roundtrip_is_idempotent(self):
        cfg = config_from_dict(
            {"strategy": "threshold", "methods": ["gtx", "sv"], "kappa": 4, "seed": 9}
        )
        assert config_from_dict(cfg.as_dict()) == cfg


class TestConfigValidation:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys: taus"):
            config_from_dict({"strategy": "threshold", "taus": [0.9]})

    def test_kappa_above_labelers(self):
        with pytest.raises(ConfigError, match="kappa"):
            config_from_dict({"strategy": "threshold", "kappa": 7, "n_labelers": 5})

    def test_tau_at_half_rejected(self):
        with pytest.raises(ConfigError, match="tau"):
            config_from_dict({"strategy": "threshold", "tau_grid": [0.5]})

    def test_every_violation_reported_at_once(self):
        with pytest.raises(ConfigError) as exc:
            config_from_dict(
                {
                    "strategy": "sideways",
                    "trials": 0,
                    "tau_grid": [0.4],
                    "fixed_counts": [9],
                    "accuracy_interval": [0.9, 0.2],
                    "bogus": 1,
                }
            )
        msg = str(exc.value)
        for needle in ("strategy", "trials", "tau", "fixed counts", "accuracy_interval", "bogus"):
            assert needle in msg

    @pytest.mark.parametrize(
        "key,values,needle",
        [
            ("tau_grid", [0.9, 0.9], "0.9 and 0.9"),
            ("tau_grid", [0.99991, 0.95, 0.99994], "0.99991 and 0.99994"),
            ("fixed_counts", [1, 2, 2], "duplicate fixed count 2"),
        ],
    )
    def test_cells_must_have_distinct_codes(self, key, values, needle):
        with pytest.raises(ConfigError, match=needle):
            config_from_dict({"strategy": "threshold", key: values})

    def test_method_and_methods_conflict(self):
        with pytest.raises(ConfigError, match="not both"):
            config_from_dict({"strategy": "threshold", "method": "mv", "methods": ["mv"]})

    def test_unknown_method(self):
        with pytest.raises(ConfigError, match="unknown method"):
            config_from_dict({"strategy": "threshold", "method": "em"})

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError, match="trials"):
            config_from_dict({"strategy": "threshold", "trials": True})


class TestLoadConfig(object):
    def test_loads_json_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"strategy": "threshold", "method": "gtx"}))
        cfg = load_config(p)
        assert cfg.methods == (Method.GTX,)

    def test_invalid_json_reports_path(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(p)


class TestLabelRecordFiles:
    def test_roundtrip_preserves_records_and_steps(self, tmp_path):
        p = tmp_path / "labels.jsonl"
        recs = [LabelRecord(0, "a", 1), LabelRecord(0, "b", 0), LabelRecord(1, "a", 1)]
        write_label_records(p, recs, steps=[1, 5, 9])
        back, steps = read_label_records(p)
        assert back == recs
        assert steps == [1, 5, 9]

    def test_default_steps_count_from_one(self, tmp_path):
        p = tmp_path / "labels.jsonl"
        write_label_records(p, [LabelRecord(0, "a", 1), LabelRecord(1, "a", 0)])
        _, steps = read_label_records(p)
        assert steps == [1, 2]

    def test_non_increasing_steps_rejected_on_read(self, tmp_path):
        p = tmp_path / "labels.jsonl"
        rows = [
            {"example_id": 0, "labeler_id": "a", "step": 2, "value": 1},
            {"example_id": 1, "labeler_id": "a", "step": 2, "value": 0},
        ]
        p.write_text("\n".join(json.dumps(r) for r in rows))
        with pytest.raises(ValueError, match="strictly increasing"):
            read_label_records(p)

    def test_duplicate_vote_rejected(self, tmp_path):
        p = tmp_path / "labels.jsonl"
        rows = [
            {"example_id": 0, "labeler_id": "a", "step": 1, "value": 1},
            {"example_id": 0, "labeler_id": "a", "step": 2, "value": 0},
        ]
        p.write_text("\n".join(json.dumps(r) for r in rows))
        with pytest.raises(AlreadyLabeled):
            read_label_records(p)

    def test_schema_violation_names_line(self, tmp_path):
        p = tmp_path / "labels.jsonl"
        p.write_text('{"example_id": 0, "value": 1}\n')
        with pytest.raises(ValueError, match=":1:"):
            read_label_records(p)

    def test_bad_label_value_rejected(self, tmp_path):
        p = tmp_path / "labels.jsonl"
        p.write_text('{"example_id": 0, "labeler_id": "a", "step": 1, "value": 3}\n')
        with pytest.raises(ValueError):
            read_label_records(p)

    def test_blank_lines_ignored(self, tmp_path):
        p = tmp_path / "labels.jsonl"
        p.write_text('{"example_id": 0, "labeler_id": "a", "step": 1, "value": 1}\n\n')
        recs, _ = read_label_records(p)
        assert len(recs) == 1

    def test_event_log_is_a_valid_label_record_file(self, tmp_path):
        p = tmp_path / "events.jsonl"
        events = [
            LabelEvent(step=1, example_id=0, labeler_id=3, value=1, confidence=0.8),
            LabelEvent(step=2, example_id=1, labeler_id=2, value=0, confidence=0.9),
        ]
        write_event_log(p, events, method=Method.GTX)
        recs, steps = read_label_records(p)
        assert steps == [1, 2]
        assert recs[0] == LabelRecord(0, 3, 1)


def _dict_line(row) -> str:
    """A JSONL row in the writers' reference form: the row's dict through
    json.dumps with sorted keys and compact separators."""
    return json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"


_ids = st.one_of(st.text(), st.integers())


@st.composite
def _labeled(draw):
    """Records with distinct (example, labeler) pairs and increasing steps."""
    rows = draw(st.lists(st.tuples(_ids, _ids, st.integers(0, 1)),
                         unique_by=lambda r: r[:2], max_size=20))
    gaps = draw(st.lists(st.integers(1, 2**40), min_size=len(rows), max_size=len(rows)))
    steps = [sum(gaps[: i + 1]) for i in range(len(gaps))]
    return [LabelRecord(*r) for r in rows], steps


class TestJsonlEncoding:
    @given(_labeled())
    def test_label_records_match_dict_form(self, tmp_path_factory, labeled):
        records, steps = labeled
        p = tmp_path_factory.getbasetemp() / "records.jsonl"
        write_label_records(p, records, steps)
        expected = "".join(
            _dict_line({"example_id": r.example_id, "labeler_id": r.labeler_id,
                        "step": step, "value": r.value})
            for step, r in zip(steps, records)
        )
        assert p.read_bytes() == expected.encode("utf-8")

    @given(
        st.lists(st.builds(LabelEvent, st.integers(1), _ids, _ids,
                           st.integers(0, 1), st.floats()), max_size=20),
        st.one_of(st.none(), st.sampled_from(list(Method)), st.text()),
    )
    @example([LabelEvent(1, 0, "a", 1, 0.5)], "100%s")  # a method the template must escape
    def test_event_log_matches_dict_form(self, tmp_path_factory, events, method):
        p = tmp_path_factory.getbasetemp() / "events.jsonl"
        write_event_log(p, events, method)
        expected = ""
        for ev in events:
            row = {"example_id": ev.example_id, "labeler_id": ev.labeler_id,
                   "step": ev.step, "value": ev.value, "confidence": ev.confidence}
            if method is not None:
                row["method"] = str(method)
            expected += _dict_line(row)
        assert p.read_bytes() == expected.encode("utf-8")

    @given(_labeled())
    def test_label_records_round_trip(self, tmp_path_factory, labeled):
        records, steps = labeled
        p = tmp_path_factory.getbasetemp() / "round_trip.jsonl"
        write_label_records(p, records, steps)
        assert read_label_records(p) == (records, steps)


class TestAssessmentReader:
    def test_reads_truth(self, tmp_path):
        p = tmp_path / "truth.jsonl"
        write_label_records(p, [LabelRecord(4, "expert", 1), LabelRecord(7, "expert", 0)])
        aset = read_assessment_set(p)
        assert aset.example_ids == (4, 7)
        assert aset.true_labels == (1, 0)

    def test_duplicate_truth_rejected(self, tmp_path):
        p = tmp_path / "truth.jsonl"
        write_label_records(p, [LabelRecord(4, "e1", 1), LabelRecord(4, "e2", 1)])
        with pytest.raises(ValueError, match="duplicate truth"):
            read_assessment_set(p)


class TestCsvWriter:
    def test_floats_use_shortest_roundtrip_form(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["a", "b"], [[0.1, None], [1, "x"]])
        assert p.read_text() == "a,b\n0.1,\n1,x\n"

    def test_headers_only_when_no_rows(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["a", "b"], [])
        assert p.read_text() == "a,b\n"

    def test_fmt_handles_numpy_scalars(self):
        import numpy as np

        assert fmt(np.float64(0.25)) == "0.25"
        assert fmt(np.int64(3)) == "3"
        assert fmt(None) == ""
