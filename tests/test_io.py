import csv
import dataclasses
import json
import math
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtx import io as gtx_io
from gtx.aggregators import Method
from gtx.cli import main
from gtx.errors import ConfigError, DataError
from gtx.io import (
    _READ_LINES,
    _WRITE_ROWS,
    DEFAULT_TAU_GRID,
    ExperimentConfig,
    _float_cells,
    _value,
    config_from_dict,
    load_config,
    read_assessment_set,
    read_label_records,
    write_columns,
    write_csv,
    write_event_log,
    write_label_records,
)
from gtx.model import LabelRecord
from gtx.simulation import MAX_SIZE
from gtx.strategies import EventLog, LabelEvent
from oracles import read_label_records as spec_read_label_records
from oracles import write_columns as spec_write_columns
from support import fuzz_configs, json_lines


class TestConfigDefaults:
    def test_minimal_threshold_config(self):
        cfg = config_from_dict({"strategy": "threshold", "methods": ["gtx"]})
        assert cfg.budget == 15000
        assert cfg.n_examples == 15000
        assert cfg.n_labelers == 10
        assert cfg.kappa == 5
        assert cfg.trials == 100
        assert cfg.tau_grid == DEFAULT_TAU_GRID
        assert cfg.fixed_counts == (1, 2, 3, 4, 5)
        assert cfg.accuracy_interval == (0.8, 1.0)
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

    @pytest.mark.parametrize("key", ["n_examples", "n_labelers", "assessment_size"])
    def test_sizes_no_array_can_hold_are_rejected(self, key):
        with pytest.raises(ConfigError, match=f"{key} must be <= {MAX_SIZE}, got {MAX_SIZE + 1}"):
            config_from_dict({"strategy": "threshold", key: MAX_SIZE + 1})
        config_from_dict({"strategy": "threshold", key: MAX_SIZE, "fixed_counts": [1]})

    def test_budget_trials_and_seed_are_unbounded(self):
        huge = 10**30
        cfg = config_from_dict({"strategy": "threshold", "budget": huge, "n_examples": 10,
                                "trials": huge, "seed": huge})
        assert (cfg.budget, cfg.trials, cfg.seed) == (huge, huge, huge)

    def test_unprintable_and_non_text_keys_are_quoted(self):
        with pytest.raises(ConfigError, match=r"unknown config keys: 'a\\nb', 1, taus$") as exc:
            config_from_dict({"strategy": "threshold", "a\nb": 0, 1: 0, "taus": 0})
        assert "\n" not in str(exc.value)

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

    def test_repeated_methods_rejected(self):
        with pytest.raises(ConfigError, match="duplicate method gtx$"):
            config_from_dict({"strategy": "threshold", "methods": ["gtx", "sv", "gtx"]})

    def test_method_and_methods_conflict(self):
        # "methods" is the only spelling; "method" is an unknown key
        with pytest.raises(ConfigError, match="unknown config keys: method$"):
            config_from_dict({"strategy": "threshold", "method": "mv", "methods": ["mv"]})

    @pytest.mark.parametrize("methods", ["gtx", [], {"gtx": 1}])
    def test_methods_must_be_a_non_empty_list(self, methods):
        with pytest.raises(ConfigError, match="methods must be a non-empty list"):
            config_from_dict({"strategy": "threshold", "methods": methods})

    def test_unknown_method(self):
        with pytest.raises(ConfigError, match="unknown method"):
            config_from_dict({"strategy": "threshold", "methods": ["em"]})

    def test_replace_validates(self):
        cfg = config_from_dict({"strategy": "threshold", "kappa": 4})
        assert dataclasses.replace(cfg, seed=3, trials=2) == config_from_dict(
            {"strategy": "threshold", "kappa": 4, "seed": 3, "trials": 2}
        )
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            dataclasses.replace(cfg, seed=-1)
        with pytest.raises(ConfigError, match="fixed counts must be in 1..kappa"):
            dataclasses.replace(cfg, kappa=2)

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError, match="trials"):
            config_from_dict({"strategy": "threshold", "trials": True})




class TestConfigFuzz:
    @given(fuzz_configs)
    @example({"strategy": "threshold", "kappa": 10**12})
    @example({"strategy": "threshold", "kappa": 10**18, "n_labelers": 10**18})
    @example({"strategy": "uncertainty", "n_examples": 10**18, "budget": 10**18})
    def test_config_or_config_error(self, raw):
        try:
            cfg = config_from_dict(raw)
        except ConfigError as exc:
            assert "\n" not in str(exc)
            return
        assert isinstance(cfg, ExperimentConfig)
        assert config_from_dict(cfg.as_dict()) == cfg

    def test_huge_kappa_is_rejected_before_its_default_counts(self):
        raw = {"strategy": "threshold", "kappa": 10**18, "n_labelers": 10**18}
        with pytest.raises(ConfigError, match="list fixed_counts"):
            config_from_dict(raw)
        cfg = config_from_dict({**raw, "fixed_counts": [1, 10**18]})
        assert cfg.fixed_counts == (1, 10**18)


class TestLoadConfig(object):
    def test_loads_json_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"strategy": "threshold", "methods": ["gtx"]}))
        cfg = load_config(p)
        assert cfg.methods == (Method.GTX,)

    def test_invalid_json_reports_path(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(p)

    def test_non_utf8_file_is_a_config_error_naming_it(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(p))}: not valid JSON: 'utf-8' codec"):
            load_config(p)

    def test_deeply_nested_json_is_a_config_error(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("[" * 100_000)
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(p)


_TWO_RECORDS = [LabelRecord(0, "a", 1), LabelRecord(1, "a", 0)]


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

    @pytest.mark.parametrize("recs, steps", [
        *(pytest.param(_TWO_RECORDS, s, id=f"steps{j}") for j, s in enumerate(
            [[1.5, 3], [1, 2.0], [True, 2], ["1", 2], [1, None]])),
        # a second record whose id the reader rejects
        *(pytest.param([LabelRecord(0, "a", 1), r], None, id=f"ids{j}") for j, r in enumerate(
            [LabelRecord(0.5, "a", 1), LabelRecord(0, True, 1), LabelRecord(None, "a", 1),
             LabelRecord((1, 2), "a", 1), LabelRecord(1.0, "a", 1), LabelRecord(1, ["a"], 0)])),
    ])
    def test_non_integer_steps_rejected_before_writing(self, tmp_path, recs, steps):
        p = tmp_path / "labels.jsonl"
        with pytest.raises(ValueError) as err:
            write_label_records(p, recs, steps=steps)
        assert err.match("^(steps must be integers|example_id and labeler_id must be "
                         "strings or integers), got ")
        assert "\n" not in str(err.value)
        assert not p.exists()

    @pytest.mark.parametrize("recs, steps", [
        pytest.param(_TWO_RECORDS, np.array([1, 4]), id="steps0"),
        pytest.param(_TWO_RECORDS, [np.int32(2), np.uint8(3)], id="steps1"),
        pytest.param([LabelRecord(np.int64(0), "a", 1), LabelRecord(1, np.int32(7), 0)], [1, 2],
                     id="ids0"),
        pytest.param([LabelRecord(np.uint8(3), np.int16(-2), 1)], [5], id="ids1"),
    ])
    def test_numpy_integer_steps_are_written_as_ints(self, tmp_path, recs, steps):
        p, plain = tmp_path / "labels.jsonl", tmp_path / "plain.jsonl"
        write_label_records(p, recs, steps=steps)
        back, read_steps = read_label_records(p)
        assert back == recs
        assert read_steps == [int(s) for s in steps]
        assert all(type(s) is int for s in read_steps)
        # the same bytes as the records and steps written as Python ints
        write_label_records(plain, back, read_steps)
        assert p.read_bytes() == plain.read_bytes()

    def test_values_pass_the_label_check_before_writing(self, tmp_path):
        # plain tuples skip LabelRecord's check; the writer makes it itself
        p = tmp_path / "labels.jsonl"
        with pytest.raises(DataError, match="^label value must be 0 or 1, got 5$"):
            write_label_records(p, [(0, "a", 1), (1, "a", 5)])
        assert not p.exists()
        write_label_records(p, [(0, "a", True), (1, "a", np.int64(0))])
        assert p.read_text().count('"value":') == 2 and "true" not in p.read_text()
        assert read_label_records(p)[0] == [(0, "a", 1), (1, "a", 0)]

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
        with pytest.raises(DataError, match="duplicate label for example 0 by labeler 'a'"):
            read_label_records(p)

    @pytest.mark.parametrize("lines", [1, 2000])  # the bad byte in the first read or a later one
    def test_non_utf8_file_is_a_data_error_naming_it(self, tmp_path, lines):
        p = tmp_path / "labels.jsonl"
        write_label_records(p, [LabelRecord(i, "a", 1) for i in range(lines)])
        p.write_bytes(p.read_bytes() + b"\xff\n")
        for read in (read_label_records, spec_read_label_records):
            with pytest.raises(DataError, match=f"^{re.escape(str(p))}: invalid UTF-8: 'utf-8'"):
                read(p)

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

    @pytest.mark.parametrize("bad", ["true", "false", "1.0", "0.0", "3"])
    def test_value_must_be_the_int_zero_or_one(self, tmp_path, bad):
        p = tmp_path / "labels.jsonl"
        p.write_text('{"example_id": 0, "labeler_id": "a", "step": 1, "value": 1}\n'
                     f'{{"example_id": 1, "labeler_id": "a", "step": 2, "value": {bad}}}\n')
        with pytest.raises(ValueError, match=f"labels.jsonl:2: value must be .*got {bad.title()}"):
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

    def test_numpy_scalars_are_written_as_their_values(self, tmp_path):
        # a numpy integer as its int, a numpy float as the float it equals
        plain = [LabelEvent(1, 0, "a", 1, 0.5), LabelEvent(2, 3, "b", 0, 0.1)]
        numpy = [LabelEvent(np.int64(1), 0, "a", 1, np.float32(0.5)),
                 LabelEvent(2, np.int64(3), "b", np.int8(0), np.float64(0.1))]
        write_event_log(tmp_path / "plain.jsonl", plain)
        write_event_log(tmp_path / "numpy.jsonl", numpy)
        assert (tmp_path / "numpy.jsonl").read_bytes() == (tmp_path / "plain.jsonl").read_bytes()


def _dict_line(row) -> str:
    """A JSONL row in the writers' reference form: the row's dict through
    json.dumps with sorted keys and compact separators."""
    return json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"


_ids = st.one_of(st.text(), st.integers())


def _event_dict_lines(events, method) -> str:
    rows = []
    for ev in events:
        row = {"example_id": ev.example_id, "labeler_id": ev.labeler_id,
               "step": ev.step, "value": ev.value, "confidence": ev.confidence}
        if method is not None:
            row["method"] = str(method)
        rows.append(_dict_line(row))
    return "".join(rows)


def _assert_event_log_or_readers_error(p, events, method):
    """``write_event_log`` writes the events' dict form, or raises the spec
    reader's error on those lines and leaves no file."""
    text = _event_dict_lines(events, method).encode("utf-8")
    p.write_bytes(text)
    expected = _read_outcome(spec_read_label_records, p)
    p.unlink()
    try:
        write_event_log(p, events, method)
    except DataError as exc:
        assert (DataError, str(exc)) == expected
        assert not p.exists()
    else:
        assert p.read_bytes() == text
        assert isinstance(expected, str)  # the records' repr: the reader reads the file


@st.composite
def _labeled(draw):
    """Records with distinct (example, labeler) pairs and increasing steps."""
    rows = draw(st.lists(st.tuples(_ids, _ids, st.integers(0, 1)),
                         unique_by=lambda r: r[:2], max_size=20))
    gaps = draw(st.lists(st.integers(1, 2**40), min_size=len(rows), max_size=len(rows)))
    steps = [sum(gaps[: i + 1]) for i in range(len(gaps))]
    return [LabelRecord(*r) for r in rows], steps


@st.composite
def _valid_events(draw):
    """Events with distinct (example, labeler) pairs and increasing steps."""
    records, steps = draw(_labeled())
    confidences = draw(st.lists(st.floats(), min_size=len(steps), max_size=len(steps)))
    return [LabelEvent(s, *r, c) for s, r, c in zip(steps, records, confidences)]


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
        _valid_events() | st.lists(st.builds(LabelEvent, st.integers(1), _ids, _ids,
                                             st.integers(0, 1), st.floats()), max_size=20),
        st.one_of(st.none(), st.sampled_from(list(Method)), st.text()),
    )
    @example([LabelEvent(1, 0, "a", 1, 0.5)], "100%s")  # a method the template must escape
    @example([LabelEvent(1, 0, 0, 1, float("nan"))], None)  # json's NaN, not %s's nan
    def test_event_log_matches_dict_form(self, tmp_path_factory, events, method):
        _assert_event_log_or_readers_error(tmp_path_factory.getbasetemp() / "events.jsonl",
                                           events, method)

    @pytest.mark.parametrize("field, odd", [
        ("confidence", float("nan")), ("confidence", float("-inf")),
        ("labeler_id", "w7"), ("value", True),
    ])
    def test_one_odd_cell_in_the_middle_chunk(self, tmp_path, field, odd):
        # chunks 1 and 3 are plain ints and finite floats; chunk 2 is not
        events = [LabelEvent(i + 1, i // 3, i % 3, i % 2, 0.5 + i / 7919)
                  for i in range(2 * _WRITE_ROWS + 5)]
        events[_WRITE_ROWS + 3] = events[_WRITE_ROWS + 3]._replace(**{field: odd})
        _assert_event_log_or_readers_error(tmp_path / "events.jsonl", events, Method.GTX)

    @given(_labeled())
    def test_label_records_round_trip(self, tmp_path_factory, labeled):
        records, steps = labeled
        p = tmp_path_factory.getbasetemp() / "round_trip.jsonl"
        write_label_records(p, records, steps)
        assert read_label_records(p) == (records, steps)


# floats whose text is easy to get wrong: signed zeros, a nan of each sign
# and one with a payload, infinities and subnormals
_ODD_FLOATS = [0.0, -0.0, math.nan, -math.nan,
               float(np.array(0x7FF8000000000001).view(np.float64)),
               math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072e-308]


@st.composite
def _float_columns(draw):
    """A float64 column that repeats a few values, odd ones among them."""
    pool = draw(st.lists(st.floats() | st.sampled_from(_ODD_FLOATS), min_size=1, max_size=8))
    return np.array(draw(st.lists(st.sampled_from(pool), max_size=50)), np.float64)


# literal template text: "%" escaped, so that "%s" in it becomes "%%s"
_literals = (st.text(st.characters(codec="utf-8"), max_size=4).map(lambda t: t.replace("%", "%%"))
             | st.sampled_from(["%%", "%%s", ",", '"', "é,\"%%"]))
# the kinds of column callers pass: values drawn from a few, so that a
# column of any length repeats them
_column_kinds = st.sampled_from([
    (st.floats() | st.sampled_from(_ODD_FLOATS), np.float64),
    (st.integers(-2**63, 2**63 - 1) | st.sampled_from([-2**63, 2**63 - 1]), np.int64),
    (st.integers(0, 2**64 - 1), np.uint64),
    (st.booleans(), np.bool_),
    (st.floats(width=32), np.float32),
    (st.text(st.characters(codec="utf-8"), max_size=4)
     | st.sampled_from(["é", "a,b", 'q"x', "100%", "%s", "%%"]), object),
])


@st.composite
def _column_blocks(draw):
    """One to three (template, columns) blocks of one to four columns, each
    block of 0 to 5 rows or of as many as end just before, at or just after
    the end of a write chunk, or inside the third."""
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 5) | st.sampled_from(
            [_WRITE_ROWS - 1, _WRITE_ROWS, _WRITE_ROWS + 1, 2 * _WRITE_ROWS + 3]))
        columns, template = [], draw(_literals)
        for _ in range(draw(st.integers(1, 4))):
            values, dtype = draw(_column_kinds)
            pool = draw(st.lists(values, min_size=1, max_size=6))
            columns.append(np.resize(np.array(pool, dtype), n))
            template += "%s" + draw(_literals)
        blocks.append((template + "\n", columns))
    return blocks


class TestColumnWriters:
    @given(_float_columns())
    def test_float_cells_are_repr_and_json_text(self, column):
        for form in (repr, _value):
            assert _float_cells(column, form).tolist() == [
                form(v).encode() for v in column.tolist()]

    @given(_float_columns(), st.lists(st.integers(-2**63, 2**63 - 1), max_size=50),
           st.sampled_from(["gtx", "a%sb", "100%"]))
    def test_csv_by_columns_equals_csv_by_rows(self, tmp_path_factory, floats, ints, lead):
        n = min(len(floats), len(ints))
        columns = [np.array(ints[:n], np.int64), floats[:n]]
        blocks = [((lead, 1), columns), (("x", 2), columns[::-1])]
        rows = [[*head, *row] for head, cols in blocks
                for row in zip(*(c.tolist() for c in cols))]
        templates = [(",".join(map(str, head)).replace("%", "%%") + ",%s,%s\n", cols)
                     for head, cols in blocks]
        by_columns = tmp_path_factory.getbasetemp() / "columns.csv"
        by_rows = tmp_path_factory.getbasetemp() / "rows.csv"
        write_columns(by_columns, "a,b,c,d\n", templates)
        write_csv(by_rows, ["a", "b", "c", "d"], rows)
        assert by_columns.read_bytes() == by_rows.read_bytes()

    @settings(deadline=None)
    @given(st.text(st.characters(codec="utf-8"), max_size=4), _column_blocks(),
           st.sampled_from([repr, _value]))
    def test_bytes_equal_the_text_spec(self, tmp_path_factory, head, blocks, form):
        p = tmp_path_factory.getbasetemp() / "columns.txt"
        spec = tmp_path_factory.getbasetemp() / "spec.txt"
        write_columns(p, head, blocks, form)
        spec_write_columns(spec, head, blocks, form)
        assert p.read_bytes() == spec.read_bytes()


# an id past Python's 4300-digit limit on reading an int, a plain ValueError
LONG_ID_LINE = '{"example_id": %s, "labeler_id": 2, "step": 1, "value": 1}' % ("1" * 5000)


class TestArbitraryLines:
    @given(st.lists(json_lines, max_size=6))
    @example(["[" * 100_000])
    @example([LONG_ID_LINE])
    @example(['{"example_id": 1, "labeler_id": 2, "step": 1, "value": 1}'] * 2)
    def test_reader_raises_only_documented_errors(self, tmp_path_factory, lines):
        p = tmp_path_factory.getbasetemp() / "arbitrary.jsonl"
        p.write_text("\n".join(lines), encoding="utf-8")
        try:
            records, steps = read_label_records(p)
        except (DataError, OSError):
            return
        assert len(records) == len(steps)
        assert all(b > a for a, b in zip(steps, steps[1:]))


_spec_ids = st.sampled_from([0, 1, 2, "a", "b", "1", "w"])


def _spec_record(step, value=st.sampled_from([0, 1])):
    return st.fixed_dictionaries(
        {"example_id": _spec_ids, "labeler_id": _spec_ids, "step": step, "value": value},
        optional={"confidence": st.floats(), "method": st.sampled_from(["gtx", "mv"])},
    ).map(json.dumps)


def _odd_line(step):
    clean = _spec_record(st.just(step))
    return st.one_of(
        clean.map(lambda line: "\ufeff" + line),
        clean.map(lambda line: line + " x"),
        clean.map(lambda line: line + " {}"),
        clean.map(lambda line: " \t" + line + "  "),
        clean.map(lambda line: line[:-1] + ', "extra": 0}'),
        clean.map(lambda line: json.dumps(dict(list(json.loads(line).items())[1:]))),
        _spec_record(st.just(step), st.sampled_from([True, False, 0.0, 1.0, 2, -1, "1", None])),
        _spec_record(st.one_of(st.integers(-1, 9), st.sampled_from([1.0, True, "2"]))),
        json_lines,
        st.sampled_from(["", "  ", "\t"]),
    )


@st.composite
def _spec_files(draw):
    """The text of a label file: up to 8 records in step order, then up to two
    odd lines inserted (a BOM, trailing text, padding, an unknown or a missing
    key, an odd value or step, any JSON-ish line, a blank line), joined by
    \\n or \\r\\n."""
    lines = [draw(_spec_record(st.just(i + 1))) for i in range(draw(st.integers(0, 8)))]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines)))
        lines.insert(i, draw(_odd_line(i + 1)))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


def _read_outcome(read, path):
    """``repr`` of what ``read`` returns, or the type and text of its error."""
    try:
        return repr(read(path))
    except Exception as exc:
        return type(exc), str(exc)


def _spec_columns(path):
    """The spec reader's records transposed, then its steps: the example ids,
    labeler ids, values and steps that the column reader reads."""
    records, steps = spec_read_label_records(path)
    return (*([r[i] for r in records] for i in range(3)), steps)


def _reads_as_spec(p):
    """The reader's records and the column reader's columns are the spec's,
    or each raises the spec's error; returns the reader's outcome."""
    got = _read_outcome(read_label_records, p)
    assert got == _read_outcome(spec_read_label_records, p)
    assert _read_outcome(gtx_io._label_columns, p) == _read_outcome(_spec_columns, p)
    return got


class TestReaderMatchesSpec:
    @given(_spec_files())
    @example("\ufeff" + json.dumps({"example_id": 0, "labeler_id": "a", "step": 1, "value": 1}))
    @example('{"example_id": 0, "labeler_id": "a", "step": 1, "value": 1} x')
    @example('{"example_id": 0, "labeler_id": "a", "step": 1, "value": true}')
    @example("[" * 100_000)
    @example(LONG_ID_LINE)
    def test_same_records_or_same_error(self, tmp_path_factory, text):
        p = tmp_path_factory.getbasetemp() / "spec.jsonl"
        p.write_bytes(text.encode("utf-8"))
        _reads_as_spec(p)


@st.composite
def _records_to_write(draw):
    """Records whose (example, labeler) pairs may repeat, and integer steps
    that may be zero, negative, repeated or out of order, or None."""
    records = draw(st.lists(st.builds(LabelRecord, _spec_ids, _spec_ids,
                                      st.integers(0, 1)), max_size=8))
    n = len(records)
    gaps = st.lists(st.integers(1, 3), min_size=n, max_size=n)
    steps = draw(st.none() | st.lists(st.integers(-3, 3), min_size=n, max_size=n)
                 | st.tuples(st.integers(-5, 5), gaps).map(
                     lambda s: [s[0] + sum(s[1][:i]) for i in range(n)]))
    return records, steps


class TestWriterRefusesWhatTheReaderRefuses:
    """``write_label_records`` writes a file the reader reads back, or
    raises the spec reader's error on the lines it would have written."""

    @given(_records_to_write())
    @example(([LabelRecord(0, "a", 1), LabelRecord(0, "a", 0)], None))
    @example((_TWO_RECORDS, [5, 5]))
    @example((_TWO_RECORDS, [-3, 0]))
    def test_writes_what_reads_back_or_raises_the_readers_error(self, tmp_path_factory, case):
        records, steps = case
        written = list(range(1, len(records) + 1)) if steps is None else steps
        p = tmp_path_factory.getbasetemp() / "agree.jsonl"
        p.write_text("".join(_dict_line({"example_id": r.example_id, "labeler_id": r.labeler_id,
                                         "step": s, "value": r.value})
                             for s, r in zip(written, records)), encoding="utf-8")
        expected = _read_outcome(spec_read_label_records, p)
        p.unlink()
        try:
            write_label_records(p, records, steps)
        except DataError as exc:
            assert (DataError, str(exc)) == expected
            assert not p.exists()
        else:
            assert read_label_records(p) == (records, written)
            assert _read_outcome(read_label_records, p) == expected

    def test_a_pair_repeated_at_record_three_names_line_three(self, tmp_path):
        p = tmp_path / "labels.jsonl"
        records = [LabelRecord(0, "a", 1), LabelRecord(1, "a", 0), LabelRecord(0, "a", 0)]
        with pytest.raises(DataError) as err:
            write_label_records(p, records)
        assert str(err.value) == f"{p}:3: duplicate label for example 0 by labeler 'a'"
        assert not p.exists()

    def test_plain_events_are_held_to_the_readers_rules(self, tmp_path):
        p = tmp_path / "events.jsonl"
        events = [LabelEvent(1, 0, "a", 1, 0.5), LabelEvent(1, 0, "a", 7, 0.5)]
        with pytest.raises(DataError) as err:
            write_event_log(p, events)
        assert str(err.value) == f"{p}:2: steps must be strictly increasing (1 after 1)"
        assert not p.exists()

    @pytest.mark.parametrize("steps", [[-3, 0], [0]], ids=["negative", "zero"])
    def test_steps_at_or_below_zero_round_trip(self, tmp_path, steps):
        p = tmp_path / "labels.jsonl"
        records = _TWO_RECORDS[:len(steps)]
        write_label_records(p, records, steps)
        assert read_label_records(p) == (records, steps)

    @pytest.mark.parametrize("at", ["example_id", "labeler_id", "step"])
    def test_an_int_too_long_to_write_names_its_line(self, tmp_path, at):
        p = tmp_path / "labels.jsonl"
        second = {"example_id": 1, "labeler_id": "a", "step": 2, "value": 0, at: 10**5000}
        steps = [1, second.pop("step")]
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:2: invalid JSON: Exceeds"):
            write_label_records(p, [_TWO_RECORDS[0], LabelRecord(**second)], steps)
        assert not p.exists()

    def test_a_fault_before_an_int_too_long_to_write_is_named_first(self, tmp_path):
        # as the reader reads the lines in order
        p = tmp_path / "labels.jsonl"
        records = [LabelRecord(0, "a", 1), LabelRecord(0, "a", 0), LabelRecord(10**5000, "a", 1)]
        with pytest.raises(DataError) as err:
            write_label_records(p, records)
        assert str(err.value) == f"{p}:2: duplicate label for example 0 by labeler 'a'"
        assert not p.exists()


def _block_record(i, rng, **fields):
    """Line ``i + 1`` of a long valid file, with step ``2 * (i + 1)``: its
    (example, labeler) pair is ``(i // 3, "xyz"[i % 3])``, so no pair repeats
    nor meets a spec id; some rows add the optional keys, in any key order."""
    row = {"example_id": i // 3, "labeler_id": "xyz"[i % 3], "step": 2 * (i + 1),
           "value": rng.randrange(2)}
    if rng.random() < 0.1:
        row["confidence"] = rng.random()
    if rng.random() < 0.1:
        row["method"] = "gtx"
    items = list({**row, **fields}.items())
    rng.shuffle(items)
    return json.dumps(dict(items))


def _block_lines(n, seed=0):
    rng = random.Random(seed)
    return [_block_record(i, rng) for i in range(n)]


@st.composite
def _long_spec_files(draw):
    """The text of a label file of 1,000 to 3,000 lines, longer than a read
    block (``_READ_LINES`` lines), with up to two odd lines inserted, often at the
    last line of the first block or the first of the second.  An odd line
    before clean line ``i`` gets step ``2 * i + 1``, between its neighbours'."""
    n = draw(st.integers(1000, 3000))
    lines = _block_lines(n, draw(st.integers(0, 2**32 - 1)))
    edge = st.sampled_from([_READ_LINES - 1, _READ_LINES])
    at = draw(st.lists(edge | st.integers(0, n), max_size=2))
    for i in sorted(at, reverse=True):
        lines.insert(i, draw(_odd_line(2 * i + 1)))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


def _split_object_file(halves):
    # line 11 holds two records; the record after it spans lines 12 and 13
    lines = _block_lines(1200)
    lines[10] = lines[10] + "," + json.dumps(
        {"example_id": 10**6, "labeler_id": "x", "step": 23, "value": 1})
    lines[11:12] = halves
    return "\n".join(lines).encode("utf-8")


def _rows_not_lines_file(name, at):
    """The ``_block_lines(at)`` lines, then two or three lines that decode,
    as one block, to one valid record per line, though no record is its
    own line; steps and pairs go on from the lines before them."""
    s = 2 * at
    row = '{{"example_id": {}, "labeler_id": "a", "step": {}, "value": 1}}'.format
    tail = {
        # two records on one line, then one over two lines whose nested
        # example_id a repeated key replaces: every line ends in "}"
        "repeated-key": [row(1, s + 1) + "," + row(2, s + 2),
                         '{"example_id": {"x": 1}',
                         row(3, s + 3).replace('{"example_id": 3', '"example_id": 3')],
        # a record ending on the next line, which opens another: every line
        # holds one "{"
        "open-line": [row(1, s + 1).split(", \"step")[0],
                      '"step": %d, "value": 1}, ' % (s + 1) + row(2, s + 2)],
    }[name]
    return "\n".join(_block_lines(at) + tail).encode("utf-8")


def _fault_before_bad_byte_file(gap):
    # line 1,030 lacks two keys; a byte that is not UTF-8 opens the line
    # ``gap`` lines later, in the same block
    lines = _block_lines(2000)
    lines[1029] = json.dumps({"example_id": 0, "value": 1})
    data = "\n".join(lines).encode("utf-8")
    at = data.index(lines[1029 + gap].encode("utf-8"))
    return data[:at] + b"\xff" + data[at:]


def _with_line(lines, i, **fields):
    """``lines`` with line ``i + 1`` rewritten with ``fields``."""
    row = json.loads(lines[i])
    row.update(fields)
    return lines[:i] + [json.dumps(row)] + lines[i + 1:]


_LINES = _block_lines(2500)
_LONG_FILES = {
    # line 6's pair again on line 1,101, in the second block
    "duplicate-pair-across-blocks": "\n".join(
        _with_line(_LINES, 1100, example_id=1, labeler_id="z")),
    # line 6's pair again on line 2,101, in the third block
    "duplicate-pair-two-blocks-later": "\n".join(
        _with_line(_LINES, 2100, example_id=1, labeler_id="z")),
    # the first line of block 2 repeats the last step of block 1
    "step-fault-opens-block-2": "\n".join(
        _with_line(_LINES, _READ_LINES, step=2 * _READ_LINES)),
    "blank-block": "\n".join(
        _LINES[:_READ_LINES] + ["", "  ", "\t", ""] * (_READ_LINES // 4)
        + _LINES[_READ_LINES:]),
    "crlf": "\r\n".join(_LINES) + "\r\n",
    # valid: only the four record keys are checked, whatever method holds
    "method-list-in-block-2": "\n".join(_with_line(_LINES, 1500, method=["gtx", 1])),
}


class TestReaderAcrossBlocks:
    """Files longer than one read block, each read as the line-by-line spec
    reads it."""

    @settings(max_examples=60, deadline=None)
    @given(_long_spec_files())
    def test_same_records_or_same_error(self, tmp_path_factory, text):
        p = tmp_path_factory.getbasetemp() / "long_spec.jsonl"
        p.write_bytes(text.encode("utf-8"))
        _reads_as_spec(p)

    @pytest.mark.parametrize("name", sorted(_LONG_FILES))
    def test_fixed_files(self, tmp_path, name):
        p = tmp_path / "long.jsonl"
        p.write_bytes(_LONG_FILES[name].encode("utf-8"))
        _reads_as_spec(p)

    @pytest.mark.parametrize("halves", [
        # the first line does not end in "}"
        ['{"example_id": 3, "labeler_id": "z"', '"step": 24, "value": 1}'],
        # both lines do, but the first holds a second "{": method holds an object
        ['{"example_id": 3, "labeler_id": "z", "step": 24, "value": 1, "method": {"k": 1}',
         '"confidence": 0.5}'],
    ], ids=["brace", "nested"])
    def test_two_records_on_a_line_beside_one_on_two_lines(self, tmp_path, halves):
        # the block decodes to as many rows as it has lines, yet no line is one record
        p = tmp_path / "split.jsonl"
        p.write_bytes(_split_object_file(halves))
        got = _reads_as_spec(p)
        assert got[0] is DataError and got[1].startswith(f"{p}:11: invalid JSON: Extra data")

    @pytest.mark.parametrize("at", [0, _READ_LINES - 3, _READ_LINES])
    @pytest.mark.parametrize("name", ["repeated-key", "open-line"])
    def test_records_that_are_not_their_lines(self, tmp_path, name, at):
        p = tmp_path / "rows.jsonl"
        p.write_bytes(_rows_not_lines_file(name, at))
        got = _reads_as_spec(p)
        assert got[0] is DataError and got[1].startswith(f"{p}:{at + 1}: invalid JSON:")

    @pytest.mark.parametrize("gap", [3, 200])
    def test_fault_before_a_bad_byte_in_the_same_block(self, tmp_path, gap):
        # text is decoded some kilobytes at a time, so a fault far enough
        # before the bad byte is read, and named, before the byte is met
        p = tmp_path / "fault_then_bad_byte.jsonl"
        p.write_bytes(_fault_before_bad_byte_file(gap))
        got = _reads_as_spec(p)
        if gap == 200:
            assert got[0] is DataError and got[1].startswith(f"{p}:1030: expected keys")

    def test_block_read_line_by_line_then_a_valid_block(self, tmp_path):
        # a "{" in line 501's method breaks the first block's one-"{" rule, so
        # that block is read line by line; the second is read as one block
        p = tmp_path / "brace.jsonl"
        p.write_bytes("\n".join(_with_line(_LINES, 500, method="{gtx}")).encode("utf-8"))
        with mock.patch.object(gtx_io, "_read_lines", wraps=gtx_io._read_lines) as by_line:
            got = _reads_as_spec(p)
        assert isinstance(got, str) and got.count("LabelRecord(") == 2500
        assert [c.args[2] for c in by_line.call_args_list] == [1, 1]  # block 1, in each read

    @pytest.mark.parametrize("good", [3, _READ_LINES + 10])
    def test_bad_byte_after_good_lines(self, tmp_path, good):
        p = tmp_path / "bad_byte.jsonl"
        p.write_bytes("\n".join(_LINES[:good]).encode("utf-8") + b"\n\xff" + b"\n" * 3)
        got = _reads_as_spec(p)
        assert got[0] is DataError and got[1].startswith(f"{p}: invalid UTF-8:")

    @pytest.mark.parametrize("name", ["crlf", "blank-block", "method-list-in-block-2"])
    def test_valid_file_is_read_by_blocks(self, tmp_path, name):
        p = tmp_path / "long.jsonl"
        p.write_bytes(_LONG_FILES[name].encode("utf-8"))
        with mock.patch.object(gtx_io, "_read_lines", side_effect=AssertionError("line by line")):
            records, steps = read_label_records(p)
            write_label_records(tmp_path / "written.jsonl", records, steps)  # a valid write too
        assert (records, steps) == spec_read_label_records(p)
        assert len(records) == 2500 and {type(r) for r in records} == {LabelRecord}


class TestSharedLabelerIds:
    """Each read hands out one id object per labeler, across read blocks and
    on a block read line by line, and keeps none for the next read."""

    def test_one_id_object_per_labeler(self, tmp_path):
        rng = random.Random(3)
        lines = [json.dumps({"example_id": i // 4, "step": i + 1, "value": rng.randrange(2),
                             "labeler_id": f"w{i % 20:02d}" if i % 3 else 10**6 + i % 7})
                 for i in range(3000)]
        # a "{" in line 1,501's method: block 2 is read line by line
        p = tmp_path / "labels.jsonl"
        p.write_text("\n".join(_with_line(lines, 1500, method="{gtx}")) + "\n")
        with mock.patch.object(gtx_io, "_read_lines", wraps=gtx_io._read_lines) as by_line:
            records, steps = read_label_records(p)
        assert [c.args[2] for c in by_line.call_args_list] == [_READ_LINES + 1]
        assert (records, steps) == spec_read_label_records(p)
        labelers = {r.labeler_id for r in records}
        assert len(labelers) == 27
        assert len({id(r.labeler_id) for r in records}) == len(labelers)
        again, _ = read_label_records(p)  # the memo lives for one read
        assert again[0].labeler_id == records[0].labeler_id
        assert again[0].labeler_id is not records[0].labeler_id


class TestReaderMemory:
    def _peaks(self, tmp_path, records, truth_items):
        """The peaks of the spec reader, ``read_label_records`` and ``gtx
        assess`` (on the first ``truth_items`` examples) on a file of
        ``records``; returns them and the file's size."""
        p = tmp_path / "labels.jsonl"
        write_label_records(p, records)
        truth = tmp_path / "truth.jsonl"
        write_label_records(truth, [LabelRecord(i, "expert", i % 2) for i in range(truth_items)])
        runs = {
            "spec": lambda: len(spec_read_label_records(p)[0]),
            "reader": lambda: len(read_label_records(p)[0]),
            "assess": lambda: main(["assess", "--labels", str(p), "--truth", str(truth),
                                    "--out", str(tmp_path / "out")]),
        }
        peaks, results = {}, {}
        for name, run in runs.items():
            tracemalloc.start()
            try:
                results[name] = run()
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert results == {"spec": len(records), "reader": len(records), "assess": 0}
        return peaks, p.stat().st_size

    def test_peak_stays_near_the_line_by_line_spec(self, tmp_path):
        # the reader holds a block of lines at a time, so its peak exceeds
        # the spec's by far less than the file's text, let alone one decoded
        # dict per line; gtx assess, which keeps only each block's columns
        # on the truth items, is held to the same bound
        peaks, size = self._peaks(
            tmp_path, [LabelRecord(i // 4, f"w{i % 4}", i % 2) for i in range(50_000)], 100)
        for name in ("reader", "assess"):
            excess = peaks[name] - peaks["spec"]
            assert excess < size / 3, f"{name}: {excess} bytes above the spec's peak"

    def test_a_labeler_per_record_stays_near_the_spec(self, tmp_path):
        # the read's memo of labeler ids is as large as it gets, yet held to
        # the same bound; assess scores the four labelers of example 0
        peaks, size = self._peaks(
            tmp_path, [LabelRecord(i // 4, f"w{i}", i % 2) for i in range(50_000)], 1)
        for name in ("reader", "assess"):
            excess = peaks[name] - peaks["spec"]
            assert excess < size / 3, f"{name}: {excess} bytes above the spec's peak"


class TestWriterMemory:
    def test_peak_stays_near_the_text_spec(self, tmp_path):
        # the writer holds one chunk's table of cells at a time, so its peak
        # exceeds the spec's by far less than the file's size; a table of a
        # whole block's cells would not
        n = 200_000
        log = EventLog(np.arange(1, n + 1), np.arange(n) // 4, np.arange(n) % 4, np.arange(n) % 2,
                       np.arange(n) % 1000 / 1000, [f"w{j}" for j in range(4)])
        template = ('{"confidence":%s,"example_id":%s,"labeler_id":%s,"method":"gtx",'
                    '"step":%s,"value":%s}\n')

        def spec_write(path):  # the columns write_event_log writes, ids as text
            ids = np.array([_value(i) for i in log.pool_ids], object)
            columns = [log.confidences, log.example_ids, ids[log.positions], log.steps, log.values]
            spec_write_columns(path, "", [(template, columns)], _value)

        peaks = {}
        for name, write in (("spec", spec_write),
                            ("writer", lambda path: write_event_log(path, log, Method.GTX))):
            tracemalloc.start()
            try:
                write(tmp_path / name)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        size = (tmp_path / "writer").stat().st_size
        assert (tmp_path / "writer").read_bytes() == (tmp_path / "spec").read_bytes()
        excess = peaks["writer"] - peaks["spec"]
        assert excess < size / 3, f"{excess} bytes above the spec's peak, file {size} bytes"


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
        with pytest.raises(DataError) as err:
            read_assessment_set(p)
        assert str(err.value) == f"{p}: duplicate truth for example 4"


# the cells callers pass (st.floats() includes nan, +-inf and -0.0)
_cells = st.one_of(
    st.text(max_size=6),
    st.text(',"\r\nab', max_size=4),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(),
    st.floats().map(np.float64),
    st.none(),
)


def _cell_text(v) -> str:
    """One cell's CSV text: empty for None, ``str`` of an int, ``repr`` of a
    float, and a str in double quotes, each ``"`` doubled, when it holds a
    comma, a double quote or a line break."""
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if any(c in v for c in ',"\r\n'):
        return '"' + v.replace('"', '""') + '"'
    return v


@st.composite
def _csv_rows(draw):
    """A header and rows of its width: a drawn block repeated past one write
    chunk, then a tail, so that rows meet at a chunk boundary."""
    width = draw(st.integers(1, 4))
    row = st.lists(_cells, min_size=width, max_size=width)
    block = draw(st.lists(row, min_size=1, max_size=4))
    copies = draw(st.sampled_from([1, _WRITE_ROWS // len(block) + 1]))
    tail = draw(st.lists(row, max_size=3))
    return [f"h{i}" for i in range(width)], block * copies + tail


class TestCsvWriter:
    def test_floats_use_shortest_roundtrip_form(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["a", "b"], [[0.1, None], [1, "x"]])
        assert p.read_text() == "a,b\n0.1,\n1,x\n"

    def test_headers_only_when_no_rows(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["a", "b"], [])
        assert p.read_text() == "a,b\n"

    def test_numpy_scalars_write_as_python_numbers(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["a", "b", "c"], [[np.float64(0.25), np.int64(3), None]])
        assert p.read_text() == "a,b,c\n0.25,3,\n"

    def test_ids_that_need_quoting_are_quoted(self, tmp_path):
        p = tmp_path / "t.csv"
        ids = ["a,b", 'q"x', "c\nd", "e\rf", "plain"]
        write_csv(p, ["id", "n"], [[i, n] for n, i in enumerate(ids)])
        assert p.read_bytes() == b'id,n\n"a,b",0\n"q""x",1\n"c\nd",2\n"e\rf",3\nplain,4\n'
        with p.open(newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh)) == [["id", "n"], *([i, str(n)] for n, i in enumerate(ids))]

    @pytest.mark.parametrize("header, rows", [(["a", "b"], [[1, 2], [3]]),
                                              (["a"], [[1, 2]]), ([], [])])
    def test_a_row_not_of_the_header_width_writes_nothing(self, tmp_path, header, rows):
        p = tmp_path / "t.csv"
        with pytest.raises(ConfigError, match="one cell per header name"):
            write_csv(p, header, rows)
        assert not p.exists()

    @given(_csv_rows())
    @example((["x", "y"], [[0.1, 2]] * _WRITE_ROWS + [[None, "a,b"]]))
    def test_bytes_equal_per_cell_text(self, tmp_path_factory, csv_rows):
        header, rows = csv_rows
        p = tmp_path_factory.getbasetemp() / "cells.csv"
        write_csv(p, header, iter(rows))
        expected = ",".join(header) + "\n" + "".join(
            ",".join(map(_cell_text, row)) + "\n" for row in rows
        )
        assert p.read_bytes() == expected.encode("utf-8")
