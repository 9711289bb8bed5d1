"""File formats: JSONL label records, JSON experiment configs, CSV outputs.

All writers produce byte-deterministic output for a given input: JSON is
written with sorted keys and compact separators, CSV rows use ``\\n`` line
endings, and floats are formatted with ``repr`` (shortest round-trip form).

Label-record files are JSON Lines; each line holds exactly
``{"example_id": ..., "labeler_id": ..., "step": n, "value": 0|1}`` with
``step`` strictly increasing across the file.  Event logs reuse the same
schema plus a ``confidence`` field, and readers ignore the extra keys, so an
event log is itself a valid label-record file.  The reader reads columns:
the generator ``_label_blocks`` yields each checked block's example ids,
labeler ids, values and steps as lists, and only ``read_label_records``
builds ``LabelRecord``s from them; ``gtx assess`` and
``read_assessment_set`` build none.  A read keeps a memo of its labeler
ids, so the records, pairs and per-labeler groups of one labeler share one
id object (for the first ``_MEMO_IDS`` labelers of a file).  The record
rules live in one check, ``_columns``, which only the reader's block and
line paths call.  ``write_label_records`` and ``write_event_log`` of a
plain sequence read the lines they would write by ``_label_blocks``
(``_checked_cells``), so they refuse the files the reader refuses, with
the reader's message, before they open the file.

One writer, ``write_columns``, writes event logs, label records and every
CSV by columns, as UTF-8 bytes.  Integers are written by ``%d``; each
distinct float, and each pool id of an ``EventLog``, is formatted and
encoded once.  Each ``_WRITE_ROWS`` rows are one row-major table of cells
and one bytes ``%``, so no table of cells grows with the file.  ``write_csv``
hands it the rows of ``summary.csv``, ``best_cells.csv`` and
``estimates.csv`` as columns: None is an empty cell, and a str holding a
comma, a double quote or a line break is quoted as RFC 4180 says, so any
CSV reader reads each row back.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import re
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, fields
from typing import Mapping, Sequence

import numpy as np

from .aggregators import Method
from .assessment import AssessmentSet
from .errors import ConfigError, DataError, as_path, is_int, is_number
from .model import LabelRecord, as_label
from .simulation import MAX_SIZE
from .strategies import EventLog, LabelEvent

__all__ = [
    "DEFAULT_TAU_GRID",
    "ExperimentConfig",
    "config_from_dict",
    "load_config",
    "read_assessment_set",
    "read_label_records",
    "tau_code",
    "write_aggregates_csv",
    "write_columns",
    "write_csv",
    "write_event_log",
    "write_json",
    "write_label_records",
]

DEFAULT_TAU_GRID = (0.85, 0.87, 0.89, 0.91, 0.93, 0.95, 0.96, 0.97, 0.99)


def write_json(path, payload) -> None:
    """Write one JSON object as a single sorted, compact line."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    as_path(path).write_text(text, encoding="utf-8")


def _csv_cell(v):
    """The value whose ``%s`` form is ``v``'s CSV cell: "" for None, and a
    str holding ``,``, ``"``, ``\\r`` or ``\\n`` in double quotes, each ``"``
    doubled (RFC 4180).  Any other value is kept, as ``%s`` already writes an
    int by ``str`` and a float, numpy float64 too, by ``repr``."""
    if v is None:
        return ""
    if isinstance(v, str) and any(c in v for c in ',"\r\n'):
        return '"' + v.replace('"', '""') + '"'
    return v


def write_csv(path, header: Sequence[str], rows) -> None:
    """Write ``header`` and ``rows`` of already-ordered cells through the one
    writer, ``write_columns``: None is an empty cell, a str holding a comma,
    a double quote or a line break is quoted (RFC 4180), an int is written
    by ``str`` and a float by ``repr``.  A row whose length is not the
    header's, or an empty header, is a ``ConfigError``, raised before the
    file is opened."""
    width = len(header)
    cells = [[_csv_cell(v) for v in row] for row in rows]
    if not width or any(len(row) != width for row in cells):
        raise ConfigError(f"{path}: each row must have one cell per header name ({width})")
    table = np.array(cells, object).reshape(len(cells), width)
    write_columns(path, ",".join(header) + "\n", [(",".join(["%s"] * width) + "\n", table.T)])


_WRITE_ROWS = 1024  # rows per bytes ``%`` of write_columns
_CELL = re.compile("%%|%s")  # a template's tokens: a literal "%", or one cell


def _float_cells(column, form) -> np.ndarray:
    """``form(v)`` of each float64 ``v`` of ``column``, UTF-8-encoded, as an
    object array: ``form`` and the encoding run once per distinct bit
    pattern, so that -0.0 and every nan keep their own text."""
    bits, where = np.unique(column.view(np.int64), return_inverse=True)
    texts = map(str.encode, map(form, bits.view(np.float64).tolist()))
    return np.array(list(texts), object)[where]


def write_columns(path, head: str, blocks, form=repr) -> None:
    """Write ``head``, then ``template % row`` for each row of each
    ``(template, columns)`` block of numpy columns, as UTF-8 bytes.

    A template's ``%s`` takes an integer column's cells by ``%d``, a float64
    column's as ``form`` of its values, and any other column's as ``%s``
    writes its ``tolist`` values, but bytes as they are.  Each
    ``_WRITE_ROWS`` rows are one row-major table of cells and one bytes
    ``%``, so no table of cells grows with the file."""
    with as_path(path).open("wb") as fh:
        fh.write(head.encode())
        for template, columns in blocks:
            # "d": integers, written by %d; "f": float64, by form; "s": any other
            kinds = ["d" if c.dtype.kind in "iu" else "f" if c.dtype == np.float64 else "s"
                     for c in columns]
            columns = [_float_cells(c, form) if k == "f" else c for k, c in zip(kinds, columns)]
            marks = iter(kinds)
            template = _CELL.sub(lambda m: "%d" if m[0] == "%s" and next(marks, "") == "d"
                                 else m[0], template).encode()
            n = len(columns[0])
            for lo in range(0, n, _WRITE_ROWS):
                table = np.empty((min(n - lo, _WRITE_ROWS), len(columns)), object)
                for j, c in enumerate(columns):
                    part = c[lo:lo + _WRITE_ROWS]
                    table[:, j] = part if kinds[j] != "s" else [  # %s's text; bytes as is
                        v if type(v) is bytes else str(v).encode() for v in part.tolist()]
                fh.write(template * len(table) % tuple(table.ravel().tolist()))


# ---------------------------------------------------------------------------
# label records and event logs


def _value(v) -> str:
    """One JSON value exactly as ``json.dumps`` writes it: plain ints and
    finite floats by ``repr``, a numpy integer as its int and a numpy float
    as the float it equals, everything else (str, bool, nan, inf) through
    ``json.dumps``, which raises a ``TypeError`` for what JSON cannot hold."""
    t = type(v)
    if t is int or (t is float and math.isfinite(v)):
        return repr(v)
    if isinstance(v, np.integer):
        return repr(int(v))
    return json.dumps(float(v) if isinstance(v, np.floating) else v)


def _record_id(v):
    """An id as ``read_label_records`` takes it: a str as is, an integer as an int."""
    if type(v) is str:
        return v
    if is_int(v):
        return int(v)
    raise DataError(f"example_id and labeler_id must be strings or integers, got {v!r}")


def write_label_records(path, records: Sequence[LabelRecord], steps=None) -> None:
    """Write ``(example_id, labeler_id, value)`` records as JSONL, steps 1..n
    by default: integer steps and ids (numpy integers written as ints), str
    ids and values 0 or 1 (``as_label``).  ``_checked_cells`` then reads the
    lines as the reader reads them: the writer refuses the files the reader
    refuses, with its message.  Every fault is a ``DataError`` raised before
    the file is opened, an int too long to write too."""
    try:
        records = [tuple(rec) for rec in records]
        steps = list(range(1, len(records) + 1) if steps is None else steps)
    except TypeError:  # not iterable
        raise DataError("records, each record and steps must be sequences") from None
    if len(steps) != len(records):
        raise DataError("steps and records differ in length")

    def row(step, rec):  # a record's fields in _FIELDS order
        if len(rec) != 3:
            raise DataError(f"a record must be (example_id, labeler_id, value), got {rec!r}")
        if not is_int(step):
            raise DataError(f"steps must be integers, got {step!r}")
        ex, lab, v = rec
        return _record_id(ex), _record_id(lab), int(step), as_label(v)

    write_columns(path, "", [(_LINE, _checked_cells(path, _LINE, map(row, steps, records)))])


_RECORD_KEYS = {"example_id", "labeler_id", "step", "value"}
_OPTIONAL_KEYS = {"confidence", "method"}
_ID_TYPES = {str, int}  # exact types: a bool, list or dict id is rejected
_FIELDS = tuple(sorted(_RECORD_KEYS))  # the order of the columns, and of a line's keys
_LINE = '{"example_id":%s,"labeler_id":%s,"step":%s,"value":%s}\n'
_READ_LINES = 1024  # lines per block of read_label_records
_MEMO_IDS = 4096  # a read's memo of labeler ids takes new ids while it holds fewer


def _columns(path, lineno, rows, seen, last, memo):
    """The example id, labeler id, value and step columns of ``rows``,
    decoded JSON values, if each is a record, their pairs then added to
    ``seen``; else the ``DataError`` of line ``lineno`` of ``path`` for the
    first rule they break, in the documented order: an object, the keys, str
    or int ids, an int step above the one before it (``last`` before the
    first; None: any), a value that is exactly the int 0 or 1, and a pair
    new to ``seen`` (left unchanged) and to the rows before it.  The one
    home of the record rules: each is checked by column, and the text is the
    reader's when ``rows`` is one row.  Each labeler id becomes the one
    ``memo`` holds for it, and ``memo`` takes the ids new to it while it
    holds fewer than ``_MEMO_IDS``."""
    at = f"{path}:{lineno}: "
    if not set(map(type, rows)) <= {dict}:
        raise DataError(at + "expected an object per line")
    try:
        ex, lab, steps, values = (list(map(operator.itemgetter(k), rows)) for k in _FIELDS)
        keys = set(map(tuple, rows)) if set(map(len, rows)) - {len(_FIELDS)} else ()
    except KeyError:
        keys = map(tuple, rows)
    for row_keys in keys:
        if set(row_keys) - _OPTIONAL_KEYS != _RECORD_KEYS:
            raise DataError(f"{at}expected keys {sorted(_RECORD_KEYS)}, got {sorted(row_keys)}")
    if not set(map(type, ex)) | set(map(type, lab)) <= _ID_TYPES:
        e, b = next(p for p in zip(ex, lab) if not {type(p[0]), type(p[1])} <= _ID_TYPES)
        raise DataError(
            f"{at}example_id and labeler_id must be strings or integers, got {e!r} and {b!r}")
    if not set(map(type, steps)) <= {int}:  # JSON numbers decode to exact ints
        raise DataError(at + "step must be an integer")
    order = steps if last is None else [last, *steps]
    if not all(map(operator.lt, order, order[1:])):
        b, s = next(p for p in zip(order, order[1:]) if p[0] >= p[1])
        raise DataError(f"{at}steps must be strictly increasing ({s} after {b})")
    if not (set(map(type, values)) <= {int} and set(values) <= {0, 1}):
        v = next(v for v in values if type(v) is not int or v not in (0, 1))
        raise DataError(f"{at}value must be the int 0 or 1, got {v!r}")
    # one id object per labeler, shared by its records and pairs
    lab = list(map(memo.setdefault if len(memo) < _MEMO_IDS else memo.get, lab, lab))
    pairs = set(zip(ex, lab))
    if len(pairs) != len(rows) or not seen.isdisjoint(pairs):
        met = set()  # the pairs of the rows before
        for e, b in zip(ex, lab):
            if (e, b) in seen or (e, b) in met:
                raise DataError(f"{at}duplicate label for example {e!r} by labeler {b!r}")
            met.add((e, b))
    seen.update(pairs)
    return ex, lab, values, steps


def _read_lines(path, lines, lineno, seen, last, memo):
    """``_columns`` of ``lines``, the first of them line ``lineno`` of
    ``path``, built row by row: each non-blank line is decoded and checked
    (with ``memo``) as a block of one row, so a fault names its line."""
    columns = ([], [], [], [])
    for lineno, line in enumerate(lines, start=lineno):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except (ValueError, RecursionError) as exc:  # ValueError: an int too long to read
            raise DataError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        for column, new in zip(columns, _columns(path, lineno, [row], seen, last, memo)):
            column += new
        last = columns[3][-1]
    return columns


def _read_block(path, lines, lineno, seen, last, memo):
    """``_read_lines`` of ``lines``, but read as one JSON array of their
    stripped, non-blank text, checked by ``_columns`` as one block; a block
    that fails is read line by line, which names its first fault.  Each line
    holds one ``{`` and ends in ``}``, and there are as many rows as lines,
    each an object (``_columns`` checks that), so each line's ``{`` opens its
    row and nothing else: no ``{`` sits in a string or opens a nested object.
    A JSON string holds no raw newline, so the ``}`` that ends a line is
    outside any string and closes its row; each row is its own line's text."""
    stripped = list(filter(None, map(str.strip, lines)))
    if (set(map(str.count, stripped, itertools.repeat("{"))) <= {1}
            and all(map(str.endswith, stripped, itertools.repeat("}")))):
        try:
            rows = json.loads("[" + ",\n".join(stripped) + "]")
            if len(rows) == len(stripped):
                return _columns(path, lineno, rows, seen, last, memo)
        except (ValueError, RecursionError):  # a DataError too: named line by line
            pass
    return _read_lines(path, lines, lineno, seen, last, memo)


def _label_blocks(path, text=None):
    """Read a JSONL label-record file once, or ``text``, the lines a writer
    would write to ``path``, ``_READ_LINES`` lines at a time, yielding the
    example ids, labeler ids, values and steps of each checked block as
    lists; text that is not UTF-8 is a ``DataError`` naming only the file,
    unless a line before it is faulty.  The labeler ids yielded are one
    object per labeler: a memo of this read's ids maps each to its first (of
    the first ``_MEMO_IDS`` or so labelers; later ones' ids stay as read)."""
    seen, memo, last = set(), {}, None
    with as_path(path).open("r", encoding="utf-8") if text is None else nullcontext(text) as fh:
        lines, lineno = [], 1
        try:
            for line in fh:
                lines.append(line)
                if len(lines) == _READ_LINES:
                    block = _read_block(path, lines, lineno, seen, last, memo)
                    last = block[3][-1] if block[3] else last
                    yield block
                    lines, lineno = [], lineno + _READ_LINES
        except UnicodeDecodeError as exc:  # the lines read before it are checked first
            _read_lines(path, lines, lineno, seen, last, memo)
            raise DataError(f"{path}: invalid UTF-8: {exc}") from None
        yield _read_block(path, lines, lineno, seen, last, memo)


def read_label_records(path) -> tuple[list[LabelRecord], list[int]]:
    """Read a JSONL label-record file, validating the schema.

    Returns (records, steps).  Steps must be strictly increasing integers
    and values exactly the integer 0 or 1 (not true, not 1.0); a repeated
    (example_id, labeler_id) pair, like any fault, is a ``DataError`` naming
    the first faulty line (``_label_blocks``).  Each block's records are
    built from the columns read.
    """
    records, steps = [], []
    for ex, lab, values, block_steps in _label_blocks(path):
        records += map(tuple.__new__, itertools.repeat(LabelRecord), zip(ex, lab, values))
        steps += block_steps
    return records, steps


def read_assessment_set(path) -> AssessmentSet:
    """Load expert truth from a label-record file (labeler ids are ignored);
    a file with no records is a ``DataError`` naming it."""
    items = [item for ex, _, values, _ in _label_blocks(path) for item in zip(ex, values)]
    if not items:
        raise DataError(f"{path}: assessment set has no items")
    truth = {}
    for ex, value in items:
        if ex in truth:
            raise DataError(f"{path}: duplicate truth for example {ex!r}")
        truth[ex] = value
    return AssessmentSet(example_ids=tuple(truth), true_labels=tuple(truth.values()))


def _checked_cells(path, template, rows) -> np.ndarray:
    """The columns of cells of ``rows``, each value as ``_value`` writes it,
    once the lines ``template`` makes of them are read by ``_label_blocks``,
    the reader's path: the writers refuse the files the reader refuses, with
    its ``DataError``.  An int too long to write is the ``DataError`` of its
    line N, raised once lines 1..N-1 are read."""
    cells = []
    for row in rows:
        try:
            cells.append(tuple(map(_value, row)))
        except ValueError as exc:  # an int of more digits than Python writes
            deque(_label_blocks(path, (template % c for c in cells)), 0)  # lines 1..N-1
            raise DataError(f"{path}:{len(cells) + 1}: invalid JSON: {exc}") from None
    deque(_label_blocks(path, (template % c for c in cells)), 0)  # read, block by block
    return np.array(cells, object).reshape(-1, _CELL.findall(template).count("%s")).T


def write_event_log(path, events: Sequence[LabelEvent], method=None) -> None:
    """Write collection events as JSONL (label-record schema + confidence).

    An ``EventLog`` is valid by construction.  The lines of any other
    sequence are read as the reader reads them (``_checked_cells``) before
    the file is opened, so the writer refuses, with the reader's
    ``DataError``, the files the reader refuses.  Its numpy integers are
    written as ints and numpy floats as the floats they equal; any other
    value JSON cannot hold is a ``DataError``, raised before the file is
    opened too."""
    keys = '"step":%s,"value":%s}\n'
    if method is not None:  # the same in every row, so part of the template
        keys = '"method":' + _value(str(method)).replace("%", "%%") + "," + keys
    template = '{"confidence":%s,"example_id":%s,"labeler_id":%s,' + keys
    try:
        if isinstance(events, EventLog):  # each pool member's id formatted and encoded once
            ids = np.array([_value(i).encode() for i in events.pool_ids], object)
            columns = [events.confidences, events.example_ids, ids[events.positions],
                       events.steps, events.values]
        else:  # any other sequence: each event's fields in sorted-key order
            columns = _checked_cells(path, template,
                                     map(operator.itemgetter(4, 1, 2, 0, 3), events))
    except DataError:  # the reader's, of a plain sequence's lines
        raise
    except ValueError as exc:  # an EventLog pool id of more digits than Python writes
        raise DataError(f"{path}: invalid JSON: {exc}") from None
    except TypeError as exc:  # a value JSON cannot hold, or an event that is not a sequence
        raise DataError(f"{path}: cannot write the events: {exc}") from None
    write_columns(path, "", [(template, columns)], _value)


def write_aggregates_csv(path, outcomes, true_labels) -> None:
    """Per-example final aggregates and true labels, one block per (method,
    example).

    ``outcomes`` is a list of CollectionOutcome; rows are ordered by the
    listing order then example id.
    """
    def block(out):
        n = out.n_labeled
        columns = [np.arange(n), out.labels_per_example, out.labels, out.confidences,
                   out.soft_p1s, np.asarray(true_labels[:n], np.int64)]
        return str(out.method) + ",%s" * len(columns) + "\n", columns

    write_columns(path, "method,example_id,n_labels,label,confidence,soft_p1,true_label\n",
                  map(block, outcomes))


# ---------------------------------------------------------------------------
# experiment configuration

_STRATEGIES = ("threshold", "uncertainty")
# the least valid value of each integer field
_INT_MINIMUMS = {"seed": 0, "trials": 1, "budget": 0, "n_examples": 1,
                 "n_labelers": 1, "kappa": 1, "assessment_size": 1}
_LISTS = (list, tuple, range)
_INVALID = "invalid config: "


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-resolved experiment description; its fields are the config
    file's keys (``config_from_dict`` fills in the defaults).

    Construction validates: building a config, directly or with
    ``dataclasses.replace``, checks every field and raises one
    ``ConfigError`` naming each problem.  A valid config holds ints, tuples,
    ``Method`` members, and float taus and accuracy bounds.
    """

    strategy: str
    methods: tuple
    seed: int
    trials: int
    budget: int
    n_examples: int
    n_labelers: int
    kappa: int
    tau_grid: tuple
    fixed_counts: tuple
    accuracy_interval: tuple
    assessment_size: int
    oracle_accuracy: bool

    def __post_init__(self):
        problems: list[str] = []
        if not isinstance(self.strategy, str) or self.strategy not in _STRATEGIES:
            problems.append(f"strategy must be one of {list(_STRATEGIES)}, got {self.strategy!r}")

        valid = {}  # the fields of a valid form, so far
        for key, least in _INT_MINIMUMS.items():
            v = getattr(self, key)
            if not is_int(v):
                problems.append(f"{key} must be an integer, got {v!r}")
            elif v < least:
                problems.append(f"{key} must be >= {least}, got {v}")
            elif v > MAX_SIZE and key in ("n_examples", "n_labelers", "assessment_size"):
                problems.append(f"{key} must be <= {MAX_SIZE}, got {v}")
            else:
                valid[key] = v
        for key in ("methods", "tau_grid", "fixed_counts"):
            v = getattr(self, key)
            if isinstance(v, _LISTS) and v:
                valid[key] = v
            else:
                problems.append(f"{key} must be a non-empty list, got {v!r}")

        methods: set[Method] = set()
        for m in valid.get("methods", ()):
            try:
                method = Method(m)
            except ConfigError:
                problems.append(f"unknown method {m!r}; choose from {[x.value for x in Method]}")
                continue
            if method in methods:
                problems.append(f"duplicate method {method}")
            methods.add(method)

        kappa = valid.get("kappa")
        if kappa is not None and kappa > valid.get("n_labelers", kappa):
            problems.append(f"kappa ({kappa}) exceeds n_labelers ({self.n_labelers})")

        codes: dict[int, float] = {}
        for t in valid.get("tau_grid", ()):
            if not is_number(t):
                problems.append(f"tau values must be numbers, got {t!r}")
            elif not 0.5 < t <= 1.0:  # nan too
                problems.append(f"tau must be in (0.5, 1], got {t}")
            elif tau_code(t) in codes:
                problems.append(f"taus {codes[tau_code(t)]} and {t} share the cell code "
                                f"round(tau * 10000) = {tau_code(t)}")
            else:
                codes[tau_code(t)] = t

        counts: set[int] = set()
        for c in valid.get("fixed_counts", ()):
            if not is_int(c):
                problems.append(f"fixed counts must be integers, got {c!r}")
            elif not 1 <= c <= (kappa or c):  # no upper bound while kappa is invalid
                problems.append(f"fixed counts must be in 1..kappa ({self.kappa}), got {c}")
            elif c in counts:
                problems.append(f"duplicate fixed count {c}")
            else:
                counts.add(c)

        interval = self.accuracy_interval
        if not (isinstance(interval, _LISTS) and len(interval) == 2
                and all(map(is_number, interval))):
            problems.append(f"accuracy_interval must be a [low, high] pair, got {interval!r}")
        elif not 0.0 <= interval[0] <= interval[1] <= 1.0:
            problems.append(
                f"accuracy_interval must satisfy 0 <= low <= high <= 1, got {interval!r}")

        if not isinstance(self.oracle_accuracy, bool):
            problems.append(f"oracle_accuracy must be true or false, got {self.oracle_accuracy!r}")

        if problems:
            raise ConfigError(_INVALID + "; ".join(problems))
        for key in _INT_MINIMUMS:  # a numpy integer becomes the int JSON can write
            object.__setattr__(self, key, int(valid[key]))
        object.__setattr__(self, "methods", tuple(map(Method, self.methods)))
        object.__setattr__(self, "tau_grid", tuple(map(float, self.tau_grid)))
        object.__setattr__(self, "fixed_counts", tuple(map(int, self.fixed_counts)))
        object.__setattr__(self, "accuracy_interval", tuple(map(float, interval)))

    def as_dict(self) -> dict:
        """Plain-JSON form; feeding it back through config_from_dict yields
        an equal config (defaulting is idempotent)."""
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = [str(x) if isinstance(x, Method) else x for x in v]
            out[f.name] = v
        return out


_ALLOWED_KEYS = frozenset(f.name for f in fields(ExperimentConfig))
# fixed_counts default to 1..kappa only up to here; a larger kappa lists them
_MAX_DEFAULT_COUNTS = 10_000


def tau_code(tau: float) -> int:
    """A tau cell's code, its part of the collection spawn key: tau in units
    of 1e-4.  The taus of one config must have distinct codes."""
    return round(tau * 10000)


def _int_or(raw, key, default):
    """``raw[key]`` when it is a valid value for that key, else ``default``:
    the value other keys' defaults are derived from."""
    v = raw.get(key, default)
    return v if is_int(v) and v >= _INT_MINIMUMS[key] else default


def config_from_dict(raw: Mapping) -> ExperimentConfig:
    """Resolve a raw config mapping, reporting every problem at once.

    Every key is an ``ExperimentConfig`` field, which checks its value.
    Unset keys get defaults.  Threshold strategy: budget 15,000 with
    n_examples equal to the budget, 10 labelers, kappa 5, tau grid
    DEFAULT_TAU_GRID, fixed counts 1..kappa for MV/WMV, accuracies
    U(0.8, 1.0), assessment size 100, 100 trials, all four methods, seed 0.
    The uncertainty strategy defaults to 5,000 examples, a budget of
    3 * n_examples, and 10 trials.  A default derived from an invalid value
    is derived from that key's default instead.
    """
    if not isinstance(raw, Mapping):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    problems: list[str] = []

    # a key that is not printable text (a newline, a number) is shown quoted
    unknown = sorted(k if isinstance(k, str) and k.isprintable() else repr(k)
                     for k in set(raw) - _ALLOWED_KEYS)
    if unknown:
        problems.append(f"unknown config keys: {', '.join(unknown)}")

    uncertainty = raw.get("strategy") == "uncertainty"
    if uncertainty:
        n_examples = _int_or(raw, "n_examples", 5000)
        budget = 3 * n_examples
    else:
        budget = _int_or(raw, "budget", 15000)
        n_examples = max(budget, 1)
    kappa = _int_or(raw, "kappa", 5)
    if "fixed_counts" not in raw and kappa > _MAX_DEFAULT_COUNTS:
        problems.append(
            f"kappa ({kappa}) exceeds {_MAX_DEFAULT_COUNTS}, the largest "
            "default fixed_counts grid 1..kappa; list fixed_counts instead"
        )

    defaults = {
        "strategy": None,
        "methods": [m.value for m in Method],
        "seed": 0,
        "trials": 10 if uncertainty else 100,
        "budget": budget,
        "n_examples": n_examples,
        "n_labelers": 10,
        "kappa": 5,
        "tau_grid": DEFAULT_TAU_GRID,
        # one sweep cell per count, 1..kappa (past the cap, an error above)
        "fixed_counts": range(1, min(kappa, _MAX_DEFAULT_COUNTS) + 1),
        "accuracy_interval": (0.8, 1.0),
        "assessment_size": 100,
        "oracle_accuracy": False,
    }
    try:
        config = ExperimentConfig(**{key: raw.get(key, v) for key, v in defaults.items()})
    except ConfigError as exc:
        problems.append(str(exc).removeprefix(_INVALID))
    if problems:
        raise ConfigError(_INVALID + "; ".join(problems))
    return config


def load_config(path) -> ExperimentConfig:
    """Load and validate a JSON config file."""
    file = as_path(path)  # outside the try: a ConfigError is a ValueError
    try:
        raw = json.loads(file.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too long an int, too deep
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    return config_from_dict(raw)
