"""File formats: JSONL label records, JSON experiment configs, CSV outputs.

All writers produce byte-deterministic output for a given input: JSON is
written with sorted keys and compact separators, CSV rows use ``\\n`` line
endings, and floats are formatted with ``repr`` (shortest round-trip form).

Label-record files are JSON Lines; each line holds exactly
``{"example_id": ..., "labeler_id": ..., "step": n, "value": 0|1}`` with
``step`` strictly increasing across the file.  Event logs reuse the same
schema plus a ``confidence`` field, and readers ignore the extra keys, so an
event log is itself a valid label-record file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from operator import itemgetter
from pathlib import Path
from typing import Mapping, Sequence

from .aggregators import Method
from .assessment import AssessmentSet
from .errors import AlreadyLabeled, ConfigError
from .model import LabelRecord
from .strategies import LabelEvent

__all__ = [
    "DEFAULT_TAU_GRID",
    "ExperimentConfig",
    "config_from_dict",
    "fmt",
    "load_config",
    "read_assessment_set",
    "read_label_records",
    "tau_code",
    "write_aggregates_csv",
    "write_csv",
    "write_event_log",
    "write_json",
    "write_label_records",
]

DEFAULT_TAU_GRID = (0.85, 0.87, 0.89, 0.91, 0.93, 0.95, 0.96, 0.97, 0.99)


def fmt(value) -> str:
    """Deterministic cell formatting: repr for floats, empty for None.

    numpy scalars are coerced first so a cell never reads np.float64(...).
    """
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, int):
        return str(int(value))
    return str(value)


def write_json(path, payload) -> None:
    """Write one JSON object as a single sorted, compact line."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def write_csv(path, header: Sequence[str], rows) -> None:
    """Write rows of already-ordered values; floats via repr, None empty."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# label records and event logs


def _value(v) -> str:
    """One JSON value exactly as ``json.dumps`` writes it: plain ints and
    finite floats by ``repr``, everything else (str, bool, nan, inf) through
    ``json.dumps``."""
    t = type(v)
    if t is int or (t is float and math.isfinite(v)):
        return repr(v)
    return json.dumps(v)


def _write_rows(path, template: str, rows) -> None:
    """Write one JSON object per row in one ``write``: ``template`` spells the
    sorted compact keys with a ``%s`` per value, so each line equals
    ``json.dumps(row_dict, sort_keys=True, separators=(",", ":"))``."""
    text = "".join([template % tuple(map(_value, row)) for row in rows])
    Path(path).write_text(text, encoding="utf-8")


def write_label_records(path, records: Sequence[LabelRecord], steps=None) -> None:
    """Write records as JSONL; steps default to 1..n and must be increasing."""
    steps = list(range(1, len(records) + 1) if steps is None else steps)
    if len(steps) != len(records):
        raise ValueError("steps and records differ in length")
    for last, step in zip([0] + steps, steps):
        if step <= last:
            raise ValueError(f"steps must be strictly increasing, got {step} after {last}")
    _write_rows(
        path, '{"example_id":%s,"labeler_id":%s,"step":%s,"value":%s}\n',
        ((rec.example_id, rec.labeler_id, step, rec.value)
         for step, rec in zip(steps, records)),
    )


_RECORD_KEYS = {"example_id", "labeler_id", "step", "value"}
_OPTIONAL_KEYS = {"confidence", "method"}
_ID_TYPES = (str, int)  # exact types: a bool, list or dict id is rejected


def read_label_records(path) -> tuple[list[LabelRecord], list[int]]:
    """Read a JSONL label-record file, validating the schema.

    Returns (records, steps).  Steps must be strictly increasing integers;
    a repeated (example_id, labeler_id) pair raises AlreadyLabeled.
    """
    records: list[LabelRecord] = []
    steps: list[int] = []
    seen: set[tuple] = set()
    last = None
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(row, dict):
                raise ValueError(f"{path}:{lineno}: expected an object per line")
            keys = set(row) - _OPTIONAL_KEYS
            if keys != _RECORD_KEYS:
                raise ValueError(
                    f"{path}:{lineno}: expected keys {sorted(_RECORD_KEYS)}, "
                    f"got {sorted(row)}"
                )
            ex, lab = row["example_id"], row["labeler_id"]
            if type(ex) not in _ID_TYPES or type(lab) not in _ID_TYPES:
                raise ValueError(
                    f"{path}:{lineno}: example_id and labeler_id must be strings "
                    f"or integers, got {ex!r} and {lab!r}"
                )
            step = row["step"]
            if not isinstance(step, int) or isinstance(step, bool):
                raise ValueError(f"{path}:{lineno}: step must be an integer")
            if last is not None and step <= last:
                raise ValueError(
                    f"{path}:{lineno}: steps must be strictly increasing "
                    f"({step} after {last})"
                )
            last = step
            rec = LabelRecord(example_id=ex, labeler_id=lab, value=row["value"])
            pair = (rec.example_id, rec.labeler_id)
            if pair in seen:
                raise AlreadyLabeled(
                    f"{path}:{lineno}: duplicate label for example "
                    f"{rec.example_id!r} by labeler {rec.labeler_id!r}"
                )
            seen.add(pair)
            records.append(rec)
            steps.append(step)
    return records, steps


def read_assessment_set(path) -> AssessmentSet:
    """Load expert truth from a label-record file (labeler ids are ignored)."""
    records, _ = read_label_records(path)
    ids = []
    labels = []
    seen = set()
    for rec in records:
        if rec.example_id in seen:
            raise ValueError(f"duplicate truth for example {rec.example_id!r}")
        seen.add(rec.example_id)
        ids.append(rec.example_id)
        labels.append(rec.value)
    return AssessmentSet(example_ids=tuple(ids), true_labels=tuple(labels))


# a LabelEvent's fields in the sorted-key order of its JSON line
_EVENT_FIELDS = itemgetter(4, 1, 2, 0, 3)


def write_event_log(path, events: Sequence[LabelEvent], method=None) -> None:
    """Write collection events as JSONL (label-record schema + confidence)."""
    keys = '"step":%s,"value":%s}\n'
    if method is not None:  # the same in every row, so part of the template
        keys = '"method":' + _value(str(method)).replace("%", "%%") + "," + keys
    template = '{"confidence":%s,"example_id":%s,"labeler_id":%s,' + keys
    _write_rows(path, template, map(_EVENT_FIELDS, events))


def write_aggregates_csv(path, outcomes, true_labels=None) -> None:
    """Per-example final aggregates, one block per (method, example).

    ``outcomes`` is a list of CollectionOutcome; rows are ordered by the
    listing order then example id.  ``true_labels`` adds a true_label column
    when available (simulated runs).
    """
    header = ["method", "example_id", "n_labels", "label", "confidence", "soft_p1"]
    if true_labels is not None:
        header.append("true_label")

    def rows():
        for out in outcomes:
            for i, ex in enumerate(out.example_ids):
                row = [
                    str(out.method),
                    ex,
                    out.labels_per_example[i],
                    out.labels[i],
                    out.confidences[i],
                    out.soft_p1s[i],
                ]
                if true_labels is not None:
                    row.append(int(true_labels[ex]))
                yield row

    write_csv(path, header, rows())


# ---------------------------------------------------------------------------
# experiment configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-resolved experiment description.

    Defaults (threshold strategy): budget 15,000 with n_examples equal to the
    budget, 10 labelers, kappa 5, tau grid DEFAULT_TAU_GRID, fixed counts
    1..kappa for MV/WMV, accuracies U(0.8, 1.0), assessment size 100, 100
    trials.  The uncertainty strategy defaults to 5,000 examples, a budget of
    3 * n_examples, and 10 trials.
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
    accuracy_low: float
    accuracy_high: float
    assessment_size: int
    oracle_accuracy: bool

    def replace(self, **kw) -> "ExperimentConfig":
        return replace(self, **kw)

    def as_dict(self) -> dict:
        """Plain-JSON form; feeding it back through config_from_dict yields
        an equal config (defaulting is idempotent)."""
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = [str(x) if isinstance(x, Method) else x for x in v]
            out[f.name] = v
        low = out.pop("accuracy_low")
        high = out.pop("accuracy_high")
        out["accuracy_interval"] = [low, high]
        return out


_ALLOWED_KEYS = {
    "strategy",
    "method",
    "methods",
    "seed",
    "trials",
    "budget",
    "n_examples",
    "n_labelers",
    "kappa",
    "tau_grid",
    "fixed_counts",
    "accuracy_interval",
    "assessment_size",
    "oracle_accuracy",
}

_STRATEGIES = ("threshold", "uncertainty")


def tau_code(tau: float) -> int:
    """A tau cell's code, its part of the collection spawn key: tau in units
    of 1e-4.  The taus of one config must have distinct codes."""
    return round(tau * 10000)


def _want_int(raw, key, problems, minimum, default):
    v = raw.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int):
        problems.append(f"{key} must be an integer, got {v!r}")
        return default
    if v < minimum:
        problems.append(f"{key} must be >= {minimum}, got {v}")
        return default
    return v


def config_from_dict(raw: Mapping) -> ExperimentConfig:
    """Validate and resolve a raw config mapping, reporting every problem."""
    if not isinstance(raw, Mapping):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    problems: list[str] = []

    unknown = sorted(set(raw) - _ALLOWED_KEYS)
    if unknown:
        problems.append(f"unknown config keys: {', '.join(unknown)}")

    strategy = raw.get("strategy")
    if strategy not in _STRATEGIES:
        problems.append(
            f"strategy must be one of {list(_STRATEGIES)}, got {strategy!r}"
        )
        strategy = "threshold"

    if "method" in raw and "methods" in raw:
        problems.append("give either 'method' or 'methods', not both")
    raw_methods = raw.get("methods", raw.get("method"))
    if raw_methods is None:
        raw_methods = [m.value for m in Method]
    if isinstance(raw_methods, str):
        raw_methods = [raw_methods]
    methods: list[Method] = []
    if not isinstance(raw_methods, Sequence) or not raw_methods:
        problems.append(f"methods must be a non-empty list, got {raw_methods!r}")
    else:
        for m in raw_methods:
            try:
                methods.append(Method(m))
            except ValueError:
                problems.append(
                    f"unknown method {m!r}; choose from "
                    f"{[x.value for x in Method]}"
                )

    uncertainty = strategy == "uncertainty"
    seed = _want_int(raw, "seed", problems, 0, 0)
    trials = _want_int(raw, "trials", problems, 1, 10 if uncertainty else 100)
    n_labelers = _want_int(raw, "n_labelers", problems, 1, 10)
    kappa = _want_int(raw, "kappa", problems, 1, 5)
    assessment_size = _want_int(raw, "assessment_size", problems, 1, 100)

    if uncertainty:
        n_examples = _want_int(raw, "n_examples", problems, 1, 5000)
        budget = _want_int(raw, "budget", problems, 0, 3 * n_examples)
    else:
        budget = _want_int(raw, "budget", problems, 0, 15000)
        n_examples = _want_int(raw, "n_examples", problems, 1, max(budget, 1))

    if kappa > n_labelers:
        problems.append(f"kappa ({kappa}) exceeds n_labelers ({n_labelers})")

    tau_grid = raw.get("tau_grid", list(DEFAULT_TAU_GRID))
    if not isinstance(tau_grid, Sequence) or isinstance(tau_grid, str) or not tau_grid:
        problems.append(f"tau_grid must be a non-empty list, got {tau_grid!r}")
        tau_grid = list(DEFAULT_TAU_GRID)
    else:
        codes: dict[int, float] = {}
        for t in tau_grid:
            if isinstance(t, bool) or not isinstance(t, (int, float)) or math.isnan(t):
                problems.append(f"tau values must be numbers, got {t!r}")
            elif not 0.5 < t <= 1.0:
                problems.append(f"tau must be in (0.5, 1], got {t}")
            elif tau_code(t) in codes:
                problems.append(
                    f"taus {codes[tau_code(t)]} and {t} share the cell code "
                    f"round(tau * 10000) = {tau_code(t)}"
                )
            else:
                codes[tau_code(t)] = t

    fixed_counts = raw.get("fixed_counts", list(range(1, kappa + 1)))
    if (
        not isinstance(fixed_counts, Sequence)
        or isinstance(fixed_counts, str)
        or not fixed_counts
    ):
        problems.append(f"fixed_counts must be a non-empty list, got {fixed_counts!r}")
        fixed_counts = list(range(1, kappa + 1))
    else:
        counts: set[int] = set()
        for c in fixed_counts:
            if isinstance(c, bool) or not isinstance(c, int):
                problems.append(f"fixed counts must be integers, got {c!r}")
            elif not 1 <= c <= kappa:
                problems.append(f"fixed counts must be in 1..kappa ({kappa}), got {c}")
            elif c in counts:
                problems.append(f"duplicate fixed count {c}")
            else:
                counts.add(c)

    interval = raw.get("accuracy_interval", [0.8, 1.0])
    low, high = 0.8, 1.0
    if (
        not isinstance(interval, Sequence)
        or isinstance(interval, str)
        or len(interval) != 2
        or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in interval)
    ):
        problems.append(
            f"accuracy_interval must be a [low, high] pair, got {interval!r}"
        )
    else:
        low, high = float(interval[0]), float(interval[1])
        if not (0.0 <= low <= high <= 1.0):
            problems.append(
                f"accuracy_interval must satisfy 0 <= low <= high <= 1, got {interval!r}"
            )

    oracle = raw.get("oracle_accuracy", False)
    if not isinstance(oracle, bool):
        problems.append(f"oracle_accuracy must be true or false, got {oracle!r}")
        oracle = False

    if problems:
        raise ConfigError("invalid config:\n  - " + "\n  - ".join(problems))

    return ExperimentConfig(
        strategy=strategy,
        methods=tuple(methods),
        seed=seed,
        trials=trials,
        budget=budget,
        n_examples=n_examples,
        n_labelers=n_labelers,
        kappa=kappa,
        tau_grid=tuple(float(t) for t in tau_grid),
        fixed_counts=tuple(int(c) for c in fixed_counts),
        accuracy_low=low,
        accuracy_high=high,
        assessment_size=assessment_size,
        oracle_accuracy=oracle,
    )


def load_config(path) -> ExperimentConfig:
    """Load and validate a JSON config file."""
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    return config_from_dict(raw)
