"""Shared helpers for driving the collection engines and reading their
outcomes in tests, and Hypothesis strategies for arbitrary JSON-lines
input and arbitrary experiment configs."""

import json

import numpy as np
from hypothesis import strategies as st

from gtx.aggregators import AggregateLabel, Method
from gtx.io import _ALLOWED_KEYS
from gtx.model import LabelerEstimate
from gtx.simulation import SimDataset, SimLabeler


class Script:
    """A draw source that plays back a fixed list of draws.

    Lets a test decide exactly which labeler is selected and whether each
    elicited label is correct (draw order per label: selection, then
    correctness).  ``random()`` returns one draw and ``random(n)`` an array
    of the next ``n``, as a numpy Generator does.  Running past the script
    is a test bug: ``random()`` raises, and ``random(n)`` returns only the
    draws left, so an engine that keeps a label without both of its draws
    raises.
    """

    def __init__(self, values):
        self._vals = [float(v) for v in values]
        self._i = 0

    def random(self, n=None):
        if n is None:
            v = self._vals[self._i]
            self._i += 1
            return v
        vals = self._vals[self._i:self._i + n]
        self._i += len(vals)
        return np.array(vals, dtype=float)

    @property
    def consumed(self):
        return self._i


def make_dataset(true_labels):
    return SimDataset(true_labels=np.asarray(true_labels, dtype=np.int8))


def make_labelers(accuracies):
    return [SimLabeler(labeler_id=i, accuracy=a) for i, a in enumerate(accuracies)]


def make_estimates(accuracies):
    return {
        i: LabelerEstimate(labeler_id=i, accuracy=a)
        for i, a in enumerate(accuracies)
    }


def finals(outcome):
    """Each labeled example's final aggregate, keyed by example id, from the
    outcome's array columns."""
    columns = (outcome.labels, outcome.confidences, outcome.soft_p1s,
               outcome.labels_per_example)
    rows = zip(*(c.tolist() for c in columns))
    return {ex: AggregateLabel(ex, outcome.method, *row) for ex, row in enumerate(rows)}


WRONG = 0.9999  # correctness draw that fails any clamped accuracy
RIGHT = 0.0  # correctness draw that succeeds for any positive accuracy
FIRST = 0.0  # selection draw that picks the lowest-id unused labeler


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)
_near_values = st.one_of(st.integers(-1, 3), st.text(max_size=2), json_values)
# JSON lines: objects with some or all record keys and any values, any JSON
# value, or any text at all
json_lines = st.one_of(
    st.fixed_dictionaries(
        {}, optional={k: _near_values for k in
                      ("example_id", "labeler_id", "step", "value", "confidence", "extra")},
    ).map(json.dumps),
    json_values.map(lambda v: json.dumps(v, allow_nan=True)),
    st.text(max_size=20),
)

_int18 = st.integers(-(10**18), 10**18)
_methods = st.sampled_from([m.value for m in Method])
# values near each key's valid form (sizes up to 1e18), so that draws get
# past the early checks and reach the defaults and the final construction
_near = {
    "strategy": st.sampled_from(["threshold", "uncertainty"]),
    "methods": st.lists(_methods, max_size=4),
    "tau_grid": st.lists(st.floats(0.5, 1.0), min_size=1, max_size=4),
    "fixed_counts": st.lists(st.integers(1, 10**18), min_size=1, max_size=4),
    "accuracy_interval": st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted),
    "oracle_accuracy": st.booleans(),
}
_near_configs = st.fixed_dictionaries({"strategy": _near["strategy"]}, optional={
    key: _near.get(key, st.integers(0, 10**18)) for key in sorted(_ALLOWED_KEYS - {"strategy"})
})
# any JSON value, or any integer up to +-1e18, on every key, unknown ones too
_any_configs = st.fixed_dictionaries({}, optional={
    key: st.one_of(_near.get(key, _int18), _int18, json_values)
    for key in sorted(_ALLOWED_KEYS | {"extra"})
})
# raw config mappings: near-valid ones, and any values on the known keys
fuzz_configs = _near_configs | _any_configs
