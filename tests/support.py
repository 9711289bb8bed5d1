"""Shared helpers for driving the collection engines in tests, and a
Hypothesis strategy for arbitrary JSON-lines input."""

import json

import numpy as np
from hypothesis import strategies as st

from gtx.model import LabelerEstimate
from gtx.simulation import SimDataset, SimLabeler, UniformStream


class Script(UniformStream):
    """A UniformStream that plays back a fixed list of draws.

    Lets a test decide exactly which labeler is selected and whether each
    elicited label is correct (draw order per label: selection, then
    correctness).  Running past the script is a test bug: ``random`` raises,
    and ``take`` returns only the draws left, so an engine that keeps a
    label without both of its draws raises.
    """

    def __init__(self, values):
        self._vals = [float(v) for v in values]
        self._i = 0

    def random(self):
        v = self._vals[self._i]
        self._i += 1
        return v

    def take(self, n):
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
