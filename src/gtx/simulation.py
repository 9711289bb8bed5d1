"""Synthetic data generation: datasets, labeler pools, and collection draws.

Everything here is driven by a numpy Generator and is reproducible from a
seed.  The documented draw order for one simulated trial is:

1. dataset true labels (one uniform per example, class 1 when u < 0.5),
2. labeler accuracies (one uniform each, mapped onto the accuracy interval),
3. assessment item labels (one uniform per item),
4. assessment responses (one uniform per labeler per item, labelers in id
   order, items in assessment order),
5. collection draws (two uniforms per collected label: labeler selection,
   then correctness).  Label j of a collection run uses draws 2j and
   2j + 1.  The uncertainty engine takes exactly two draws per label; the
   threshold engine takes them in blocks and may draw past its last label.

Steps 1-4 use the trial's environment stream; step 5 uses a separate
collection stream so that different collection cells can share one
environment (see gtx.experiments).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assessment import AssessmentSet
from .errors import ConfigError

__all__ = [
    "SimConfig",
    "SimDataset",
    "SimLabeler",
    "UniformStream",
    "draw_assessment",
    "init_simulation",
]


@dataclass(frozen=True)
class SimLabeler:
    """A simulated labeler with a known true accuracy in [0, 1]."""

    labeler_id: int
    accuracy: float

    def __post_init__(self):
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"true accuracy must be in [0, 1], got {self.accuracy}")


@dataclass(frozen=True)
class SimDataset:
    """True labels for examples 0..n-1.  Example ids are array indices."""

    true_labels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.true_labels, dtype=np.int8)
        if arr.ndim != 1:
            raise ValueError("true_labels must be one-dimensional")
        bad = (arr != 0) & (arr != 1)
        if bad.any():
            raise ValueError("true labels must be 0 or 1")
        object.__setattr__(self, "true_labels", arr)

    @property
    def n_examples(self) -> int:
        return int(self.true_labels.shape[0])

    def __len__(self) -> int:
        return self.n_examples


@dataclass(frozen=True)
class SimConfig:
    """Shape of one simulated trial."""

    n_examples: int
    n_labelers: int
    accuracy_low: float
    accuracy_high: float

    def __post_init__(self):
        problems = []
        if self.n_examples < 1:
            problems.append(f"n_examples must be >= 1, got {self.n_examples}")
        if self.n_labelers < 1:
            problems.append(f"n_labelers must be >= 1, got {self.n_labelers}")
        if not 0.0 <= self.accuracy_low <= 1.0:
            problems.append(f"accuracy_low must be in [0, 1], got {self.accuracy_low}")
        if not 0.0 <= self.accuracy_high <= 1.0:
            problems.append(f"accuracy_high must be in [0, 1], got {self.accuracy_high}")
        if self.accuracy_low > self.accuracy_high:
            problems.append(
                f"accuracy_low ({self.accuracy_low}) exceeds "
                f"accuracy_high ({self.accuracy_high})"
            )
        if problems:
            raise ConfigError("; ".join(problems))


class UniformStream:
    """Block-buffered uniform draws over a numpy Generator.

    Behaves like ``rng.random()`` per call (same underlying bit stream,
    consumed in blocks, as plain Python floats) but with far less per-call
    overhead, and like ``rng.random(n)`` through ``take``.  The uncertainty
    engine takes collection draws one at a time through ``random``; the
    threshold engine takes blocks through ``take`` (or straight from a
    Generator).
    """

    __slots__ = ("_rng", "_buf", "_pos")

    BLOCK = 1 << 14

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._buf = rng.random(self.BLOCK).tolist()
        self._pos = 0

    def random(self) -> float:
        buf = self._buf
        pos = self._pos
        if pos >= len(buf):
            buf = self._rng.random(self.BLOCK).tolist()
            self._buf = buf
            pos = 0
        self._pos = pos + 1
        return buf[pos]

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` draws as a float64 array, continuing the stream."""
        pos = self._pos
        head = self._buf[pos:pos + n]
        self._pos = pos + len(head)
        if len(head) == n:
            return np.array(head, dtype=float)
        return np.concatenate((head, self._rng.random(n - len(head))))


def init_simulation(config: SimConfig, rng) -> tuple[SimDataset, list[SimLabeler]]:
    """Draw a dataset and a labeler pool (draw-order steps 1 and 2)."""
    labels = (rng.random(config.n_examples) < 0.5).astype(np.int8)
    span = config.accuracy_high - config.accuracy_low
    accs = config.accuracy_low + rng.random(config.n_labelers) * span
    labelers = [SimLabeler(j, float(accs[j])) for j in range(config.n_labelers)]
    return SimDataset(labels), labelers


def draw_assessment(size: int, rng) -> AssessmentSet:
    """Draw ``size`` assessment items with uniformly random true labels."""
    if size < 1:
        raise ConfigError(f"assessment size must be >= 1, got {size}")
    labels = tuple(int(v) for v in (rng.random(size) < 0.5))
    return AssessmentSet(example_ids=tuple(range(size)), true_labels=labels)
