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
   2j + 1.  Both engines take the draws in blocks with ``rng.random(n)``,
   which reads the same doubles as that many ``rng.random()`` calls.  The
   uncertainty engine takes exactly two per label; the threshold engine may
   draw past its last label.

Steps 1-4 use the trial's environment stream; step 5 uses a separate
collection stream so that different collection cells can share one
environment (see gtx.experiments).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, is_int, is_number

__all__ = [
    "SimConfig",
    "SimDataset",
    "SimLabeler",
    "draw_assessment",
    "init_simulation",
]

# the most float64 draws one array can hold; a larger size is a ConfigError
MAX_SIZE = np.iinfo(np.intp).max // 8


@dataclass(frozen=True)
class SimLabeler:
    """A simulated labeler: a str or integer id, as label files hold, and a
    known true accuracy in [0, 1]."""

    labeler_id: int | str
    accuracy: float

    def __post_init__(self):
        if not (isinstance(self.labeler_id, str) or is_int(self.labeler_id)):
            raise DataError(f"labeler_id must be a string or an integer, got {self.labeler_id!r}")
        if not is_number(self.accuracy):
            raise ConfigError(f"true accuracy must be a number, got {self.accuracy!r}")
        if not 0.0 <= self.accuracy <= 1.0:
            raise ConfigError(f"true accuracy must be in [0, 1], got {self.accuracy}")


def check_pool(labelers) -> None:
    """The rule of a labeler pool: a non-empty sequence of SimLabelers whose
    ids are unique and all strings or all integers."""
    if not isinstance(labelers, Sequence) or not all(isinstance(x, SimLabeler) for x in labelers):
        raise ConfigError("labelers must be a sequence of SimLabelers")
    if not labelers:
        raise ConfigError("labeler pool is empty")
    ids = [lab.labeler_id for lab in labelers]
    if len({isinstance(i, str) for i in ids}) > 1:
        raise ConfigError("labeler ids must be all strings or all integers")
    if len(set(ids)) != len(ids):
        raise ConfigError("labeler ids must be unique")


def check_rng(rng) -> None:
    """The type rule of a draw source: anything with a Generator's ``random``."""
    if not callable(getattr(rng, "random", None)):
        raise ConfigError(f"rng must be a numpy Generator, got {type(rng).__name__}")


def as_true_labels(values) -> np.ndarray:
    """The rule of true labels: one-dimensional, each 0 or 1; returned as int8."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting
        raise DataError("true_labels must be one-dimensional") from None
    if arr.ndim != 1:
        raise DataError("true_labels must be one-dimensional")
    # checked before the cast, which would turn 0.7 into 0
    bad = (arr != 0) & (arr != 1)
    if bad.any():
        raise DataError("true labels must be 0 or 1")
    return arr.astype(np.int8, copy=False)


@dataclass(frozen=True)
class SimDataset:
    """True labels for examples 0..n-1.  Example ids are array indices."""

    true_labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "true_labels", as_true_labels(self.true_labels))

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
        for key in ("n_examples", "n_labelers"):
            v = getattr(self, key)
            if not is_int(v):
                problems.append(f"{key} must be an integer, got {v!r}")
            elif not 1 <= v <= MAX_SIZE:
                problems.append(f"{key} must be in 1..{MAX_SIZE}, got {v}")
        lo, hi = self.accuracy_low, self.accuracy_high
        for key, v in (("accuracy_low", lo), ("accuracy_high", hi)):
            if not is_number(v):
                problems.append(f"{key} must be a number, got {v!r}")
            elif not 0.0 <= v <= 1.0:  # nan too
                problems.append(f"{key} must be in [0, 1], got {v}")
        if is_number(lo) and is_number(hi) and lo > hi:
            problems.append(f"accuracy_low ({lo}) exceeds accuracy_high ({hi})")
        if problems:
            raise ConfigError("; ".join(problems))


def init_simulation(config: SimConfig, rng) -> tuple[SimDataset, list[SimLabeler]]:
    """Draw a dataset and a labeler pool (draw-order steps 1 and 2)."""
    if not isinstance(config, SimConfig):
        raise ConfigError(f"config must be a SimConfig, got {type(config).__name__}")
    check_rng(rng)
    labels = (rng.random(config.n_examples) < 0.5).astype(np.int8)
    span = config.accuracy_high - config.accuracy_low
    accs = config.accuracy_low + rng.random(config.n_labelers) * span
    labelers = [SimLabeler(j, float(accs[j])) for j in range(config.n_labelers)]
    return SimDataset(labels), labelers


def draw_assessment(size: int, rng) -> AssessmentSet:
    """Draw ``size`` assessment items with uniformly random true labels."""
    from .assessment import AssessmentSet  # assessment imports the pool rule from here

    if not is_int(size) or not 1 <= size <= MAX_SIZE:
        raise ConfigError(f"assessment size must be an integer in 1..{MAX_SIZE}, got {size!r}")
    check_rng(rng)
    labels = tuple(int(v) for v in (rng.random(size) < 0.5))
    return AssessmentSet(example_ids=tuple(range(size)), true_labels=labels)
