"""Evaluation metrics and per-trial reporting.

Error rate and mean absolute error are computed over the examples that
actually received labels (never the full dataset size), and are absent
(None) rather than zero when nothing was labeled.  MAE compares the true
label against each method's own class-1 soft score, so probability-blind
methods like MV are scored on their vote shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .aggregators import Method
from .errors import ConfigError
from .strategies import CollectionOutcome

__all__ = [
    "TrialReport",
    "TrialSummary",
    "error_rate",
    "mean_absolute_error",
    "mean_se",
    "summarize",
    "trial_report",
]


def error_rate(outcome: CollectionOutcome, true_labels) -> float | None:
    """Fraction of labeled examples whose hard label is wrong.

    ``true_labels`` is indexed by example id (an array or a sequence).
    Returns None when no example was labeled.
    """
    n = outcome.n_labeled
    if n == 0:
        return None
    truth = np.asarray(true_labels).tolist()
    wrong = 0
    for ex, label in zip(outcome.example_ids, outcome.labels):
        wrong += label != truth[ex]
    return float(wrong) / n


def mean_absolute_error(outcome: CollectionOutcome, true_labels) -> float | None:
    """Mean |true label - soft class-1 score| over labeled examples."""
    n = outcome.n_labeled
    if n == 0:
        return None
    truth = np.asarray(true_labels).tolist()
    total = 0.0
    for ex, soft in zip(outcome.example_ids, outcome.soft_p1s):
        total += abs(truth[ex] - soft)
    return float(total) / n


@dataclass(frozen=True)
class TrialReport:
    """Metrics of one collection run plus enough context to group runs."""

    method: Method
    strategy: str
    params: tuple  # sorted (key, value) pairs identifying the sweep cell
    seed: int | None
    n_labeled: int
    spent: int
    avg_k: float | None
    error_rate: float | None
    mae: float | None


def trial_report(
    outcome: CollectionOutcome,
    true_labels,
    strategy: str,
    params: Mapping | None = None,
    seed: int | None = None,
) -> TrialReport:
    """Evaluate one outcome.  avg_k is spent labels per labeled example."""
    n = outcome.n_labeled
    spent = outcome.ledger.spent
    return TrialReport(
        method=outcome.method,
        strategy=strategy,
        params=tuple(sorted((params or {}).items())),
        seed=seed,
        n_labeled=n,
        spent=spent,
        avg_k=(spent / n) if n > 0 else None,
        error_rate=error_rate(outcome, true_labels),
        mae=mean_absolute_error(outcome, true_labels),
    )


def mean_se(values: Sequence[float]) -> tuple[float | None, float | None]:
    """Mean and standard error (sample stddev / sqrt(n)); SE is 0 for n == 1."""
    vals = [v for v in values if v is not None]
    n = len(vals)
    if n == 0:
        return None, None
    mean = sum(vals) / n
    if n == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in vals) / (n - 1)
    return mean, math.sqrt(var) / math.sqrt(n)


@dataclass(frozen=True)
class TrialSummary:
    """Mean and standard error of each metric across repeated trials."""

    method: Method
    strategy: str
    params: tuple
    trials: int
    avg_k_mean: float | None
    avg_k_se: float | None
    n_labeled_mean: float | None
    n_labeled_se: float | None
    error_rate_mean: float | None
    error_rate_se: float | None
    mae_mean: float | None
    mae_se: float | None


def summarize(reports: Sequence[TrialReport]) -> TrialSummary:
    """Collapse repeated trials of one sweep cell into means and SEs.

    All reports must share method, strategy, and cell parameters; mixing
    cells would average apples and oranges, so it is a ConfigError.
    """
    if not reports:
        raise ConfigError("cannot summarize zero trial reports")
    head = reports[0]
    key = (head.method, head.strategy, head.params)
    for rep in reports[1:]:
        if (rep.method, rep.strategy, rep.params) != key:
            raise ConfigError(
                f"summarize() needs homogeneous reports; got {key} and "
                f"{(rep.method, rep.strategy, rep.params)}"
            )
    return TrialSummary(  # each mean_se pair fills a field's (mean, se)
        *key,
        len(reports),
        *mean_se([r.avg_k for r in reports]),
        *mean_se([float(r.n_labeled) for r in reports]),
        *mean_se([r.error_rate for r in reports]),
        *mean_se([r.mae for r in reports]),
    )
