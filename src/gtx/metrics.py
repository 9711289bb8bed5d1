"""Evaluation metrics, per-trial reports and trial means.

Error rate and mean absolute error are computed over the examples that
actually received labels (never the full dataset size), and are absent
(None) rather than zero when nothing was labeled.  MAE compares the true
label against each method's own class-1 soft score, so probability-blind
methods like MV are scored on their vote shares.  ``mean_se`` is the one
mean and standard error over trials: ``summarize`` uses it on each report
field, and the uncertainty harness on each label count of the dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .aggregators import Method
from .errors import ConfigError, DataError
from .simulation import as_true_labels
from .strategies import CollectionOutcome

__all__ = [
    "TrialReport",
    "TrialSummary",
    "mean_se",
    "summarize",
    "trial_report",
]


@dataclass(frozen=True)
class TrialReport:
    """Metrics of one collection run."""

    method: Method
    n_labeled: int
    spent: int
    avg_k: float | None
    error_rate: float | None
    mae: float | None


def trial_report(outcome: CollectionOutcome, true_labels) -> TrialReport:
    """Evaluate one outcome.  avg_k is spent labels per labeled example.

    ``true_labels`` is indexed by example id (an array or a sequence of 0s
    and 1s) and must cover every labeled example.  The error rate is the
    fraction of labeled examples whose hard label is wrong, the MAE the
    mean |true label - soft class-1 score| over them; avg_k and both are
    None when no example was labeled.
    """
    if not isinstance(outcome, CollectionOutcome):
        raise DataError(f"outcome must be a CollectionOutcome, got {type(outcome).__name__}")
    truth = as_true_labels(true_labels)
    n = outcome.n_labeled
    if len(truth) < n:
        raise DataError(f"true_labels holds {len(truth)} labels; the outcome labeled {n} examples")
    truth = truth[:n]
    spent = outcome.ledger.spent
    if n == 0:
        return TrialReport(outcome.method, n, spent, None, None, None)
    wrong = int(np.count_nonzero(outcome.labels != truth))
    # accumulate adds left to right, as a loop does; np.sum adds pairwise
    mae_sum = float(np.add.accumulate(np.abs(truth - outcome.soft_p1s))[-1])
    return TrialReport(outcome.method, n, spent, spent / n, wrong / n, mae_sum / n)


def mean_se(rows: Sequence) -> tuple:
    """Mean and standard error (sample stddev / sqrt(n)) over trials.

    Each row is one trial's float or one trial's float array, all of one
    length; None rows are skipped.  No rows give (None, None), one an SE of
    0; floats give plain floats, arrays arrays.  Sums run row by row from
    0.0, left to right (neither numpy's pairwise ``sum`` nor Python 3.12's
    compensated ``sum``), and squares go through ``np.float_power``: libm
    ``pow``, as ``x ** 2`` uses, where ``x * x`` can differ in the last bit.
    """
    rows = [r for r in rows if r is not None]
    n = len(rows)
    if n == 0:
        return None, None
    total = 0.0
    for row in rows:
        total = total + row
    mean = total / n
    if n == 1:
        se = np.zeros_like(mean)
    else:
        squares = 0.0
        for row in rows:
            squares = squares + np.float_power(row - mean, 2.0)
        se = np.sqrt(squares / (n - 1)) / math.sqrt(n)
    if np.ndim(mean) == 0:
        return float(mean), float(se)
    return mean, se


@dataclass(frozen=True)
class TrialSummary:
    """Mean and standard error of each metric across repeated trials."""

    method: Method
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

    ``reports`` is a sequence of TrialReports, all of one method; mixing
    methods would average apples and oranges, so it is a ConfigError.
    """
    if not isinstance(reports, Sequence) or not all(isinstance(r, TrialReport) for r in reports):
        raise DataError("reports must be a sequence of TrialReports")
    if not reports:
        raise ConfigError("cannot summarize zero trial reports")
    method = reports[0].method
    for rep in reports[1:]:
        if rep.method != method:
            raise ConfigError(
                f"summarize() needs reports of one method; got {method} and {rep.method}"
            )
    return TrialSummary(  # each mean_se pair fills a field's (mean, se)
        method,
        len(reports),
        *mean_se([r.avg_k for r in reports]),
        *mean_se([float(r.n_labeled) for r in reports]),
        *mean_se([r.error_rate for r in reports]),
        *mean_se([r.mae for r in reports]),
    )
