"""Posterior inference and the four aggregation rules under the one-coin model.

Each labeler answers correctly with a fixed probability (their accuracy),
independent of the true class and of every other labeler.  Given the set of
votes collected for one example and per-labeler accuracy estimates, Bayes'
rule yields a posterior over the two classes.  All vote products are carried
in log space, with the running maximum subtracted before exponentiation, so
arbitrarily long vote lists neither underflow nor overflow.

Every aggregation rule is one sufficient-statistic kernel: two accumulators
``(s0, s1)``, each vote adding its labeler's increment pair for the value it
gave (``LabelerEstimate.increments``), and a ``finalize(s0, s1, k) -> (label,
confidence, soft_p1)`` over the ``k`` votes (``kernel``).  ``aggregate``,
both collection engines and ``log_likelihood`` all share them.

Accuracy estimates must lie in [0, 1].  Exact 0 and 1 (from maximum
likelihood on a small assessment) are clamped into [ACCURACY_FLOOR,
ACCURACY_CEIL] at construction: either would put a zero inside a log and
make a single labeler's vote infinitely strong.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple

import numpy as np

from .errors import DuplicateLabeler, MissingEstimate

__all__ = [
    "ACCURACY_CEIL",
    "ACCURACY_FLOOR",
    "ClassPrior",
    "LabelRecord",
    "LabelerEstimate",
    "Method",
    "PosteriorResult",
    "as_label",
    "hard_label",
    "log_likelihood",
    "log_odds",
    "posterior",
    "uncertainty",
]

ACCURACY_FLOOR = 0.01
ACCURACY_CEIL = 0.99


def as_label(value) -> int:
    """Validate a binary label, returning it as a plain int (0 or 1)."""
    if value is False or value is True:
        return int(value)
    if value == 0 or value == 1:
        return int(value)
    raise ValueError(f"label value must be 0 or 1, got {value!r}")


@dataclass(frozen=True)
class LabelRecord:
    """One vote: ``labeler_id`` said ``value`` about ``example_id``."""

    example_id: Hashable
    labeler_id: Hashable
    value: int

    def __post_init__(self):
        object.__setattr__(self, "value", as_label(self.value))


class Method(str, enum.Enum):
    """Aggregation method tags used in configs, CSV columns, and reports.

    ``code`` indexes each estimate's increment table and is the method's part
    of the collection spawn key (see gtx.experiments), so it never changes.
    """

    MV = "mv", 0
    WMV = "wmv", 1
    SV = "sv", 2
    GTX = "gtx", 3

    def __new__(cls, value, code):
        member = str.__new__(cls, value)
        member._value_ = value
        member.code = code
        return member

    def __str__(self) -> str:  # "mv" rather than "Method.MV" in output files
        return self.value


MV_INCREMENTS = ((1, 0), (0, 1))


@dataclass(frozen=True)
class LabelerEstimate:
    """Estimated accuracy of one labeler, clamped away from 0 and 1.

    ``n_assessed`` records how many assessment items produced the estimate
    (None when the estimate did not come from an assessment run).
    """

    labeler_id: Hashable
    accuracy: float
    n_assessed: int | None = None

    def __post_init__(self):
        a = self.accuracy
        if isinstance(a, bool) or not isinstance(a, numbers.Real):
            raise ValueError(f"accuracy must be a number, got {a!r}")
        a = float(a)
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"accuracy must be a probability in [0, 1], got {a!r}")
        a = min(max(a, ACCURACY_FLOOR), ACCURACY_CEIL)
        object.__setattr__(self, "accuracy", a)

    @cached_property
    def increments(self) -> tuple:
        """``((s0, s1) for a vote of 0, (s0, s1) for a vote of 1)`` under each
        rule, indexed by ``Method.code``; computed once per estimate.  A vote
        of 1 adds the pair of a vote of 0 swapped, which lets the threshold
        engine follow both truths of an example with one pair of sums."""
        a = self.accuracy
        lw = self.log_weight
        lc = self.log_counterweight
        return (
            MV_INCREMENTS,
            ((a, 0.0), (0.0, a)),
            ((a, 1.0 - a), (1.0 - a, a)),
            ((lw, lc), (lc, lw)),
        )

    @property
    def log_weight(self) -> float:
        """log(accuracy), the per-vote log-likelihood contribution when agreeing."""
        return math.log(self.accuracy)

    @property
    def log_counterweight(self) -> float:
        """log(1 - accuracy), the contribution when disagreeing."""
        return math.log1p(-self.accuracy)


@dataclass(frozen=True)
class ClassPrior:
    """Prior probability of each class.  Degenerate priors (0/1) are legal."""

    p0: float
    p1: float

    def __post_init__(self):
        if not (0.0 <= self.p0 <= 1.0 and 0.0 <= self.p1 <= 1.0):
            raise ValueError(
                f"prior probabilities must lie in [0, 1], got {self.p0!r}, {self.p1!r}"
            )
        if abs(self.p0 + self.p1 - 1.0) > 1e-9:
            raise ValueError("prior must sum to 1")

    @staticmethod
    def uniform() -> "ClassPrior":
        return ClassPrior(0.5, 0.5)

    @property
    def logs(self) -> tuple[float, float]:
        """(log p0, log p1), -inf for a class with zero prior mass."""
        lp0 = -math.inf if self.p0 == 0.0 else math.log(self.p0)
        lp1 = -math.inf if self.p1 == 0.0 else math.log(self.p1)
        return lp0, lp1


UNIFORM_PRIOR = ClassPrior.uniform()


@dataclass(frozen=True)
class PosteriorResult:
    """Normalized posterior over the two classes for one example."""

    p0: float
    p1: float


def log_odds(p: float) -> float:
    """log(p / (1-p)), computed as log(p) - log1p(-p).

    Using the same log/log1p pipeline as LabelerEstimate keeps boundary
    comparisons exact: a single vote from a labeler with accuracy == tau
    produces a posterior log-odds bit-identical to log_odds(tau).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"log_odds requires p in (0, 1), got {p}")
    return math.log(p) - math.log1p(-p)


def normalize(a0: float, a1: float) -> tuple[float, float]:
    """Probabilities proportional to exp(a0) and exp(a1), max subtracted first."""
    m = a0 if a0 >= a1 else a1
    e0 = math.exp(a0 - m)
    e1 = math.exp(a1 - m)
    z = e0 + e1
    return e0 / z, e1 / z


def _check_labels(labels: Iterable[LabelRecord]) -> list[LabelRecord]:
    out = list(labels)
    seen = set()
    for rec in out:
        if rec.labeler_id in seen:
            raise DuplicateLabeler(
                f"labeler {rec.labeler_id!r} voted twice on example {rec.example_id!r}"
            )
        seen.add(rec.labeler_id)
    return out


def increment_table(method: Method, labeler_ids, estimates) -> list:
    """Each labeler's increment pairs under ``method``, in ``labeler_ids`` order.

    MV needs no estimates; every other rule raises MissingEstimate for a
    labeler without one.
    """
    if method is Method.MV:
        return [MV_INCREMENTS] * len(labeler_ids)
    if estimates is None:
        raise MissingEstimate(f"method {method} requires accuracy estimates")
    code = method.code
    try:
        return [estimates[i].increments[code] for i in labeler_ids]
    except KeyError as exc:
        raise MissingEstimate(
            f"no accuracy estimate for labeler {exc.args[0]!r}"
        ) from None


def accumulate(method: Method, labels: list, estimates) -> tuple[float, float]:
    """The accumulators ``(s0, s1)`` of ``method`` over a list of votes."""
    # increment_table's checks, made per vote: two lists per call cost more
    # than the sums over one example's few votes
    mv = method is Method.MV
    if not mv and estimates is None:
        raise MissingEstimate(f"method {method} requires accuracy estimates")
    code = method.code
    s0 = s1 = 0.0
    for rec in labels:
        if mv:
            d0, d1 = MV_INCREMENTS[rec.value]
        else:
            est = estimates.get(rec.labeler_id)
            if est is None:
                raise MissingEstimate(f"no accuracy estimate for labeler {rec.labeler_id!r}")
            d0, d1 = est.increments[code][rec.value]
        s0 += d0
        s1 += d1
    return s0, s1


class Kernel(NamedTuple):
    """One rule's finalizer and, for the rules that can stop at a confidence
    threshold, the factory of its stop test.  The stop test takes float64
    arrays of accumulators (one entry per run state) and the vote count they
    share, and returns a bool array."""

    finalize: Callable  # (s0, s1, k) -> (label, confidence, soft_p1)
    stop: Callable | None  # tau -> ((s0, s1, k) -> bool array); None: counts only


def _share_finalize(s0, s1, k):
    """mv and sv: class 0 holds what class 1 leaves of the k votes."""
    m0 = k - s1
    label = 1 if s1 > m0 else 0
    return label, (s1 if label else m0) / k, s1 / k


def _share_stop(tau):
    def reached(s0, s1, k):
        return np.maximum(s1, k - s1) / k >= tau

    return reached


def _weight_finalize(s0, s1, k):
    total = s0 + s1
    label = 1 if s1 > s0 else 0
    return label, (s1 if label else s0) / total, s1 / total


@lru_cache(maxsize=64)
def _gtx_kernel(prior: ClassPrior) -> Kernel:
    lp0, lp1 = prior.logs

    def finalize(s0, s1, k):
        p0, p1 = normalize(lp0 + s0, lp1 + s1)
        return (0, p0, p1) if p0 >= p1 else (1, p1, p1)

    def stop(tau):
        """Stop in log-odds space, so that one vote from a labeler whose
        estimate equals tau meets the threshold exactly."""
        thr = math.inf if tau == 1.0 else log_odds(tau)
        dprior = lp1 - lp0

        def reached(s0, s1, k):
            return abs(dprior + s1 - s0) >= thr

        return reached

    return Kernel(finalize, stop)


_VOTE_KERNELS = {
    Method.MV: Kernel(_share_finalize, None),
    Method.WMV: Kernel(_weight_finalize, None),
    Method.SV: Kernel(_share_finalize, _share_stop),
}


def kernel(method: Method, prior: ClassPrior = UNIFORM_PRIOR) -> Kernel:
    """The finalizer and stop test of ``method``; only gtx uses ``prior``.

    Exact ties go to class 0 under every rule.  MV and WMV reach confidence
    1.0 after a single vote, so they stop at fixed counts only.
    """
    if method is Method.GTX:
        return _gtx_kernel(prior)
    return _VOTE_KERNELS[method]


def log_likelihood(
    labels: Iterable[LabelRecord],
    estimates: Mapping[Hashable, LabelerEstimate],
) -> tuple[float, float]:
    """Log-likelihood of the observed votes under each class.

    Returns ``(log P(votes | class 0), log P(votes | class 1))``: the gtx
    accumulators.  An empty vote set has likelihood 1 under both classes.
    """
    return accumulate(Method.GTX, _check_labels(labels), estimates)


def posterior(
    labels: Iterable[LabelRecord],
    estimates: Mapping[Hashable, LabelerEstimate],
    prior: ClassPrior = UNIFORM_PRIOR,
) -> PosteriorResult:
    """Posterior over the two classes given votes and accuracy estimates.

    With no votes the posterior equals the prior.  A degenerate prior forces
    its class regardless of the votes (the vote likelihood cannot resurrect a
    class with zero prior mass).
    """
    ll0, ll1 = log_likelihood(labels, estimates)
    lp0, lp1 = prior.logs
    return PosteriorResult(*normalize(lp0 + ll0, lp1 + ll1))


def hard_label(post: PosteriorResult) -> tuple[int, float]:
    """Most probable class and its probability.  Exact ties go to class 0."""
    if post.p0 >= post.p1:
        return 0, post.p0
    return 1, post.p1


def uncertainty(post: PosteriorResult) -> float:
    """1 - confidence; 0 for a certain posterior, 0.5 for a coin flip."""
    return 1.0 - max(post.p0, post.p1)
