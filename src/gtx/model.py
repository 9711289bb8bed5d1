"""Posterior inference and the four aggregation rules under the one-coin model.

Each labeler answers correctly with a fixed probability (their accuracy),
independent of the true class and of every other labeler.  Given the set of
votes collected for one example and per-labeler accuracy estimates, Bayes'
rule yields a posterior over the two classes.  All vote products are carried
in log space, with the running maximum subtracted before exponentiation, so
arbitrarily long vote lists neither underflow nor overflow.

Every aggregation rule is one sufficient-statistic kernel: two accumulators
``(s0, s1)``, each vote adding its labeler's increment pair for the value it
gave (``LabelerEstimate.increments``), and a ``finalize(s0, s1) -> (label,
confidence, soft_p1)`` that reads the two sums alone, with an array form
that closes many examples at once (``kernel``).  Swapping the sums swaps the
classes.  ``aggregate`` and both collection engines share them.

Accuracy estimates must lie in [0, 1].  Exact 0 and 1 (from maximum
likelihood on a small assessment) are clamped into [ACCURACY_FLOOR,
ACCURACY_CEIL] at construction: either would put a zero inside a log and
make a single labeler's vote infinitely strong.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, NamedTuple

import numpy as np

from .errors import ConfigError, DataError, is_number

__all__ = [
    "ACCURACY_CEIL",
    "ACCURACY_FLOOR",
    "ClassPrior",
    "LabelRecord",
    "LabelerEstimate",
    "Method",
    "as_label",
    "log_odds",
]

ACCURACY_FLOOR = 0.01
ACCURACY_CEIL = 0.99


def as_label(value) -> int:
    """Validate a binary label, returning it as a plain int (0 or 1)."""
    if not isinstance(value, np.ndarray) and (value == 0 or value == 1):  # == is elementwise there
        return int(value)
    raise DataError(f"label value must be 0 or 1, got {value!r}")


class LabelRecord(namedtuple("LabelRecord", ["example_id", "labeler_id", "value"])):
    """One vote: ``labeler_id`` said ``value`` about ``example_id``.

    A tuple, so a record compares equal to a plain tuple of its fields.  The
    constructor, ``_make`` and ``_replace`` pass ``value`` through ``as_label``.
    """

    __slots__ = ()

    def __new__(cls, example_id: Hashable, labeler_id: Hashable, value: int):
        return tuple.__new__(cls, (example_id, labeler_id, as_label(value)))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _ByValue(enum.EnumMeta):
    def __call__(cls, value):  # str keys only: an array's == would break Enum's search
        if isinstance(value, str) and value in cls._value2member_map_:
            return cls._value2member_map_[value]
        raise ConfigError(f"{value!r} is not a valid {cls.__name__}")


class Method(str, enum.Enum, metaclass=_ByValue):
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
        if not is_number(a):
            raise ConfigError(f"accuracy must be a number, got {a!r}")
        a = float(a)
        if not 0.0 <= a <= 1.0:
            raise ConfigError(f"accuracy must be a probability in [0, 1], got {a!r}")
        a = min(max(a, ACCURACY_FLOOR), ACCURACY_CEIL)
        object.__setattr__(self, "accuracy", a)

    @cached_property
    def increments(self) -> tuple:
        """``((s0, s1) for a vote of 0, (s0, s1) for a vote of 1)`` under each
        rule, indexed by ``Method.code``; computed once per estimate.  A vote
        of 1 adds the pair of a vote of 0 swapped, so the sums the same draws
        give under truth 1 are their sums under truth 0 swapped."""
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
        if not (is_number(self.p0) and is_number(self.p1)):
            raise ConfigError(f"prior probabilities must be numbers, got {self.p0!r}, {self.p1!r}")
        if not (0.0 <= self.p0 <= 1.0 and 0.0 <= self.p1 <= 1.0):
            raise ConfigError(
                f"prior probabilities must lie in [0, 1], got {self.p0!r}, {self.p1!r}"
            )
        if abs(float(self.p0) + float(self.p1) - 1.0) > 1e-9:  # float64, whatever the input
            raise ConfigError("prior must sum to 1")

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


def log_odds(p: float) -> float:
    """log(p / (1-p)), computed as log(p) - log1p(-p).

    Using the same log/log1p pipeline as LabelerEstimate keeps boundary
    comparisons exact: a single vote from a labeler with accuracy == tau
    produces a posterior log-odds bit-identical to log_odds(tau).
    """
    if not (is_number(p) and 0.0 < p < 1.0):
        raise ConfigError(f"log_odds requires p in (0, 1), got {p!r}")
    return math.log(p) - math.log1p(-p)


def increment_table(method: Method, labeler_ids, estimates) -> list:
    """Each labeler's increment pairs under ``method``, in ``labeler_ids`` order.

    MV needs no estimates; every other rule raises a DataError for a
    labeler without one.
    """
    if method is Method.MV:
        return [MV_INCREMENTS] * len(labeler_ids)
    if estimates is None:
        raise DataError(f"method {method} requires accuracy estimates")
    code = method.code
    try:
        return [estimates[i].increments[code] for i in labeler_ids]
    except KeyError as exc:
        raise DataError(f"no accuracy estimate for labeler {exc.args[0]!r}") from None
    except (TypeError, AttributeError, IndexError) as exc:
        raise DataError(f"estimates must map labeler ids to LabelerEstimates: {exc}") from None


class Kernel(NamedTuple):
    """One rule's finalizers and, for the rules that can stop at a confidence
    threshold, the factory of its stop test.  Each reads the accumulators
    ``(s0, s1)`` alone, and swapping them swaps the classes: the label flips
    unless the classes tie, and the confidence and stop verdict keep every
    bit (gtx: under the uniform prior).

    ``finalize`` closes one example.  ``finalize_array`` closes many: it
    takes float64 arrays of ``s0`` and ``s1`` and returns int labels,
    confidences and soft scores as arrays, each element bit-equal to
    ``finalize`` of the same inputs.  The stop test takes float64 arrays of
    accumulators (one entry per run state) and returns a bool array."""

    finalize: Callable  # (s0, s1) -> (label, confidence, soft_p1)
    finalize_array: Callable  # (s0, s1) arrays -> (labels, confidences, soft_p1s)
    stop: Callable | None  # tau -> ((s0, s1) -> bool array); None: counts only


def _weight_finalize(s0, s1):
    """mv, wmv and sv: the winning class's share of the two sums."""
    total = s0 + s1
    label = 1 if s1 > s0 else 0
    return label, (s1 if label else s0) / total, s1 / total


def _weight_finalize_array(s0, s1):
    total = s0 + s1
    label = s1 > s0
    return label.astype(int), np.where(label, s1, s0) / total, s1 / total


def _share_stop(tau):
    def reached(s0, s1):
        return np.maximum(s0, s1) / (s0 + s1) >= tau

    return reached


def _gtx_kernel(prior: ClassPrior) -> Kernel:
    lp0, lp1 = prior.logs

    def finalize(s0, s1):
        """Probabilities proportional to exp(lp0 + s0) and exp(lp1 + s1): the
        larger log-sum exponentiates to 1.0, so only the gap takes ``math.exp``."""
        a0, a1 = lp0 + s0, lp1 + s1
        first = a0 >= a1
        e = math.exp(a1 - a0 if first else a0 - a1)
        big, small = 1.0 / (1.0 + e), e / (1.0 + e)
        p0, p1 = (big, small) if first else (small, big)
        return (0, p0, p1) if p0 >= p1 else (1, p1, p1)

    def finalize_array(s0, s1):
        """``finalize`` elementwise.  Each distinct gap goes through
        ``math.exp`` once, which np.exp does not always equal in the last bit."""
        a0 = lp0 + s0
        a1 = lp1 + s1
        first = a0 >= a1
        x, where = np.unique(np.where(first, a1 - a0, a0 - a1), return_inverse=True)
        e = np.array(list(map(math.exp, x.tolist())))[where]
        z = e + 1.0
        big, small = 1.0 / z, e / z
        p0 = np.where(first, big, small)
        p1 = np.where(first, small, big)
        label = p0 < p1
        return label.astype(int), np.where(label, p1, p0), p1

    def stop(tau):
        """Stop in log-odds space, so that one vote from a labeler whose
        estimate equals tau meets the threshold exactly."""
        thr = math.inf if tau == 1.0 else log_odds(tau)
        dprior = lp1 - lp0

        def reached(s0, s1):
            return abs(dprior + s1 - s0) >= thr

        return reached

    return Kernel(finalize, finalize_array, stop)


_KERNELS = {
    Method.MV: Kernel(_weight_finalize, _weight_finalize_array, None),
    Method.WMV: Kernel(_weight_finalize, _weight_finalize_array, None),
    Method.SV: Kernel(_weight_finalize, _weight_finalize_array, _share_stop),
    Method.GTX: _gtx_kernel(UNIFORM_PRIOR),
}


def kernel(method: Method, prior: ClassPrior = UNIFORM_PRIOR) -> Kernel:
    """The finalizers and stop test of ``method``; only gtx uses ``prior``.

    Exact ties go to class 0 under every rule.  MV and WMV reach confidence
    1.0 after a single vote, so they stop at fixed counts only.  The uniform
    prior's gtx kernel is a constant, which both collection engines use;
    ``aggregate`` builds the kernel of any other prior per call.
    """
    if method is Method.GTX and prior is not UNIFORM_PRIOR and prior != UNIFORM_PRIOR:
        return _gtx_kernel(prior)
    return _KERNELS[method]
