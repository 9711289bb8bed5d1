"""Aggregation rules that turn a set of votes into one label.

Four rules, from least to most informed:

* MV   -- majority vote; confidence is the winning vote share.
* WMV  -- votes weighted by estimated accuracy; confidence is the winning
          weight share.
* SV   -- "soft" votes: each voter adds their estimated accuracy to the class
          they voted for and the complement to the other class; confidence is
          the winning mass's share of the total mass.
* GTX  -- the Bayesian posterior of :mod:`gtx.model`; confidence is the
          posterior probability of the winning class.

Every rule treats its two classes alike (gtx under the uniform prior),
resolves exact ties to class 0, and reports a class-1 soft score (vote,
weight or mass share, or posterior probability) beside the hard label, so
mean-absolute-error comparisons use each method's own probability-like
output.  The arithmetic of every rule is the kernel in :mod:`gtx.model`,
shared with the collection engines.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Hashable, Mapping, NamedTuple, Sequence

from .errors import ConfigError, DataError
from .model import (
    ClassPrior,
    LabelRecord,
    LabelerEstimate,
    Method,
    UNIFORM_PRIOR,
    accumulate,
    kernel,
)

__all__ = [
    "AggregateLabel",
    "Method",
    "aggregate",
]


class AggregateLabel(NamedTuple):
    """Aggregated decision for one example.

    A tuple, so an aggregate compares equal to a plain tuple of its fields.
    For gtx, ``soft_p1`` is the posterior of class 1 and ``1 - confidence``
    the example's uncertainty."""

    example_id: Hashable
    method: Method
    label: int
    confidence: float
    soft_p1: float
    n_labels: int


_METHODS = {m.value: m for m in Method}  # a Method hashes and compares as its value
_EXAMPLE, _LABELER = attrgetter("example_id"), attrgetter("labeler_id")


def aggregate(
    method: Method,
    labels: Sequence[LabelRecord],
    estimates: Mapping[Hashable, LabelerEstimate] | None = None,
    prior: ClassPrior = UNIFORM_PRIOR,
) -> AggregateLabel:
    """Aggregate one example's votes under the rule named by ``method``.

    MV needs no estimates; the other rules raise a DataError unless every
    voter has one.  Only GTX uses ``prior``; a degenerate prior forces its
    class whatever the votes.  Votes or estimates of another type are a
    DataError, and a prior that is not a ``ClassPrior`` a ConfigError.
    """
    method = isinstance(method, str) and _METHODS.get(method) or Method(method)
    if prior is not UNIFORM_PRIOR and not isinstance(prior, ClassPrior):
        raise ConfigError(f"prior must be a ClassPrior, got {prior!r}")
    try:  # around the whole count, so that a vote pays nothing for it
        recs = labels if type(labels) is list else list(labels)
        n = len(recs)
        examples = set(map(_EXAMPLE, recs))
        # distinct voters on one example; the checks naming a fault run only then
        if len(set(map(_LABELER, recs))) != n or len(examples) != 1:
            seen = set()
            for rec in recs:
                if rec.labeler_id in seen:
                    raise DataError(
                        f"labeler {rec.labeler_id!r} voted twice on example {rec.example_id!r}"
                    )
                seen.add(rec.labeler_id)
            if not recs:
                raise DataError("cannot aggregate zero labels")
            raise DataError(f"labels span multiple examples: {sorted(map(repr, examples))}")
        s0, s1 = accumulate(method, recs, estimates)
    except (TypeError, AttributeError, IndexError) as exc:  # not records, or not estimates
        raise DataError(f"votes must be LabelRecords, estimates LabelerEstimates: {exc}") from None
    label, confidence, soft_p1 = kernel(method, prior).finalize(s0, s1)
    return AggregateLabel(recs[0].example_id, method, label, confidence, soft_p1, n)
