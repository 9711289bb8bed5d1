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
shared with the collection engines.  ``aggregate`` closes an example in one
pass over its votes; the checks that name a fault run only after it meets one.
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
    MV_INCREMENTS,
    UNIFORM_PRIOR,
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
    One pass checks each vote (a new voter, the first vote's example) and
    adds its increment pair, left to right from 0.0; ``_fault`` names a fault.
    """
    method = isinstance(method, str) and _METHODS.get(method) or Method(method)
    if prior is not UNIFORM_PRIOR and not isinstance(prior, ClassPrior):
        raise ConfigError(f"prior must be a ClassPrior, got {prior!r}")
    mv, code = method is Method.MV, method.code
    recs, voters, exc = labels, set(), None
    try:  # around the whole pass, so that a vote pays nothing for it
        recs = labels if type(labels) is list else list(labels)
        example = recs[0].example_id
        hash(example)  # an unhashable example is a fault, as in a set of the examples
        s0 = s1 = 0.0
        for rec in recs:
            voter = rec.labeler_id
            if voter in voters or rec.example_id is not example and not rec.example_id == example:
                break
            voters.add(voter)
            if mv:
                d0, d1 = MV_INCREMENTS[rec.value]
            else:  # a voter without an estimate gets None, which has no increments
                d0, d1 = estimates.get(voter).increments[code][rec.value]
            s0 += d0
            s1 += d1
        else:
            label, confidence, soft_p1 = kernel(method, prior).finalize(s0, s1)
            return tuple.__new__(
                AggregateLabel, (example, method, label, confidence, soft_p1, len(recs)))
    except (TypeError, AttributeError, IndexError, ValueError) as caught:  # a vote or estimate
        exc = caught  # of another type; ValueError: an example id whose == is elementwise
    _fault(method, recs, estimates, len(voters), exc)


def _fault(method, recs, estimates, passed, exc):
    """Raise the ``DataError`` of the first rule that the votes ``recs``
    break, in this order: records with hashable ids, each voter once, a
    vote, one example, estimates for a rule that needs them, and then, at
    vote ``passed`` (from 1), where the pass stopped, an estimate for its
    voter; else ``exc``, what the pass raised there."""
    try:
        if not isinstance(recs, list):  # not an iterable of votes
            raise exc
        examples = set(map(_EXAMPLE, recs))
        set(map(_LABELER, recs))  # each labeler id, too, is read and hashed first
        seen = set()
        for rec in recs:
            if rec.labeler_id in seen:
                raise DataError(
                    f"labeler {rec.labeler_id!r} voted twice on example {rec.example_id!r}")
            seen.add(rec.labeler_id)
        if not recs:
            raise DataError("cannot aggregate zero labels")
        if len(examples) != 1:
            raise DataError(f"labels span multiple examples: {sorted(map(repr, examples))}")
        if method is not Method.MV:
            if estimates is None:
                raise DataError(f"method {method} requires accuracy estimates")
            voter = recs[passed - 1].labeler_id
            if estimates.get(voter) is None:
                raise DataError(f"no accuracy estimate for labeler {voter!r}")
        raise exc
    except (TypeError, AttributeError, IndexError) as err:
        raise DataError(f"votes must be LabelRecords, estimates LabelerEstimates: {err}") from None
