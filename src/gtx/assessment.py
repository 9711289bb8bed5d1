"""Labeler accuracy estimation from an expertly-labeled assessment set.

The maximum-likelihood estimate of a one-coin labeler's accuracy is simply
the fraction of assessment items they answered correctly.  Assessment labels
are assumed to come from experts and are charged outside any collection
budget; nothing in this module touches a budget ledger.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .model import LabelerEstimate, as_label
from .simulation import check_pool, check_rng

__all__ = [
    "AssessmentSet",
    "estimate_accuracy",
    "oracle_estimates",
    "run_assessment",
]


@dataclass(frozen=True)
class AssessmentSet:
    """Expertly-labeled items used only for estimating labeler accuracy.

    Item ids live in their own namespace; they never collide with dataset
    example ids because estimates and collections are built separately.
    """

    example_ids: tuple
    true_labels: tuple

    def __post_init__(self):
        try:
            ids, labels = tuple(self.example_ids), tuple(self.true_labels)
            unique = len(set(ids)) == len(ids)
        except TypeError:  # not iterable, or an id that cannot be hashed
            raise DataError("ids and labels must be sequences, the ids hashable") from None
        if not ids:
            raise DataError("assessment set has no items")
        if len(ids) != len(labels):
            raise DataError("example_ids and true_labels differ in length")
        if not unique:
            raise DataError("assessment item ids must be unique")
        object.__setattr__(self, "example_ids", ids)
        object.__setattr__(self, "true_labels", tuple(map(as_label, labels)))

    def __len__(self) -> int:
        return len(self.example_ids)

    def items(self):
        return zip(self.example_ids, self.true_labels)


def estimate_accuracy(
    labeler_id: Hashable,
    responses: Mapping[Hashable, int],
    assessment: AssessmentSet,
) -> LabelerEstimate:
    """MLE accuracy: fraction of assessment items answered correctly.

    ``responses`` must be a mapping that covers every assessment item; a
    missing response is a DataError rather than a silent shrink of the
    sample, as is a ``responses`` or ``assessment`` of another type.
    The returned estimate is clamped by LabelerEstimate's constructor.
    """
    if not isinstance(responses, Mapping) or not isinstance(assessment, AssessmentSet):
        raise DataError(f"responses must be a mapping and assessment an AssessmentSet, "
                        f"got {type(responses).__name__} and {type(assessment).__name__}")
    correct = 0
    missing = []
    for item_id, truth in assessment.items():
        if item_id not in responses:
            missing.append(item_id)
            continue
        if as_label(responses[item_id]) == truth:
            correct += 1
    if missing:
        raise DataError(
            f"labeler {labeler_id!r} missing {len(missing)} of "
            f"{len(assessment)} assessment responses (first: {missing[0]!r})"
        )
    return LabelerEstimate(
        labeler_id=labeler_id,
        accuracy=correct / len(assessment),
        n_assessed=len(assessment),
    )


def run_assessment(labelers, assessment: AssessmentSet, rng) -> dict:
    """Simulate every labeler answering every assessment item, then estimate.

    ``labelers`` is a sequence of :class:`gtx.simulation.SimLabeler`.  Draw
    order: one uniform per (labeler, item), labelers in the given order,
    items in assessment order, taken as one row-major block.  A response is
    right when its draw is below the labeler's accuracy, so each estimate is
    the share of its labeler's draws below its accuracy, whatever the items'
    labels.
    """
    check_pool(labelers)
    if not isinstance(assessment, AssessmentSet):
        raise DataError(f"assessment must be an AssessmentSet, got {type(assessment).__name__}")
    check_rng(rng)
    size = len(assessment)
    acc = np.array([lab.accuracy for lab in labelers], dtype=float)
    right = np.count_nonzero(rng.random((len(labelers), size)) < acc[:, None], axis=1)
    return {lab.labeler_id: LabelerEstimate(lab.labeler_id, c / size, size)
            for lab, c in zip(labelers, right.tolist())}


def oracle_estimates(labelers) -> dict:
    """Bypass assessment: use each labeler's true accuracy (still clamped)."""
    check_pool(labelers)
    return {
        labeler.labeler_id: LabelerEstimate(
            labeler_id=labeler.labeler_id, accuracy=labeler.accuracy
        )
        for labeler in labelers
    }
