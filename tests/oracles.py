"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: plain probability space, no logs, no
incremental state.  If the package and these functions agree, the clever
versions earn their keep.  ``select_labeler`` and ``elicit_label`` are the
spec of one collected label that both collection engines replay exactly.
"""

import math

from gtx.model import LabelRecord


def bayes_posterior(values, accuracies, p0=0.5, p1=0.5):
    """Direct two-hypothesis Bayes over one-coin labelers."""
    like0, like1 = p0, p1
    for v, a in zip(values, accuracies):
        like0 *= a if v == 0 else 1.0 - a
        like1 *= a if v == 1 else 1.0 - a
    total = like0 + like1
    return like0 / total, like1 / total


def majority(values):
    """(label, share of votes for it); exact ties go to class 0."""
    ones = sum(values)
    n = len(values)
    if ones * 2 > n:
        return 1, ones / n
    return 0, (n - ones) / n


def weighted_share(values, accuracies):
    """(label, winning accuracy mass / total accuracy mass); ties to 0."""
    w1 = sum(a for v, a in zip(values, accuracies) if v == 1)
    total = sum(accuracies)
    if w1 * 2 > total:
        return 1, w1 / total
    return 0, (total - w1) / total


def share_vote(values, accuracies):
    """Each voter adds accuracy to its class and the rest to the other.

    Returns (label, winning mass / number of voters); ties to 0.
    """
    m1 = sum(a if v == 1 else 1.0 - a for v, a in zip(values, accuracies))
    n = len(values)
    if m1 * 2 > n:
        return 1, m1 / n
    return 0, (n - m1) / n


def logodds_margin(values, accuracies):
    """Sum of signed per-vote log-odds; positive means class 1 wins."""
    return sum(
        (1 if v == 1 else -1) * math.log(a / (1.0 - a))
        for v, a in zip(values, accuracies)
    )


class LabelersExhausted(Exception):
    """No unused labeler remains for an example."""


def select_labeler(used_ids, labelers, rng):
    """Uniform choice among labelers not yet used on this example.

    Advances the RNG by exactly one draw: the uniform indexes the ascending
    list of unused labeler ids.  Raises LabelersExhausted when nothing is
    left to choose.
    """
    used = set(used_ids)
    unused = [lab for lab in labelers if lab.labeler_id not in used]
    if not unused:
        raise LabelersExhausted(f"all {len(labelers)} labelers already used")
    unused.sort(key=lambda lab: lab.labeler_id)
    u = rng.random()
    return unused[int(u * len(unused))]


def elicit_label(labeler, example_id, true_label, rng):
    """Simulate one vote: correct with probability ``labeler.accuracy``.

    Advances the RNG by exactly one draw.  Accuracy 1.0 always returns the
    true label (u < 1.0 is certain); accuracy 0.0 always returns the flip.
    """
    correct = rng.random() < labeler.accuracy
    value = true_label if correct else 1 - true_label
    return LabelRecord(example_id=example_id, labeler_id=labeler.labeler_id, value=value)
