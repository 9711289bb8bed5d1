"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: plain probability space, no logs, no
incremental state.  If the package and these functions agree, the clever
versions earn their keep.  ``select_labeler`` and ``elicit_label`` are the
spec of one collected label that both collection engines replay exactly,
and ``confidence_threshold`` is the one-label-at-a-time loop that the
offset-parallel threshold engine must equal bit for bit.
"""

import math

from gtx.model import LabelRecord, Method, increment_table, kernel, log_odds
from gtx.simulation import UniformStream
from gtx.strategies import BudgetLedger, CollectionOutcome, LabelEvent


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


def _reached(method, prior, tau):
    """The scalar tau stop test of sv and gtx; None for mv and wmv."""
    if method is Method.SV:
        def reached(s0, s1, k):
            m0 = k - s1
            return (s1 if s1 >= m0 else m0) / k >= tau
        return reached
    if method is Method.GTX:
        lp0, lp1 = prior.logs
        dprior = lp1 - lp0
        thr = math.inf if tau == 1.0 else log_odds(tau)

        def reached(s0, s1, k):
            d = dprior + s1 - s0
            return d >= thr or -d >= thr
        return reached
    return None


def confidence_threshold(dataset, labelers, estimates, config, budget, method,
                         rng, prior, record_events=True):
    """The confidence-threshold run, one label at a time, for valid inputs.

    Each label pops ``int(u * len(unused))`` from the ascending unused pool
    positions, then compares the next draw with the labeler's accuracy.
    """
    pool = sorted(labelers, key=lambda lab: lab.labeler_id)
    ids = [lab.labeler_id for lab in pool]
    L = len(pool)
    finalize = kernel(method, prior).finalize
    c_stop = config.fixed_count
    reached = None if c_stop is not None else _reached(method, prior, config.tau)
    inc = increment_table(method, ids, estimates)
    acc_true = [lab.accuracy for lab in pool]
    kap = config.kappa
    rand = (rng if isinstance(rng, UniformStream) else UniformStream(rng)).random
    truth = dataset.true_labels.tolist()

    events = [] if record_events else None
    finals, ks = [], []
    spent = 0
    for i in range(dataset.n_examples):
        if spent >= budget:
            break
        yi = truth[i]
        unused = list(range(L))
        k = 0
        s0 = s1 = 0.0
        while spent < budget:
            pos = unused.pop(int(rand() * len(unused)))
            v = yi if rand() < acc_true[pos] else 1 - yi
            d0, d1 = inc[pos][v]
            s0 += d0
            s1 += d1
            k += 1
            spent += 1
            if events is not None:
                events.append(LabelEvent(spent, i, ids[pos], v, finalize(s0, s1, k)[1]))
            if k == kap or k == c_stop or (reached is not None and reached(s0, s1, k)):
                break
        finals.append(finalize(s0, s1, k))
        ks.append(k)
    labels, confidences, soft_p1s = ([f[j] for f in finals] for j in range(3))
    return CollectionOutcome(
        method, BudgetLedger(budget, spent), list(range(len(finals))), labels,
        confidences, soft_p1s, ks, event_log=events,
    )
