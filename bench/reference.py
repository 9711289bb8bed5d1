"""Independent reference rules the benchmark checks gtx's outputs against.

Plain probability space and whole recomputation from the votes: nothing
here is incremental, log-space or shared with the package, and this module
imports nothing from ``gtx``.  Floating-point results therefore agree with
the package's only up to rounding, so comparisons use ``TOL``.  MV counts
and WMV sums are exact or summed in vote order, so their labels must match
exactly, ties to class 0 included; for SV and GTX a reference margin within
``TOL`` of zero is a tie up to rounding, on which either label is accepted.
"""

from __future__ import annotations

import heapq

TOL = 1e-9
RULES = ("mv", "wmv", "sv", "gtx")


def aggregate(rule, votes, acc):
    """(label, confidence, soft_p1, margin) of one example.

    ``votes`` is a list of (labeler_id, value); ``acc`` maps labeler_id to
    its estimated accuracy.  Exact ties go to class 0, as the paper's rules
    state.  ``margin`` is the winning share minus the losing share.
    """
    n = len(votes)
    if rule == "mv":
        s1 = float(sum(v for _, v in votes))
        s0 = float(n - s1)
        total = float(n)
    elif rule == "wmv":
        s1 = sum(acc[j] for j, v in votes if v == 1)
        s0 = sum(acc[j] for j, v in votes if v == 0)
        total = s0 + s1
    elif rule == "sv":
        s1 = sum(acc[j] if v == 1 else 1.0 - acc[j] for j, v in votes)
        s0 = sum(1.0 - acc[j] if v == 1 else acc[j] for j, v in votes)
        total = float(n)
    elif rule == "gtx":
        like1 = like0 = 0.5
        for j, v in votes:
            like1 *= acc[j] if v == 1 else 1.0 - acc[j]
            like0 *= acc[j] if v == 0 else 1.0 - acc[j]
        s1, s0 = like1, like0
        total = like0 + like1
    else:
        raise ValueError(f"unknown rule {rule!r}")
    p1, p0 = s1 / total, s0 / total
    label = 1 if p1 > p0 else 0
    return label, max(p0, p1), p1, abs(p1 - p0)


def compare(rule, votes, acc, label, confidence, soft_p1, n_labels):
    """Empty string when a reported aggregate matches the reference, else why not."""
    ref_label, ref_conf, ref_soft, margin = aggregate(rule, votes, acc)
    if n_labels != len(votes):
        return f"n_labels {n_labels} but {len(votes)} votes"
    if label != ref_label and (rule in ("mv", "wmv") or margin > TOL):
        return f"label {label}, reference {ref_label} (margin {margin:.3g})"
    if abs(confidence - ref_conf) > TOL:
        return f"confidence {confidence!r}, reference {ref_conf!r}"
    if abs(soft_p1 - ref_soft) > TOL:
        return f"soft_p1 {soft_p1!r}, reference {ref_soft!r}"
    return ""


def _common(events, budget, cap):
    """Rules every collection log obeys; returns (problems, votes by example)."""
    problems = []
    steps = [e["step"] for e in events]
    if steps != list(range(1, len(steps) + 1)):
        problems.append("steps do not run 1, 2, 3, ... without a gap")
    if len(events) != budget:
        problems.append(f"{len(events)} labels collected, budget {budget}")
    votes = {}
    for e in events:
        ex_votes = votes.setdefault(e["example_id"], [])
        if any(j == e["labeler_id"] for j, _ in ex_votes):
            problems.append(
                f"labeler {e['labeler_id']!r} labels example {e['example_id']!r} twice"
            )
        ex_votes.append((e["labeler_id"], e["value"]))
        if len(ex_votes) > cap:
            problems.append(f"example {e['example_id']!r} gets more than {cap} labels")
    return problems, votes


def _confidences(rule, events, acc):
    """Reference confidence right after every event, and the event's own."""
    votes = {}
    for e in events:
        ex_votes = votes.setdefault(e["example_id"], [])
        ex_votes.append((e["labeler_id"], e["value"]))
        yield e, aggregate(rule, ex_votes, acc)[1]


def replay_threshold(events, rule, acc, budget, kappa, tau=None, count=None):
    """Problems found replaying a confidence-threshold log (empty if legal).

    Examples are visited in ascending id order from 0, each at most once; an
    example other than the last one (which the budget may cut) stops exactly
    when it holds ``count`` labels, or as soon as its confidence reaches
    ``tau`` or it holds ``kappa`` labels.
    """
    problems, votes = _common(events, budget, kappa)
    order = list(dict.fromkeys(e["example_id"] for e in events))
    if order != list(range(len(order))):
        problems.append("examples are not visited in ascending order from 0")
    runs = [e["example_id"] for e in events]
    if any(b != a and b != a + 1 for a, b in zip(runs, runs[1:])):
        problems.append("an example is revisited after the next one started")
    last = order[-1] if order else None
    k_so_far = {}
    for e, conf in _confidences(rule, events, acc):
        ex = e["example_id"]
        k = k_so_far[ex] = k_so_far.get(ex, 0) + 1
        if abs(conf - e["confidence"]) > TOL:
            problems.append(
                f"step {e['step']}: logged confidence {e['confidence']!r}, "
                f"reference {conf!r}"
            )
        final = k == len(votes[ex])
        if count is not None:
            if final and ex != last and k != count:
                problems.append(f"example {ex} stops at {k} labels, count {count}")
        elif not final and conf >= tau + TOL:
            problems.append(f"example {ex} continues at confidence {conf!r} >= tau")
        elif final and ex != last and k < kappa and conf < tau - TOL:
            problems.append(f"example {ex} stops at confidence {conf!r} < tau")
    return problems[:10]


def replay_uncertainty(events, rule, acc, budget, n_examples, n_labelers):
    """Problems found replaying an uncertainty-sampling log (empty if legal).

    The first ``n_examples`` labels cover examples 0.. in order; after that
    each label goes to an example of lowest reference confidence among those
    with an unused labeler.
    """
    problems, _ = _common(events, budget, n_labelers)
    first = [e["example_id"] for e in events[:n_examples]]
    if first != list(range(n_examples)):
        problems.append("the first pass does not label examples 0.. in order")
        return problems[:10]
    conf = {}
    counts = {}
    heap = []
    for step, (e, c) in enumerate(_confidences(rule, events, acc)):
        ex = e["example_id"]
        if step >= n_examples:
            while heap and (heap[0][0] != conf[heap[0][1]] or counts[heap[0][1]] >= n_labelers):
                heapq.heappop(heap)
            if heap and conf[ex] > heap[0][0] + TOL:
                problems.append(
                    f"step {e['step']}: example {ex} at confidence {conf[ex]!r} "
                    f"labeled before example {heap[0][1]} at {heap[0][0]!r}"
                )
        counts[ex] = counts.get(ex, 0) + 1
        conf[ex] = c
        if counts[ex] < n_labelers:
            heapq.heappush(heap, (c, ex))
    return problems[:10]
