"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: plain probability space, no logs, no
incremental state.  If the package and these functions agree, the clever
versions earn their keep.  ``select_labeler`` and ``elicit_label`` are the
spec of one collected label that both collection engines replay exactly,
``confidence_threshold`` is the one-label-at-a-time loop that the
offset-parallel threshold engine must equal bit for bit, and
``uncertainty_sampling`` the one-label-at-a-time heap loop that the
uncertainty engine must equal bit for bit.
``run_assessment`` answers the assessment one draw at a time and estimates
each labeler from its responses, the spec of the one-block
``gtx.assessment.run_assessment``.
``error_rate`` and ``mean_absolute_error`` are the scoring loops, one
example at a time, that the numpy scoring of ``gtx.metrics.trial_report``
must equal, and ``mean_se`` the scalar trial mean and standard error that
``gtx.metrics.mean_se`` must equal on floats and, element by element, on
arrays.
``read_label_records`` is the label-file reader as a plain ``json.loads``
loop, the spec of the one-scan reader in ``gtx.io``, and ``write_columns``
the column writer as text, one ``%`` of ``str`` cells per 1,024 rows, the
spec of the bytes that ``gtx.io.write_columns`` writes.
``normalize`` is the two-exp posterior, the spec of gtx's one-exp
``finalize``, ``aggregate`` the spec of ``gtx.aggregate``'s bits under the
uniform prior, and ``aggregate_fault`` the spec of the error it raises.
"""

import heapq
import itertools
import json
import math
from pathlib import Path

import numpy as np

from gtx.assessment import estimate_accuracy
from gtx.aggregators import AggregateLabel
from gtx.errors import DataError
from gtx.model import (
    MV_INCREMENTS, LabelRecord, Method, increment_table, kernel, log_odds,
)
from gtx.strategies import BudgetLedger, CollectionOutcome, LabelEvent


def bayes_posterior(values, accuracies, p0=0.5, p1=0.5):
    """Direct two-hypothesis Bayes over one-coin labelers."""
    like0, like1 = p0, p1
    for v, a in zip(values, accuracies):
        like0 *= a if v == 0 else 1.0 - a
        like1 *= a if v == 1 else 1.0 - a
    total = like0 + like1
    return like0 / total, like1 / total


def normalize(a0, a1):
    """Probabilities proportional to exp(a0) and exp(a1), max subtracted first."""
    m = a0 if a0 >= a1 else a1
    e0 = math.exp(a0 - m)
    e1 = math.exp(a1 - m)
    z = e0 + e1
    return e0 / z, e1 / z


def aggregate(method, labels, estimates=None):
    """One example's aggregate under the uniform prior: each vote's
    ``increments[method.code][value]`` (mv's without estimates) summed left
    to right from 0.0, then the rule's ``finalize``."""
    s0 = s1 = 0.0
    for rec in labels:
        if method is Method.MV:
            d0, d1 = MV_INCREMENTS[rec.value]
        else:
            d0, d1 = estimates[rec.labeler_id].increments[method.code][rec.value]
        s0 += d0
        s1 += d1
    label, confidence, soft_p1 = kernel(method).finalize(s0, s1)
    return AggregateLabel(labels[0].example_id, method, label, confidence, soft_p1, len(labels))


def aggregate_fault(method, labels, estimates=None):
    """The ``DataError`` message ``gtx.aggregate`` raises for one example's
    votes, or None when they are valid, one plain loop per rule in the
    documented order: a voter who votes twice (the first repeat, in vote
    order), no votes, several examples, no estimates for a rule that needs
    them, then the first voter without an estimate."""
    voters = []
    for rec in labels:
        if rec.labeler_id in voters:
            return f"labeler {rec.labeler_id!r} voted twice on example {rec.example_id!r}"
        voters.append(rec.labeler_id)
    if not labels:
        return "cannot aggregate zero labels"
    examples = []
    for rec in labels:
        if rec.example_id not in examples:
            examples.append(rec.example_id)
    if len(examples) > 1:
        return f"labels span multiple examples: {sorted(repr(e) for e in examples)}"
    if method is not Method.MV:
        if estimates is None:
            return f"method {method} requires accuracy estimates"
        for rec in labels:
            if rec.labeler_id not in estimates:
                return f"no accuracy estimate for labeler {rec.labeler_id!r}"
    return None


def majority(values):
    """(label, share of votes for it); exact ties go to class 0."""
    ones = sum(values)
    n = len(values)
    if ones * 2 > n:
        return 1, ones / n
    return 0, (n - ones) / n


def weighted_share(values, accuracies):
    """(label, winning accuracy mass / total accuracy mass); ties to 0.

    Each class's mass is summed on its own, in vote order, so that two equal
    masses tie however the total rounds.
    """
    w0 = sum(a for v, a in zip(values, accuracies) if v == 0)
    w1 = sum(a for v, a in zip(values, accuracies) if v == 1)
    if w1 > w0:
        return 1, w1 / (w0 + w1)
    return 0, w0 / (w0 + w1)


def share_vote(values, accuracies):
    """Each voter adds accuracy to its class and the rest to the other.

    Each class's mass is summed on its own, in vote order.  Returns (label,
    winning mass / number of voters); ties to 0.
    """
    m0 = sum(a if v == 0 else 1.0 - a for v, a in zip(values, accuracies))
    m1 = sum(a if v == 1 else 1.0 - a for v, a in zip(values, accuracies))
    n = len(values)
    if m1 > m0:
        return 1, m1 / n
    return 0, m0 / n


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


def run_assessment(labelers, assessment, rng):
    """Every labeler answers every assessment item, one draw per response
    (labelers in the given order, items in assessment order), and is
    estimated from its responses."""
    estimates = {}
    for labeler in labelers:
        responses = {}
        for item_id, truth in assessment.items():
            correct = rng.random() < labeler.accuracy
            responses[item_id] = truth if correct else 1 - truth
        estimates[labeler.labeler_id] = estimate_accuracy(
            labeler.labeler_id, responses, assessment
        )
    return estimates


def _reached(method, tau):
    """The scalar tau stop test of sv and gtx; None for mv and wmv."""
    if method is Method.SV:
        def reached(s0, s1):
            return (s1 if s1 > s0 else s0) / (s0 + s1) >= tau
        return reached
    if method is Method.GTX:
        thr = math.inf if tau == 1.0 else log_odds(tau)

        def reached(s0, s1):
            d = s1 - s0
            return d >= thr or -d >= thr
        return reached
    return None


def confidence_threshold(dataset, labelers, estimates, config, budget, method,
                         rng, record_events=True):
    """The confidence-threshold run, one label at a time, for valid inputs.

    Each label pops ``int(u * len(unused))`` from the ascending unused pool
    positions, then compares the next draw with the labeler's accuracy.
    """
    pool = sorted(labelers, key=lambda lab: lab.labeler_id)
    ids = [lab.labeler_id for lab in pool]
    L = len(pool)
    finalize = kernel(method).finalize
    c_stop = config.fixed_count
    reached = None if c_stop is not None else _reached(method, config.tau)
    inc = increment_table(method, ids, estimates)
    acc_true = [lab.accuracy for lab in pool]
    kap = config.kappa
    rand = rng.random
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
                events.append(LabelEvent(spent, i, ids[pos], v, finalize(s0, s1)[1]))
            if k == kap or k == c_stop or (reached is not None and reached(s0, s1)):
                break
        finals.append(finalize(s0, s1))
        ks.append(k)
    labels, confidences, soft_p1s = ([f[j] for f in finals] for j in range(3))
    return CollectionOutcome(
        method, BudgetLedger(budget, spent), np.array(labels, dtype=np.int64),
        np.array(confidences, dtype=np.float64), np.array(soft_p1s, dtype=np.float64),
        np.array(ks, dtype=np.int64), event_log=events,
    )


def uncertainty_sampling(dataset, labelers, estimates, budget, method, rng, *,
                         record_events=True):
    """The uncertainty-sampling run, one label at a time, for valid inputs:
    first pass in id order, then always label the most uncertain example.

    Uncertainty is 1 - aggregate confidence and is recomputed only for the
    example just labeled, so a lazy max-heap (stale entries skipped by a
    version counter) gives the exact argmax at every step.  Exact ties break
    toward the lowest example id.  The run ends when the budget is spent or
    every example has used all of its labelers.

    The outcome carries the dataset-wide error rate and MAE after every
    label, starting at the label that completes full coverage, as
    ``(steps, errors, maes)`` arrays.
    """
    method = Method(method)
    pool = sorted(labelers, key=lambda lab: lab.labeler_id)
    ids = [lab.labeler_id for lab in pool]
    L = len(pool)
    kern = kernel(method)
    finalize = kern.finalize
    inc = increment_table(method, ids, estimates)
    acc_true = [lab.accuracy for lab in pool]
    rand = rng.random
    truth = dataset.true_labels.tolist()
    n = dataset.n_examples

    events = [] if record_events else None

    # per-example mutable state; cur[i] is (label, confidence, soft_p1)
    unused = [None] * n
    kcount = [0] * n
    s0 = [0.0] * n
    s1 = [0.0] * n
    cur = [None] * n
    spent = 0

    def add_label(i: int) -> None:
        """One select+elicit+update step for example i.  Two draws."""
        nonlocal spent
        yi = truth[i]
        un = unused[i]
        pos = un.pop(int(rand() * len(un)))
        v = yi if rand() < acc_true[pos] else 1 - yi
        kcount[i] += 1
        spent += 1
        d0, d1 = inc[pos][v]
        a0 = s0[i] = s0[i] + d0
        a1 = s1[i] = s1[i] + d1
        cur[i] = now = finalize(a0, a1)
        if events is not None:
            events.append(LabelEvent(spent, i, ids[pos], v, now[1]))
    # first pass: one label per example, id order
    covered = 0
    for i in range(n):
        if spent >= budget:
            break
        unused[i] = list(range(L))
        add_label(i)
        covered += 1

    err_sum = 0
    mae_sum = 0.0
    errors, maes = [], []  # after each label from full coverage on
    track = 0 < covered == n
    if track:
        for i in range(n):
            lab, _, soft = cur[i]
            err_sum += lab != truth[i]
            mae_sum += abs(truth[i] - soft)
        errors.append(err_sum / n)
        maes.append(mae_sum / n)

    if covered == n and spent < budget:
        # an entry is stale once its example has more labels than it records
        heap = [(-(1.0 - cur[i][1]), i, 1) for i in range(n) if unused[i]]
        heapq.heapify(heap)
        while spent < budget and heap:
            neg_u, i, k = heapq.heappop(heap)
            if k != kcount[i]:
                continue  # stale priority
            if track:
                lab, _, soft = cur[i]
                old_err = lab != truth[i]
                old_mae = abs(truth[i] - soft)
            add_label(i)
            lab, conf, soft = cur[i]
            if unused[i]:
                heapq.heappush(heap, (-(1.0 - conf), i, k + 1))
            if track:
                err_sum += (lab != truth[i]) - old_err
                mae_sum += abs(truth[i] - soft) - old_mae
                errors.append(err_sum / n)
                maes.append(mae_sum / n)

    ks = np.array(kcount[:covered], dtype=np.int64)
    closed = kern.finalize_array(np.array(s0[:covered]), np.array(s1[:covered]))
    dynamics = np.arange(n, n + len(errors)), np.array(errors), np.array(maes)
    return CollectionOutcome(method, BudgetLedger(budget, spent), *closed, ks,
                             event_log=events, dynamics=dynamics)


def error_rate(outcome, true_labels):
    """Wrong hard labels over the labeled examples 0..n-1, counted one at a
    time; None when nothing was labeled."""
    n = outcome.n_labeled
    if n == 0:
        return None
    truth = np.asarray(true_labels).tolist()
    wrong = 0
    for ex, label in enumerate(outcome.labels.tolist()):
        wrong += label != truth[ex]
    return float(wrong) / n


def mean_absolute_error(outcome, true_labels):
    """|true label - soft class-1 score| summed left to right over the
    labeled examples, over their count; None when nothing was labeled."""
    n = outcome.n_labeled
    if n == 0:
        return None
    truth = np.asarray(true_labels).tolist()
    total = 0.0
    for ex, soft in enumerate(outcome.soft_p1s.tolist()):
        total += abs(truth[ex] - soft)
    return float(total) / n


def mean_se(values):
    """Mean and standard error (sample stddev / sqrt(n)) of the non-None
    values, each sum added left to right from 0.0; (None, None) for no
    values, an SE of 0.0 for one."""
    vals = [v for v in values if v is not None]
    n = len(vals)
    if n == 0:
        return None, None
    total = 0.0
    for v in vals:
        total += v
    mean = total / n
    if n == 1:
        return mean, 0.0
    squares = 0.0
    for v in vals:
        squares += (v - mean) ** 2
    return mean, math.sqrt(squares / (n - 1)) / math.sqrt(n)


_RECORD_KEYS = {"example_id", "labeler_id", "step", "value"}


def read_label_records(path):
    """``(records, steps)`` of a JSONL label-record file, each line parsed by
    ``json.loads`` and checked in the documented order: JSON, an object, the
    keys (``confidence`` and ``method`` may be added), str or int ids, an int
    step above the last, a value that is exactly the int 0 or 1, and a new
    (example, labeler) pair.  Every fault is a ``DataError``; text that is
    not UTF-8 is one naming only the file."""
    records, steps, seen, last = [], [], set(), None
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except (ValueError, RecursionError) as exc:  # an int too long to read is a ValueError
                    raise DataError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
                if not isinstance(row, dict):
                    raise DataError(f"{path}:{lineno}: expected an object per line")
                if set(row) - {"confidence", "method"} != _RECORD_KEYS:
                    raise DataError(
                        f"{path}:{lineno}: expected keys {sorted(_RECORD_KEYS)}, "
                        f"got {sorted(row)}"
                    )
                ex, lab = row["example_id"], row["labeler_id"]
                if type(ex) not in (str, int) or type(lab) not in (str, int):
                    raise DataError(
                        f"{path}:{lineno}: example_id and labeler_id must be strings "
                        f"or integers, got {ex!r} and {lab!r}"
                    )
                step = row["step"]
                if not isinstance(step, int) or isinstance(step, bool):
                    raise DataError(f"{path}:{lineno}: step must be an integer")
                if last is not None and step <= last:
                    raise DataError(
                        f"{path}:{lineno}: steps must be strictly increasing "
                        f"({step} after {last})"
                    )
                last = step
                value = row["value"]
                if isinstance(value, bool) or not isinstance(value, int) or value not in (0, 1):
                    raise DataError(
                        f"{path}:{lineno}: value must be the int 0 or 1, got {value!r}")
                rec = LabelRecord(example_id=ex, labeler_id=lab, value=value)
                pair = (rec.example_id, rec.labeler_id)
                if pair in seen:
                    raise DataError(
                        f"{path}:{lineno}: duplicate label for example "
                        f"{rec.example_id!r} by labeler {rec.labeler_id!r}"
                    )
                seen.add(pair)
                records.append(rec)
                steps.append(step)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: invalid UTF-8: {exc}") from None
    return records, steps


def write_columns(path, head, blocks, form=repr):
    """Write ``head``, then ``template % row`` for each row of each
    ``(template, columns)`` block of numpy columns, 1,024 rows at a time, as
    text.  A float64 column's cells are ``form`` of its values, run once per
    distinct bit pattern; any other column's fill their ``%s`` as ``tolist``
    gives them."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(head)
        for template, columns in blocks:
            cells = []
            for c in columns:
                if c.dtype == np.float64:
                    bits, where = np.unique(c.view(np.int64), return_inverse=True)
                    c = np.array([form(v) for v in bits.view(np.float64).tolist()], object)[where]
                cells.append(c)
            for lo in range(0, len(cells[0]), 1024):
                part = [c[lo:lo + 1024].tolist() for c in cells]
                row_cells = tuple(itertools.chain.from_iterable(zip(*part)))
                fh.write((template * len(part[0])) % row_cells)
