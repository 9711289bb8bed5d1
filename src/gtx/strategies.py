"""Budgeted label-collection strategies.

Two strategies share a labeling budget ``B`` (one unit per collected label;
assessment labels are charged elsewhere):

* Confidence threshold: visit examples in ascending id order; keep adding
  labels to the current example until the aggregate confidence reaches tau
  (inclusive) or the example holds ``kappa`` labels, then move on.  MV and
  WMV reach confidence 1.0 after a single label, so for them a fixed
  per-example label count substitutes for tau.
* Uncertainty sampling: give every example one label in id order, then
  repeatedly label the example whose aggregate is most uncertain, breaking
  exact ties toward the lowest example id, until the budget (or every
  labeler pool) is exhausted.

Both engines stop mid-example when the budget runs out and keep the partial
labels: they are paid for.  Neither engine knows any rule: each run looks up
the rule's increment pairs per labeler once, in one table that both engines
share, and keeps two accumulators per example, and the kernel of
:mod:`gtx.model` supplies the finalizers (whose confidence is also the
event-log confidence) and the tau stop test.  The engines take no class
prior (GTX runs under the uniform one; ``aggregate`` takes any other), so a
run under any rule is the same whichever class is called 1.  GTX
stops in log-odds space against ``log_odds(tau)``, so that a vote from a
labeler whose estimate equals tau exactly meets the threshold even in
floating point; SV stops on its winning share.

Each label takes two uniform draws: selection indexes the ascending list of
unused labeler ids, then correctness is compared against the labeler's true
accuracy.  Label j of a run uses draws 2j and 2j + 1, whichever example it
goes to.  Both engines take the draws in blocks.  The uncertainty engine runs
its first pass, where example i takes label i, in numpy, and hands its later
draws to the heap loop as Python floats a block at a time.  The loop records
each label's example, hard label and soft score, and the label counts and the
error and MAE dynamics come from those columns after it.  The threshold engine
takes its draws for a window of start offsets at a time: it simulates in
numpy the labels an example starting at each offset would take, one count for
both truths (truth 1 swaps the sums), then chains the real example starts
through the window and closes all examples with the kernel's array
finalizer.  The one-label select and elicit oracles in ``tests/oracles.py``
are the spec both engines replay exactly, and the one-label-at-a-time
threshold and uncertainty loops there are the references the engines equal
bit for bit.
"""

from __future__ import annotations

import heapq
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Hashable, Mapping, NamedTuple

import numpy as np

from .aggregators import Method
from .errors import ConfigError, DataError, is_int, is_number
from .model import increment_table, kernel
from .simulation import SimDataset, SimLabeler, check_pool, check_rng

__all__ = [
    "BudgetLedger",
    "CollectionOutcome",
    "EventLog",
    "LabelEvent",
    "ThresholdConfig",
    "run_confidence_threshold",
    "run_uncertainty_sampling",
]


@dataclass(frozen=True)
class ThresholdConfig:
    """Stopping rule for the confidence-threshold strategy.

    Exactly one of ``tau`` (stop at confidence >= tau, capped at ``kappa``
    labels) or ``fixed_count`` (collect exactly that many labels) must be
    set.  MV and WMV require ``fixed_count``.
    """

    tau: float | None
    kappa: int
    fixed_count: int | None = None

    def __post_init__(self):
        problems = []
        tau, kappa, count = self.tau, self.kappa, self.fixed_count
        if not is_int(kappa):
            problems.append(f"kappa must be an integer, got {kappa!r}")
        elif kappa < 1:
            problems.append(f"kappa must be >= 1, got {kappa}")
        if tau is not None:
            if not is_number(tau):
                problems.append(f"tau must be a number, got {tau!r}")
            elif not 0.5 < tau <= 1.0:  # nan too
                problems.append(f"tau must be in (0.5, 1], got {tau}")
        if tau is None and count is None:
            problems.append("either tau or fixed_count must be set")
        if tau is not None and count is not None:
            problems.append("tau and fixed_count are mutually exclusive")
        if count is not None:
            if not is_int(count):
                problems.append(f"fixed_count must be an integer, got {count!r}")
            elif count < 1:
                problems.append(f"fixed_count must be >= 1, got {count}")
            elif is_int(kappa) and 1 <= kappa < count:
                problems.append(f"fixed_count ({count}) exceeds kappa ({kappa})")
        if problems:
            raise ConfigError("; ".join(problems))


@dataclass
class BudgetLedger:
    """Label spending of one run: one unit per collected label.  The labels
    spent on each example are the outcome's ``labels_per_example``.  Both
    engines check their budget here: a whole number >= 0, kept as an int."""

    total: int
    spent: int = 0

    def __post_init__(self):
        total = self.total
        whole = is_int(total) or isinstance(total, (float, np.floating)) and total.is_integer()
        if not whole or total < 0:
            raise ConfigError(f"budget must be a non-negative integer, got {total!r}")
        if not is_int(self.spent) or not 0 <= self.spent <= total:
            raise ConfigError(f"spent must be an integer in [0, total], got {self.spent!r}")
        self.total, self.spent = int(total), int(self.spent)

    @property
    def remaining(self) -> int:
        return self.total - self.spent


class LabelEvent(NamedTuple):
    """One collected label plus the aggregate confidence right after it.

    A tuple, so an event compares equal to a plain tuple of its fields."""

    step: int
    example_id: int
    labeler_id: int
    value: int
    confidence: float


class EventLog(Sequence):
    """A run's events in order, held as columns: int64 ``steps``,
    ``example_ids`` and ``values``, float64 ``confidences``, and intp
    ``positions`` into ``pool_ids``, the pool's ids.  It reads as the list
    of its ``LabelEvent``s, with that list's ``==`` and repr."""

    __slots__ = ("steps", "example_ids", "positions", "values", "confidences", "pool_ids")

    def __init__(self, steps, example_ids, positions, values, confidences, pool_ids):
        self.steps, self.example_ids, self.positions, self.values, self.confidences = (
            np.asarray(c, t) for c, t in zip((steps, example_ids, positions, values, confidences),
                                             (np.int64, np.int64, np.intp, np.int64, float)))
        self.pool_ids = pool_ids

    def __len__(self):
        return len(self.steps)

    def __iter__(self):
        fields = zip(self.steps.tolist(), self.example_ids.tolist(),
                     map(self.pool_ids.__getitem__, self.positions.tolist()),
                     self.values.tolist(), self.confidences.tolist())
        return map(tuple.__new__, repeat(LabelEvent), fields)

    def __getitem__(self, index):
        if isinstance(index, slice):
            columns = self.steps, self.example_ids, self.positions, self.values, self.confidences
            return EventLog(*(c[index] for c in columns), self.pool_ids)
        i = range(len(self))[index]  # a list's index rules and errors
        return next(iter(self[i:i + 1]))

    def __eq__(self, other):
        return (isinstance(other, Sequence) and len(self) == len(other)
                and all(map(operator.eq, self, other)))

    def __repr__(self):
        return repr(list(self))


@dataclass(eq=False, repr=False)
class CollectionOutcome:
    """Result of one collection run.

    The examples that received labels are always 0..n_labeled-1, and each
    column is a numpy array indexed by example id: int64 ``labels`` and
    ``labels_per_example``, float64 ``confidences`` and ``soft_p1s``, the
    final aggregate of each example.  ``event_log`` is None when the run
    was made with ``record_events=False``, else an ``EventLog`` of one
    event per spent label.  ``dynamics`` (uncertainty sampling only) holds
    three equal-length arrays ``(steps, errors, maes)``: the labels
    collected, and the dataset-wide error rate and MAE after each label
    from the moment full coverage is reached.
    """

    method: Method
    ledger: BudgetLedger
    labels: np.ndarray
    confidences: np.ndarray
    soft_p1s: np.ndarray
    labels_per_example: np.ndarray
    event_log: EventLog | None = None
    dynamics: tuple | None = None

    @property
    def n_labeled(self) -> int:
        return len(self.labels)


def _setup(dataset, labelers, estimates, budget, method, rng):
    """What both engines check and look up first: the arguments' types, the
    rule and its kernel, the budget, the pool's ids in ascending order, each
    pool position's increment pairs and true accuracy, and ``tab[:, 2 * pos
    + right]``, the pair of a vote from position pos that is right (1) or
    not (0) on an example of truth 0, where a right vote is 0."""
    method = Method(method)
    budget = BudgetLedger(budget).total
    if not isinstance(dataset, SimDataset):
        raise DataError(f"dataset must be a SimDataset, got {type(dataset).__name__}")
    check_rng(rng)
    check_pool(labelers)
    pool = sorted(labelers, key=lambda lab: lab.labeler_id)
    ids = [lab.labeler_id for lab in pool]
    inc = increment_table(method, ids, estimates)
    acc = np.array([lab.accuracy for lab in pool])
    tab = np.array([[inc[pos][1 - right][j] for pos in range(len(ids)) for right in (0, 1)]
                    for j in (0, 1)], dtype=float)
    return method, budget, ids, kernel(method), inc, acc, tab


# A threshold window simulates _WINDOW // kmax start offsets (at least one),
# so its arrays hold about _WINDOW labels whatever kmax is.
_WINDOW = 20480


def _simulate_offsets(u, m, stride, kmax, acc, tab, reached, room, record):
    """Collect labels from each of ``m`` start offsets ``stride`` labels
    apart, under both truths at once.

    ``u`` holds two draws per label from the first offset on: label t of
    offset p (the offset ``stride * p`` labels in) picks with ``u[2l]`` and
    is right when ``u[2l + 1]`` is below the labeler's accuracy, where
    ``l = stride * p + t``, so every offset is simulated on its own.  An
    offset takes at most ``kmax`` labels, and at most ``room - stride * p``.
    ``tab[:, 2 * pos + right]`` is the increment pair of a vote from pool
    position pos on an example of truth 0; under truth 1 the same draws give
    the swapped pair, and every kernel treats its classes alike, so one pair
    of sums and one label count serve both truths.

    Returns ``k[p]``, the labels offset p takes, and ``hist[t, y, p]``, its
    accumulator s0 under truth y after label t (s1 is ``hist[t, 1 - y,
    p]``), valid for t < k[p].  With ``record`` it also returns each label's
    pool position and correctness as ``(kmax, m)`` arrays.  Stopped offsets
    leave the working arrays once they are half of them.
    """
    L = len(acc)
    b = 2 * u.itemsize  # one label's draws
    sel, cor = (np.ndarray((kmax, m), float, u, j * u.itemsize, (b, b * stride))
                for j in (0, 1))
    # label t picks the int(u * (L - t))-th unused position
    rank = (sel * np.arange(L, L - kmax, -1, dtype=float)[:, None]).astype(np.intp)
    act = np.arange(m)  # window offsets still collecting
    k = full_k = np.zeros(m, np.intp)
    s = np.zeros((2, m))
    alive = np.ones(m, bool)
    hist = np.empty((kmax, 2, m))
    picked = (np.zeros((kmax, m), np.intp), np.zeros((kmax, m), bool)) if record else None
    picks = []  # picks[j]: the (j+1)-th smallest position each offset used

    for t in range(kmax):
        c = rank[t]
        for q in picks:
            c += q <= c
        right = cor[t] < acc[c]
        d = tab.take(2 * c + right, axis=1)
        if k is full_k:  # no offset has left the working arrays yet
            s = np.add(s, d, out=hist[t])
        else:
            s = s + d
            hist[t][:, act] = s
        k += alive
        if record:
            picked[0][t, act], picked[1][t, act] = c, right
        if reached is not None:
            alive &= ~reached(s[0], s[1])
        if t + 1 == kmax:
            break
        if room - t - 1 < stride * m:  # the offset whose next label is over budget
            alive &= stride * act != room - t - 1
        n_keep = np.count_nonzero(alive)
        if 2 * n_keep <= len(act):
            full_k[act] = k
            if not n_keep:
                break
            kept = alive.nonzero()[0]
            act, c, picks = act[kept], c[kept], [q[kept] for q in picks]
            rank, cor, k, s, alive = (x.take(kept, axis=-1) for x in (rank, cor, k, s, alive))
        for j, q in enumerate(picks):  # insert c, keeping picks sorted
            picks[j], c = np.minimum(q, c), np.maximum(q, c)
        picks.append(c)
    full_k[act] = k
    return full_k, hist, picked


def run_confidence_threshold(
    dataset: SimDataset,
    labelers: Sequence[SimLabeler],
    estimates: Mapping[Hashable, "LabelerEstimate"] | None,
    config: ThresholdConfig,
    budget: int,
    method: Method,
    rng,
    *,
    record_events: bool = True,
) -> CollectionOutcome:
    """Collect labels example-by-example until confidence or count says stop.

    Examples are visited in ascending id order; the run ends when the budget
    is spent or the dataset is exhausted.  At most the final example is cut
    mid-collection, and its partial labels are kept.  ``rng`` is a numpy
    Generator, or anything whose ``random(n)`` gives its next ``n`` draws as
    an array; the run may take draws past its last label.

    Label j of the run uses draws 2j and 2j + 1 whichever example it goes
    to, so the labels an example would take from each start offset are
    simulated in numpy for a window of offsets at a time, and the real
    example starts are then chained through them: one at a time, or, while
    examples take kmax labels each, in numpy.  One call of the kernel's
    array finalizer closes the examples that start in a window.
    """
    method, budget, ids, kern, _, acc, tab = _setup(dataset, labelers, estimates, budget,
                                                    method, rng)
    if not isinstance(config, ThresholdConfig):
        raise ConfigError(f"config must be a ThresholdConfig, got {type(config).__name__}")
    if config.kappa > len(ids):
        raise ConfigError(f"kappa ({config.kappa}) exceeds pool size ({len(ids)})")
    kmax, reached = config.fixed_count, None
    if kmax is None:
        if kern.stop is None:
            raise ConfigError(
                f"{method} reaches confidence 1.0 after one label; "
                "use fixed_count instead of tau"
            )
        kmax, reached = config.kappa, kern.stop(config.tau)
    truth = dataset.true_labels
    n = dataset.n_examples
    width = max(1, _WINDOW // kmax)
    # Examples start every kmax labels while each takes kmax, as under a
    # fixed count, so a window then simulates only every kmax-th offset.  A
    # tau window does so after a window whose examples all took kmax, and
    # ends early at a start it skipped.
    stride = 1 if reached is not None else kmax

    events = []  # per window, its events' columns (see _window_events)
    # per window, its examples' (labels, confidences, soft_p1s, label counts);
    # the empty first entry sets the dtypes when no window runs
    closed = [(np.empty(0, np.int64), np.empty(0), np.empty(0), np.empty(0, np.int64))]
    i = o = 0  # the next example and the offset of its first label
    u, got = np.empty(0), 0  # the draws of labels o.., all draws taken
    while i < n and o < budget:
        end = min(o + stride * width, o + (n - i) * kmax, budget)  # offsets o..end-1
        m = -((o - end) // stride)
        span = stride * (m - 1) + kmax  # the labels the window reads
        if len(u) < 2 * span:
            # draws for labels up to the budget; zeros after it are never kept
            new = rng.random(max(0, 2 * min(span, budget - o) - len(u)))
            got += len(new)
            u = np.concatenate((u, new, np.zeros(2 * span - len(u) - len(new))))
        k, hist, picked = _simulate_offsets(
            u, m, stride, kmax, acc, tab, reached, budget - o, record_events
        )
        w0, i0 = o, i
        if stride == 1:
            kl = k.tolist()
            starts = []
            while i < n and o < end:
                p = o - w0
                starts.append(p)
                o += kl[p]
                i += 1
            starts = np.array(starts, np.intp)
        else:
            # example i0 + p starts at window offset p (m <= n - i0) while
            # every example before it took kmax labels
            short = k < kmax
            c = int(short.argmax()) + 1 if short.any() else m
            starts = np.arange(c)
            i, o = i0 + c, o + kmax * (c - 1) + int(k[c - 1])
        y, kk = truth[i0:i], k[starts]
        # the example starting at offset p closes with the sums after its kk-th label
        s0, s1 = hist[kk - 1, y, starts], hist[kk - 1, 1 - y, starts]
        closed.append((*kern.finalize_array(s0, s1), kk))
        if record_events:
            events.append(_window_events(i0, starts, kk, y, hist, picked, kern.finalize_array))
        if reached is not None:
            stride = kmax if kk.min() == kmax else 1
        u = u[2 * (o - w0):]
    if o > got // 2:
        raise ConfigError(f"the draw stream ended after {got} draws; {o} labels need {2 * o}")
    log = None
    if record_events:  # label j of the run is step j + 1
        columns = map(np.concatenate, zip(*events)) if events else [()] * 4
        log = EventLog(np.arange(1, o + 1), *columns, ids)
    return CollectionOutcome(method, BudgetLedger(budget, o),
                             *map(np.concatenate, zip(*closed)), event_log=log)


def _window_events(i0, starts, ks, y, hist, picked, finalize_array):
    """The event columns (see ``EventLog``) of the examples starting in one window."""
    # one row per label: its example's offset and truth, and its index t
    p = np.repeat(starts, ks)
    t = np.arange(len(p)) - np.repeat(np.cumsum(ks) - ks, ks)
    y = np.repeat(y, ks)
    pos, right = (x[t, p] for x in picked)
    conf = finalize_array(hist[t, y, p], hist[t, 1 - y, p])[1]
    return np.repeat(np.arange(i0, i0 + len(ks)), ks), pos, np.where(right, y, 1 - y), conf


def _draws(rng, lo, hi, total):
    """The draws of labels lo..hi-1 of a run that spends ``total`` labels."""
    u = rng.random(2 * (hi - lo))
    if len(u) < 2 * (hi - lo):
        raise ConfigError(f"the draw stream ended after {2 * lo + len(u)} draws; "
                         f"{total} labels need {2 * total}")
    return u


# The heap loop takes the draws of this many labels at a time.
_HEAP_BLOCK = 8192


def run_uncertainty_sampling(
    dataset: SimDataset,
    labelers: Sequence[SimLabeler],
    estimates: Mapping[Hashable, "LabelerEstimate"] | None,
    budget: int,
    method: Method,
    rng,
    *,
    record_events: bool = True,
) -> CollectionOutcome:
    """First pass in id order, then always label the most uncertain example.

    The run spends ``min(budget, n_examples * pool size)`` labels: it ends
    when the budget is spent or every example has used all of its labelers.
    In the first pass example i takes label i, from draws 2i and 2i + 1, so
    the pass runs in numpy and one call of the kernel's array finalizer
    closes it.  After it, uncertainty is 1 - aggregate confidence and is
    recomputed only for the example just labeled, so a max-heap that holds
    one entry per example with unused labelers gives the exact argmax at
    every step.  Each new priority goes in with ``heappushpop``, which hands
    the example straight back when it is still the most uncertain.  Exact ties
    break toward the lowest example id.  An example's unused labelers are
    listed when the heap first picks it.  The draws are taken a block at a
    time; a stream that ends before the run does is a ``ConfigError``.

    The loop appends only each label's example, hard label and soft score
    (and, with ``record_events``, its other event fields).  After it,
    ``labels_per_example`` counts the example column, and ``dynamics``, the
    error rate and MAE over the dataset after each label from full coverage
    on, as ``(steps, errors, maes)`` (empty without it), are running sums.
    """
    method, budget, ids, kern, inc, acc, tab = _setup(dataset, labelers, estimates, budget,
                                                      method, rng)
    L, truth, n = len(ids), dataset.true_labels, dataset.n_examples
    total = min(budget, n * L)
    c = min(budget, n)  # the examples covered by the first pass

    # first pass: example i takes label i
    u = _draws(rng, 0, c, total)
    pos = (u[0::2] * L).astype(np.intp)
    y = truth[:c]
    v = np.where(u[1::2] < acc[pos], y, 1 - y)
    # 0.0 + d, as a sum starting at 0.0 adds its first increment
    s0, s1 = 0.0 + tab[:, 2 * pos + 1 - v]
    first = kern.finalize_array(s0, s1)
    # the heap loop's columns; positions, values and confidences only with record_events
    ex_log, lab_log, soft_log, pos_log, value_log, conf_log = [], [], [], [], [], []
    if c < total:  # then every example is covered and has unused labelers
        finalize = kern.finalize
        acc, ys, firsts = acc.tolist(), truth.tolist(), pos.tolist()
        unused = [None] * n
        s0, s1 = s0.tolist(), s1.tolist()
        heappop, heappushpop = heapq.heappop, heapq.heappushpop
        heap = list(zip((-(1.0 - first[1])).tolist(), range(n)))
        heapq.heapify(heap)
        entry = heappop(heap)
        # the draws of labels c.. as Python floats, a block at a time
        draws = chain.from_iterable(
            _draws(rng, lo, min(lo + _HEAP_BLOCK, total), total).tolist()
            for lo in range(c, total, _HEAP_BLOCK))
        for r0, r1 in zip(draws, draws):
            i = entry[1]
            un = unused[i]
            if un is None:
                un = unused[i] = list(range(L))
                del un[firsts[i]]
            p = un.pop(int(r0 * len(un)))
            yi = ys[i]
            w = yi if r1 < acc[p] else 1 - yi
            d0, d1 = inc[p][w]
            a0 = s0[i] = s0[i] + d0
            a1 = s1[i] = s1[i] + d1
            lab, conf, soft = finalize(a0, a1)
            ex_log.append(i)
            lab_log.append(lab)
            soft_log.append(soft)
            if record_events:
                pos_log.append(p)
                value_log.append(w)
                conf_log.append(conf)
            if un:
                entry = heappushpop(heap, (-(1.0 - conf), i))
            elif heap:
                entry = heappop(heap)

    # each column: the first pass's, then the heap loop's
    ex, pos, v, lab, conf, soft = (np.concatenate((a, np.array(b, a.dtype))) for a, b in zip(
        (np.arange(c), pos, v, *first), (ex_log, pos_log, value_log, lab_log, conf_log, soft_log)))
    # label j of the run is step j + 1
    log = EventLog(np.arange(1, total + 1), ex, pos, v, conf, ids) if record_events else None
    closed = kern.finalize_array(np.array(s0), np.array(s1))  # each example's last aggregate
    return CollectionOutcome(method, BudgetLedger(budget, total), *closed,
                             np.bincount(ex, minlength=c), event_log=log,
                             dynamics=_dynamics(truth, ex, lab, soft))


def _dynamics(truth, ex, labels, softs):
    """The ``(steps, errors, maes)`` of a run whose label j left example
    ``ex[j]`` at ``labels[j]`` and ``softs[j]``, from full coverage on: the
    running sums of each label's change to the error count and to the MAE
    sum.  A label replaces its example's last earlier one, and a first-pass
    label replaces nothing."""
    n = len(truth)
    # each label's miss (as int64) and deviation, then the state before any label
    miss = np.append(labels != truth[ex], 0)
    dev = np.append(np.abs(truth[ex] - softs), 0.0)
    order = np.argsort(ex, kind="stable")  # each example's labels in run order
    prev = np.empty_like(order)
    prev[order[1:]] = order[:-1]
    prev[:n] = -1  # first-pass labels
    # np.add.accumulate adds left to right, as a running sum does; [n - 1:]
    # starts at the label that completes full coverage, and is empty without it
    errors = np.cumsum(miss[:-1] - miss[prev])[n - 1:] / n
    maes = np.add.accumulate(dev[:-1] - dev[prev])[n - 1:] / n
    return np.arange(n, n + len(errors)), errors, maes
