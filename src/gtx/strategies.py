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
the rule's increment pairs per labeler once and keeps two accumulators per
example, and the kernel of :mod:`gtx.model` supplies the finalizer (whose
confidence is also the event-log confidence) and the tau stop test.  GTX
stops in log-odds space against ``log_odds(tau)``, so that a vote from a
labeler whose estimate equals tau exactly meets the threshold even in
floating point; SV stops on its winning share.

Each label takes two uniform draws: selection indexes the ascending list of
unused labeler ids, then correctness is compared against the labeler's true
accuracy.  Label j of a run uses draws 2j and 2j + 1, whichever example it
goes to.  The uncertainty engine takes them one at a time from a
block-buffered :class:`gtx.simulation.UniformStream`.  The threshold engine
takes them in blocks for a window of start offsets at a time: it simulates
in numpy the labels an example starting at each offset would take, under
both truths, then chains the real example starts through the window and
closes each example with the kernel's scalar finalizer.  The one-label
select and elicit oracles in ``tests/oracles.py`` are the spec both engines
replay exactly, and the one-label-at-a-time threshold loop there is the
reference the threshold engine equals bit for bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Hashable, Mapping, NamedTuple, Sequence

import numpy as np

from .aggregators import AggregateLabel, Method
from .errors import ConfigError
from .model import ClassPrior, UNIFORM_PRIOR, increment_table, kernel
from .simulation import SimDataset, SimLabeler, UniformStream

__all__ = [
    "BudgetLedger",
    "CollectionOutcome",
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
        if self.kappa < 1:
            problems.append(f"kappa must be >= 1, got {self.kappa}")
        if self.tau is not None and not 0.5 < self.tau <= 1.0:
            problems.append(f"tau must be in (0.5, 1], got {self.tau}")
        if self.tau is None and self.fixed_count is None:
            problems.append("either tau or fixed_count must be set")
        if self.tau is not None and self.fixed_count is not None:
            problems.append("tau and fixed_count are mutually exclusive")
        if self.fixed_count is not None:
            if self.fixed_count < 1:
                problems.append(f"fixed_count must be >= 1, got {self.fixed_count}")
            elif self.kappa >= 1 and self.fixed_count > self.kappa:
                problems.append(
                    f"fixed_count ({self.fixed_count}) exceeds kappa ({self.kappa})"
                )
        if problems:
            raise ConfigError("; ".join(problems))


@dataclass
class BudgetLedger:
    """Label spending of one run: one unit per collected label.  The labels
    spent on each example are the outcome's ``labels_per_example``."""

    total: int
    spent: int = 0

    def __post_init__(self):
        if self.total < 0:
            raise ConfigError(f"budget must be >= 0, got {self.total}")
        if self.spent < 0 or self.spent > self.total:
            raise ValueError("spent must lie in [0, total]")

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


@dataclass(eq=False, repr=False)
class CollectionOutcome:
    """Result of one collection run.

    ``aggregates`` maps example_id to the final :class:`AggregateLabel` for
    every example that received at least one label.  It is materialized
    lazily from compact parallel arrays so that large sweeps can skip the
    cost.  ``event_log`` is None when the run was made with
    ``record_events=False``; when present it holds one event per spent label
    in chronological order.  ``dynamics`` (uncertainty sampling only, opt-in)
    holds ``(labels_collected, error_rate, mae)`` triples recorded after
    every label from the moment full coverage is reached.
    """

    method: Method
    ledger: BudgetLedger
    example_ids: list
    labels: list
    confidences: list
    soft_p1s: list
    labels_per_example: list
    event_log: list | None = None
    dynamics: list | None = None

    @property
    def n_labeled(self) -> int:
        return len(self.example_ids)

    @cached_property
    def aggregates(self) -> dict:
        return {
            ex: AggregateLabel(
                example_id=ex,
                method=self.method,
                label=self.labels[i],
                confidence=self.confidences[i],
                soft_p1=self.soft_p1s[i],
                n_labels=self.labels_per_example[i],
            )
            for i, ex in enumerate(self.example_ids)
        }


def _sorted_pool(labelers: Sequence[SimLabeler]):
    if not labelers:
        raise ConfigError("labeler pool is empty")
    pool = sorted(labelers, key=lambda lab: lab.labeler_id)
    ids = [lab.labeler_id for lab in pool]
    if len(set(ids)) != len(ids):
        raise ConfigError("labeler ids must be unique")
    return pool, ids


def _outcome(method, budget, spent, finals, ks, **logs):
    """The outcome of examples 0..len(finals)-1 from their finalize tuples."""
    labels, confidences, soft_p1s = ([f[j] for f in finals] for j in range(3))
    ledger = BudgetLedger(total=budget, spent=spent)
    return CollectionOutcome(method, ledger, list(range(len(finals))), labels,
                             confidences, soft_p1s, ks, **logs)


def _check_budget(budget) -> int:
    if budget is None or budget < 0 or int(budget) != budget:
        raise ConfigError(f"budget must be a non-negative integer, got {budget!r}")
    return int(budget)


# A threshold window simulates _WINDOW // kmax start offsets, and at most
# _MAX_OFFSETS: its arrays hold about _WINDOW labels, and its Python
# temporaries one number per offset.
_WINDOW = 20480
_MAX_OFFSETS = 1024


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
    the swapped pair (see ``LabelerEstimate.increments``), so one pair of
    accumulators serves both truths.

    Returns ``k[y, p]``, the labels offset p takes under truth y, and
    ``hist[t, y, p]``, its accumulator s0 under truth y after label t (s1
    is ``hist[t, 1 - y, p]``), valid for t < k[y, p].  With
    ``record`` it also returns each label's pool position and correctness
    as ``(kmax, m)`` arrays.  Offsets stopped under both truths leave the
    working arrays once they are half of them.
    """
    L = len(acc)
    b = 2 * u.itemsize  # one label's draws
    sel, cor = (np.ndarray((kmax, m), float, u, j * u.itemsize, (b, b * stride))
                for j in (0, 1))
    # label t picks the int(u * (L - t))-th unused position
    rank = (sel * np.arange(L, L - kmax, -1, dtype=float)[:, None]).astype(np.intp)
    act = np.arange(m)  # window offsets still collecting under some truth
    flat = None  # once offsets leave: the flat index of act in a (2, m) array
    k = np.zeros((2, m), np.intp)
    full_k = k
    s = np.zeros((2, m))
    alive = np.ones((2, m), bool)
    hist = np.empty((kmax, 2, m))
    picked = (np.zeros((kmax, m), np.intp), np.zeros((kmax, m), bool)) if record else None
    picks = []  # picks[j]: the (j+1)-th smallest position each offset used

    for t in range(kmax):
        c = rank[t]
        for q in picks:
            c += q <= c
        right = cor[t] < acc[c]
        d = tab.take(2 * c + right, axis=1)
        if flat is None:
            s = np.add(s, d, out=hist[t])
        else:
            s = s + d
            hist[t].reshape(-1)[flat] = s.reshape(-1)
        k += alive
        if record:
            picked[0][t, act], picked[1][t, act] = c, right
        if reached is not None:
            alive &= ~reached(s, s[::-1], t + 1)
        if t + 1 == kmax:
            break
        if room - t - 1 < stride * m:  # the offset whose next label is over budget
            alive &= stride * act != room - t - 1
        keep = alive[0] | alive[1]
        n_keep = np.count_nonzero(keep)
        if 2 * n_keep <= len(act):
            if flat is not None:
                full_k.reshape(-1)[flat] = k.reshape(-1)
            if not n_keep:
                break
            kept = keep.nonzero()[0]
            act, c, picks = act[kept], c[kept], [q[kept] for q in picks]
            flat = np.concatenate((act, act + m))
            rank, cor, k, s, alive = (x.take(kept, axis=1) for x in (rank, cor, k, s, alive))
        for j, q in enumerate(picks):  # insert c, keeping picks sorted
            picks[j], c = np.minimum(q, c), np.maximum(q, c)
        picks.append(c)
    if flat is not None:
        full_k.reshape(-1)[flat] = k.reshape(-1)
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
    prior: ClassPrior = UNIFORM_PRIOR,
    record_events: bool = True,
) -> CollectionOutcome:
    """Collect labels example-by-example until confidence or count says stop.

    Examples are visited in ascending id order; the run ends when the budget
    is spent or the dataset is exhausted.  At most the final example is cut
    mid-collection, and its partial labels are kept.  ``rng`` may be a numpy
    Generator or an already-positioned UniformStream; the run may take draws
    past its last label.

    Label j of the run uses draws 2j and 2j + 1 whichever example it goes
    to, so the labels an example would take from each start offset are
    simulated in numpy for a window of offsets at a time, and the real
    example starts are then chained through them.
    """
    method = Method(method)
    budget = _check_budget(budget)
    pool, ids = _sorted_pool(labelers)
    L = len(pool)
    if config.kappa > L:
        raise ConfigError(f"kappa ({config.kappa}) exceeds pool size ({L})")
    finalize, stop = kernel(method, prior)
    kmax, reached = config.fixed_count, None
    if kmax is None:
        if stop is None:
            raise ConfigError(
                f"{method} reaches confidence 1.0 after one label; "
                "use fixed_count instead of tau"
            )
        kmax, reached = config.kappa, stop(config.tau)
    inc = increment_table(method, ids, estimates)
    acc = np.array([lab.accuracy for lab in pool])
    # a right vote on an example of truth 0 is 0
    tab = np.array([[inc[pos][1 - right][j] for pos in range(L) for right in (0, 1)]
                    for j in (0, 1)], dtype=float)
    take = rng.take if isinstance(rng, UniformStream) else rng.random
    truth = dataset.true_labels
    ys = truth.tolist()
    n = dataset.n_examples
    width = max(1, min(_MAX_OFFSETS, _WINDOW // kmax))
    # Examples start every kmax labels while each takes kmax, as under a
    # fixed count, so a window then simulates only every kmax-th offset.  A
    # tau window does so after a window whose examples all took kmax, and
    # ends early at a start it skipped.
    stride = 1 if reached is not None else kmax

    events = [] if record_events else None
    finals, ks = [], []
    i = o = 0  # the next example and the offset of its first label
    u, got = np.empty(0), 0  # the draws of labels o.., all draws taken
    while i < n and o < budget:
        end = min(o + stride * width, o + (n - i) * kmax, budget)  # offsets o..end-1
        m = -((o - end) // stride)
        span = stride * (m - 1) + kmax  # the labels the window reads
        if len(u) < 2 * span:
            # draws for labels up to the budget; zeros after it are never kept
            new = take(max(0, 2 * min(span, budget - o) - len(u)))
            got += len(new)
            u = np.concatenate((u, new, np.zeros(2 * span - len(u) - len(new))))
        k, hist, picked = _simulate_offsets(
            u, m, stride, kmax, acc, tab, reached, budget - o, record_events
        )
        k0, k1 = k.tolist()
        w0, i0, starts = o, i, []
        while i < n and o < end:
            p, skipped = divmod(o - w0, stride)
            if skipped:
                break
            starts.append(p)
            o += (k1 if ys[i] else k0)[p]
            i += 1
        # close the examples that start in this window
        y = truth[i0:i]
        kk = k[y, starts]
        sums = hist[kk - 1, y, starts].tolist(), hist[kk - 1, 1 - y, starts].tolist()
        kk = kk.tolist()
        finals += map(finalize, *sums, kk)
        ks += kk
        if record_events:
            events += _window_events(w0, stride, i0, starts, kk, y, hist, picked, ids, finalize)
        if reached is not None:
            stride = kmax if min(kk) == kmax else 1
        u = u[2 * (o - w0):]
    if o > got // 2:
        raise ValueError(f"the draw stream ended after {got} draws; {o} labels need {2 * o}")
    return _outcome(method, budget, o, finals, ks, event_log=events)


def _window_events(w0, stride, i0, starts, ks, y, hist, picked, ids, finalize):
    """The events of the examples that start in one window."""
    # one row per label: its example's offset and truth, and its index t
    p = np.repeat(starts, ks)
    t = np.arange(len(p)) - np.repeat(np.cumsum(ks) - ks, ks)
    y = np.repeat(y, ks)
    pos, right = (x[t, p] for x in picked)
    sums = hist[t, y, p].tolist(), hist[t, 1 - y, p].tolist()
    confs = [f[1] for f in map(finalize, *sums, (t + 1).tolist())]
    # each example's id is one int object for all of its events
    example = [i for i, n in zip(range(i0, i0 + len(ks)), ks) for _ in range(n)]
    fields = zip((w0 + stride * p + t + 1).tolist(), example, map(ids.__getitem__, pos.tolist()),
                 np.where(right, y, 1 - y).tolist(), confs)
    return map(tuple.__new__, repeat(LabelEvent), fields)


def run_uncertainty_sampling(
    dataset: SimDataset,
    labelers: Sequence[SimLabeler],
    estimates: Mapping[Hashable, "LabelerEstimate"] | None,
    budget: int,
    method: Method,
    rng,
    *,
    prior: ClassPrior = UNIFORM_PRIOR,
    record_events: bool = True,
    record_dynamics: bool = False,
) -> CollectionOutcome:
    """First pass in id order, then always label the most uncertain example.

    Uncertainty is 1 - aggregate confidence and is recomputed only for the
    example just labeled, so a lazy max-heap (stale entries skipped by a
    version counter) gives the exact argmax at every step.  Exact ties break
    toward the lowest example id.  The run ends when the budget is spent or
    every example has used all of its labelers.

    With ``record_dynamics=True`` the outcome carries dataset-wide
    ``(labels_collected, error_rate, mae)`` snapshots after every label,
    starting at the label that completes full coverage.
    """
    method = Method(method)
    budget = _check_budget(budget)
    pool, ids = _sorted_pool(labelers)
    L = len(pool)
    finalize = kernel(method, prior).finalize
    inc = increment_table(method, ids, estimates)
    acc_true = [lab.accuracy for lab in pool]
    rand = (rng if isinstance(rng, UniformStream) else UniformStream(rng)).random
    truth = dataset.true_labels.tolist()
    n = dataset.n_examples

    events = [] if record_events else None
    dynamics = [] if record_dynamics else None

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
        k = kcount[i] = kcount[i] + 1
        spent += 1
        d0, d1 = inc[pos][v]
        a0 = s0[i] = s0[i] + d0
        a1 = s1[i] = s1[i] + d1
        cur[i] = now = finalize(a0, a1, k)
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
    track = dynamics is not None and covered == n
    if track:
        for i in range(n):
            lab, _, soft = cur[i]
            err_sum += lab != truth[i]
            mae_sum += abs(truth[i] - soft)
        dynamics.append((spent, err_sum / n, mae_sum / n))

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
                dynamics.append((spent, err_sum / n, mae_sum / n))

    return _outcome(
        method, budget, spent, cur[:covered], kcount[:covered],
        event_log=events, dynamics=dynamics,
    )
