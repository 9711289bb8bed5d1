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
accuracy.  The engines consume them through a block-buffered
:class:`gtx.simulation.UniformStream`; the one-label select and elicit
oracles in ``tests/oracles.py`` are the spec they replay exactly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Mapping, NamedTuple, Sequence

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
    Generator or an already-positioned UniformStream.
    """
    method = Method(method)
    budget = _check_budget(budget)
    pool, ids = _sorted_pool(labelers)
    L = len(pool)
    if config.kappa > L:
        raise ConfigError(f"kappa ({config.kappa}) exceeds pool size ({L})")
    finalize, stop = kernel(method, prior)
    c_stop = config.fixed_count
    if c_stop is None and stop is None:
        raise ConfigError(
            f"{method} reaches confidence 1.0 after one label; "
            "use fixed_count instead of tau"
        )
    reached = None if c_stop is not None else stop(config.tau)
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
                conf_now = finalize(s0, s1, k)[1]
                events.append(LabelEvent(spent, i, ids[pos], v, conf_now))
            if k == kap or k == c_stop or (reached is not None and reached(s0, s1, k)):
                break
        finals.append(finalize(s0, s1, k))
        ks.append(k)
    return _outcome(method, budget, spent, finals, ks, event_log=events)


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
