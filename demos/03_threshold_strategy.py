"""Confidence-threshold collection on one simulated dataset.

Examples are visited in order and labeled until the aggregate confidence
reaches tau (or kappa labels are spent on a stubborn one). Cheap examples
cost one label, contested ones cost more, and the budget decides how many
examples get labeled at all. The demo contrasts the posterior-based stopper
with a fixed three-votes-per-example baseline on the same world.
"""

import numpy as np

from gtx import (
    Method,
    SimConfig,
    ThresholdConfig,
    init_simulation,
    oracle_estimates,
    run_confidence_threshold,
    trial_report,
)

world = SimConfig(n_examples=3000, n_labelers=10, accuracy_low=0.8, accuracy_high=1.0)
dataset, labelers = init_simulation(world, np.random.default_rng(11))
estimates = oracle_estimates(labelers)
budget = 6000

adaptive = run_confidence_threshold(
    dataset,
    labelers,
    estimates,
    ThresholdConfig(tau=0.99, kappa=5),
    budget,
    Method.GTX,
    np.random.default_rng(12),
)

fixed = run_confidence_threshold(
    dataset,
    labelers,
    estimates,
    ThresholdConfig(tau=None, kappa=5, fixed_count=3),
    budget,
    Method.MV,
    np.random.default_rng(12),
)

truth = dataset.true_labels


def describe(name, out):
    n = out.n_labeled
    counts = np.bincount(out.labels_per_example, minlength=6)[1:6]
    print(f"{name}:")
    print(f"  examples labeled : {n} of {dataset.n_examples}")
    print(f"  labels spent     : {out.ledger.spent} of {out.ledger.total}")
    print(f"  labels/example   : {out.ledger.spent / n:.2f} "
          f"(1-5 label histogram: {counts.tolist()})")
    print(f"  error on labeled : {100 * trial_report(out, truth).error_rate:.2f}%")
    print()


describe("adaptive stop at tau=0.99 (posterior aggregation)", adaptive)
describe("fixed 3 votes per example (majority aggregation)", fixed)

print("Same budget, same world: the adaptive stopper banks single labels on")
print("easy examples and spends the savings on more examples and on the few")
print("that genuinely need extra votes.")

# where did the extra labels go? peek at the most expensive examples
# (the outcome's columns are arrays indexed by example id)
costly = sorted(
    zip(adaptive.labels_per_example.tolist(), range(adaptive.n_labeled)), reverse=True
)[:5]
print("\nmost expensive examples under the adaptive stopper:")
for k, ex in costly:
    print(
        f"  example {ex}: {k} labels, final confidence {adaptive.confidences[ex]:.3f}, "
        f"label {adaptive.labels[ex]} (truth {truth[ex]})"
    )
