"""Uncertainty sampling: spend the budget where confidence is lowest.

After one label per example, every further label goes to the currently
most-uncertain example. The demo tracks dataset-wide error after every
label and shows how the four aggregation methods steer that loop, then
plots the curves if matplotlib is installed.
"""

import numpy as np

from gtx import (
    Method,
    SimConfig,
    init_simulation,
    oracle_estimates,
    run_uncertainty_sampling,
    trial_report,
)

world = SimConfig(n_examples=2000, n_labelers=10, accuracy_low=0.8, accuracy_high=1.0)
dataset, labelers = init_simulation(world, np.random.default_rng(21))
estimates = oracle_estimates(labelers)
budget = 3 * dataset.n_examples

curves = {}
for method in (Method.MV, Method.WMV, Method.SV, Method.GTX):
    out = run_uncertainty_sampling(
        dataset,
        labelers,
        estimates,
        budget,
        method,
        np.random.default_rng(22),
        record_events=False,
    )
    curves[method] = out.dynamics  # (steps, errors, maes) arrays
    ks = out.labels_per_example
    error = trial_report(out, dataset.true_labels).error_rate
    print(
        f"{str(method):>4}: final error {100 * error:5.2f}%   "
        f"deepest example took {ks.max():2d} labels   "
        f"examples left at one label: {(ks == 1).sum()}"
    )

print()
print("The posterior's confidence separates settled from contested examples,")
print("so its loop revisits the right ones. Vote-share confidence saturates")
print("at 1.0 after agreeing votes, which starves the vote-based loops of")
print("signal (their uncertainties tie at zero and the tie-break takes over).")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not installed; skipping the plot.")
else:
    fig, ax = plt.subplots(figsize=(7, 4))
    for method, (steps, errors, _) in curves.items():
        ax.plot(steps, 100 * errors, label=str(method))
    ax.set_xlabel("labels collected")
    ax.set_ylabel("error rate (%)")
    ax.set_title("uncertainty-sampling dynamics, one simulated world")
    ax.legend()
    fig.tight_layout()
    fig.savefig("uncertainty_dynamics.png", dpi=120)
    print("\nwrote uncertainty_dynamics.png")
