"""The experiment harness end to end, at demo scale.

Runs a small threshold sweep (tau grid for the confidence-based methods,
fixed counts for the vote-based ones) and a small uncertainty-sampling
experiment, then writes the full result-file set that the CLI would
produce: per-cell summary, best-cell table, exemplar aggregates and event
logs, and a re-runnable run.json.

The full-size runs from the command line:

    gtx threshold   --config configs/threshold.json   --out results/threshold
    gtx uncertainty --config configs/uncertainty.json --out results/uncertainty
"""

from pathlib import Path

from gtx import (
    config_from_dict,
    run_threshold_experiment,
    run_uncertainty_experiment,
    write_results,
)

out_root = Path("demo_results")

sweep_cfg = config_from_dict(
    {
        "strategy": "threshold",
        "trials": 10,
        "budget": 2000,
        "n_examples": 2000,
        "n_labelers": 10,
        "kappa": 5,
        "tau_grid": [0.9, 0.95, 0.99],
        "fixed_counts": [1, 2, 3],
        "accuracy_interval": [0.8, 1.0],
        "seed": 5,
    }
)
sweep = run_threshold_experiment(sweep_cfg, progress=lambda msg: None)
write_results(sweep, out_root / "threshold")

print("threshold sweep, best cell per method (mean over 10 trials):")
print(f"  {'method':6} {'cell':>9} {'labels/ex':>9} {'examples':>9} {'error':>8}")
for method, idx in sweep.best.items():
    cell, s = sweep.cells[idx], sweep.summaries[idx]
    print(
        f"  {str(method):6} {cell.kind + '=' + str(cell.value):>9} "
        f"{s.avg_k_mean:9.2f} {s.n_labeled_mean:9.0f} {100 * s.error_rate_mean:7.2f}%"
    )

uncertainty_cfg = config_from_dict(
    {
        "strategy": "uncertainty",
        "trials": 5,
        "n_examples": 1000,
        "n_labelers": 10,
        "accuracy_interval": [0.8, 1.0],
        "seed": 5,
    }
)
res = run_uncertainty_experiment(uncertainty_cfg)
write_results(res, out_root / "uncertainty")

print("\nuncertainty sampling, final state (mean over 5 trials):")
for method, s in res.summaries.items():
    print(f"  {str(method):6} error {100 * s.error_rate_mean:6.2f}%   "
          f"mae {100 * s.mae_mean:6.2f}%")

print("\nresult files:")
for path in sorted(out_root.rglob("*")):
    if path.is_file():
        print(f"  {path} ({path.stat().st_size} bytes)")
