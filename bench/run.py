"""Benchmark of gtx: one workload per invocation, timed end to end or traced.

    python3 bench/run.py --workload threshold-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  It makes the workload's inputs from
``--seed`` under ``bench/out/<workload>/`` and lets a fresh worker process
(``worker.py``) measure whole rounds of the workload for ``--seconds`` and
check its outputs.  Setup-only workers before and after it, and the
measuring worker itself, give ``SETUP_SAMPLES`` timed cold starts.  The last line of standard output is one JSON object: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

# Cold starts timed per run: half of the setup-only workers start before the
# measuring worker and half after it, so that the samples span the run.
SETUP_SAMPLES = 9
# A worker that has not finished by then has hung: it is killed.
WORKER_LIMIT_S = 150


class WorkerError(Exception):
    pass


def spawn(args):
    """Run worker.py with ``args``; returns (seconds until it was ready, the
    lines it printed after ``ready``)."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    watchdog = threading.Timer(WORKER_LIMIT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - t0
        rest = proc.stdout.read().splitlines()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if proc.returncode != 0 or first.strip() != "ready":
        raise WorkerError(f"worker {' '.join(args)} exited {proc.returncode}")
    return ready, rest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gtx" / "__init__.py").is_file():
        print(f"error: no gtx sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    data = HERE / "out" / args.workload
    shutil.rmtree(data, ignore_errors=True)
    data.mkdir(parents=True)
    seed = args.seed % 2**32
    if args.workload == "label-file":
        inputs.write_label_file(data, seed)
    else:
        inputs.write_configs(data, args.workload, seed)

    common = ["--workload", args.workload, "--data", str(data)]
    probes = 0 if args.trace else (SETUP_SAMPLES - 1) // 2
    try:
        setup = [spawn([*common, "--setup-only"])[0] for _ in range(probes)]
        ready, lines = spawn(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        )
        setup.append(ready)
        setup += [spawn([*common, "--setup-only"])[0] for _ in range(probes)]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (data / "worker.json").write_text(lines[-1] + "\n", encoding="utf-8")
    worker = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print(
        f"{args.workload}: {worker['rounds']} rounds of {worker['labels_per_round']} "
        f"labels, {worker['failed']}/{worker['attempted']} operations failed, "
        f"outputs {'correct' if worker['correct'] else 'WRONG'}; labels per reference "
        "second by round: " + " ".join(f"{r:.0f}" for r in worker["round_rates"])
    )
    print(
        f"wall time: {worker['wall_labels_per_s']:.0f} labels/s; median machine speed "
        f"{worker['speed']:.3f} of the reference over {worker['calibrations']} calibrations"
    )

    if args.trace:
        values = worker["layers"]
        declared = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "labels_per_ref_s": worker["labels_per_ref_s"],
            "peak_rss_mb": worker["peak_rss_mb"],
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"  {name:44} {m['value']:14.4f} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": worker["correct"],
                "attempted": worker["attempted"],
                "failed": worker["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if worker["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
