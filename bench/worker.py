"""One workload in one fresh process: set up, measure whole rounds, check.

Started by ``run.py`` (never by hand).  It prints ``ready`` once gtx and
numpy are imported and the workload's config or input is loaded, so that
the parent can time the cold start; ``--setup-only`` stops there.  It then
repeats whole rounds of the workload within ``--seconds``, timing each call
into gtx piece by piece against the machine's speed (``clock.py``), reads
its peak resident memory, checks every round's outputs and prints one JSON
line.
Every round of a run gets the same input, so its outputs must be
byte-identical to the first round's, which are checked in full.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import clock  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

# Each timed call into gtx is cut into pieces at the entry and exit of these
# functions, each called at most a few hundred times per round, and the
# label file's aggregation every AGGREGATE_CHUNK examples.  A cut is where
# the clock may calibrate, and each piece is scaled by the calibrations
# around it (see clock.py).
CUT_AT = frozenset(
    {
        "strategies.run_confidence_threshold",
        "strategies.run_uncertainty_sampling",
        "experiments.build_trial_env",
        "metrics.trial_report",
        "io.read_label_records",
        "io.write_csv",
        "io.write_event_log",
        "io.write_aggregates_csv",
        "assessment.estimate_accuracy",
    }
)
AGGREGATE_CHUNK = 1000
CLOCK = clock.Clock()
MARKS = []  # CLOCK time at every cut of the timed call in progress


def _cut(name, fn):
    @functools.wraps(fn)
    def cut(*args, **kwargs):
        MARKS.append(CLOCK.mark())
        try:
            return fn(*args, **kwargs)
        finally:
            MARKS.append(CLOCK.mark())

    return cut


def setup(workload, data):
    """Import gtx and numpy, then load the configs or the gold truth set.

    The truth set is loaded only to time set-up: ``assess`` reads it again.
    """
    t0 = perf_counter()
    import numpy  # noqa: F401

    import gtx
    import gtx.cli  # noqa: F401

    t1 = perf_counter()
    ctx = {"workload": workload, "data": data}
    if workload == "label-file":
        ctx["truth"] = gtx.read_assessment_set(data / "truth.jsonl")
    else:
        ctx["configs"] = {
            c: gtx.load_config(data / f"config-{c}.json") for c in inputs.COHORTS
        }
    t2 = perf_counter()
    timing = {"import_s": t1 - t0, "load_config_s": 0.0 if workload == "label-file" else t2 - t1}
    return ctx, timing


def _collected(result):
    per_cell = result.reports.values() if isinstance(result.reports, dict) else result.reports
    return sum(r.spent for reps in per_cell for r in reps) + sum(
        outcome.ledger.spent for outcome, _ in result.exemplars.values()
    )


@dataclass
class Round:
    """One round: labels handled, the clock times of the cuts of each timed
    call into gtx by name, plain-data facts for the check, and failure
    messages."""

    labels: int = 0
    marks: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def timed(self, part, fn, *args, **kwargs):
        MARKS.clear()
        MARKS.append(CLOCK.mark())
        try:
            return fn(*args, **kwargs)
        finally:
            MARKS.append(CLOCK.mark())
            self.marks[part] = MARKS.copy()

    def seconds(self):
        """Measured seconds of the timed calls."""
        return sum(m[-1] - m[0] for m in self.marks.values())

    def reference_pieces(self):
        """Reference seconds of each piece between two cuts, in call order."""
        return [CLOCK.reference(a, b) for m in self.marks.values() for a, b in zip(m, m[1:])]


def experiment_round(ctx, dest):
    """Both cohorts' experiments and their result files."""
    import gtx

    run = (
        gtx.run_threshold_experiment
        if ctx["workload"] == "threshold-sweep"
        else gtx.run_uncertainty_experiment
    )
    rnd = Round()
    for cohort, cfg in ctx["configs"].items():
        try:
            result = rnd.timed(f"{cohort} run", run, cfg, workers=1)
            rnd.timed(f"{cohort} write", gtx.write_results, result, dest / cohort)
        except Exception:
            rnd.failures.append(f"{cohort}: {traceback.format_exc(limit=3)}")
            continue
        rnd.labels += _collected(result)
        rnd.facts[cohort] = checks.experiment_facts(result)
    return rnd


def _save_aggregates(path, aggregates):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("example_id,label,confidence,soft_p1,n_labels\n")
        for a in aggregates:
            fh.write(f"{a.example_id},{a.label},{a.confidence!r},{a.soft_p1!r},{a.n_labels}\n")


def _assess(argv):
    messages = io.StringIO()
    with contextlib.redirect_stderr(messages):
        import gtx.cli

        code = gtx.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"gtx assess exited {code}: {messages.getvalue()}")


def _aggregate_all(rule, groups, estimates):
    import gtx

    aggregates = []
    for k in range(0, len(groups), AGGREGATE_CHUNK):
        MARKS.append(CLOCK.mark())
        chunk = groups[k : k + AGGREGATE_CHUNK]
        aggregates += [gtx.aggregate(rule, votes, estimates) for votes in chunk]
    return aggregates


def label_file_round(ctx, dest):
    """``gtx assess`` on the label file, then every example aggregated under
    each rule with the estimates it wrote.  The aggregates are saved by the
    benchmark, outside the timed calls, for the check."""
    import gtx

    labels_path = str(ctx["data"] / "labels.jsonl")
    truth_path = str(ctx["data"] / "truth.jsonl")
    dest.mkdir(parents=True)
    rnd = Round()
    try:
        rnd.timed(
            "assess",
            _assess,
            ["assess", "--labels", labels_path, "--truth", truth_path, "--out", str(dest)],
        )
        records, _ = rnd.timed("read", gtx.read_label_records, labels_path)
        estimates = {}
        for row in checks.read_csv(dest / "estimates.csv"):
            j = row["labeler_id"]
            estimates[j] = gtx.LabelerEstimate(j, float(row["accuracy"]), int(row["n_assessed"]))
        by_example = {}
        for rec in records:
            by_example.setdefault(rec.example_id, []).append(rec)
        for rule in reference.RULES:
            aggregates = rnd.timed(
                f"aggregate {rule}", _aggregate_all, rule, list(by_example.values()), estimates
            )
            _save_aggregates(dest / f"aggregates-{rule}.csv", aggregates)
    except Exception:
        rnd.failures.append(traceback.format_exc(limit=3))
        return rnd
    rnd.labels = rnd.facts["records"] = len(records)
    return rnd


# Operations per round: one per cohort experiment, or one pass over the
# label file; an operation fails when a call into gtx raises or exits non-zero.
OPERATIONS = {"threshold-sweep": 2, "uncertainty": 2, "label-file": 1}


def measure(ctx, out, seconds):
    """Whole rounds while another round of the last one's length still fits
    in ``seconds``; at least one.  A full garbage collection before each
    round starts every round from the same heap state, so that the
    collector runs at the same points of every round."""
    round_fn = label_file_round if ctx["workload"] == "label-file" else experiment_round
    rounds = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        gc.collect()
        rounds.append(round_fn(ctx, out / f"round-{len(rounds)}"))
        now = perf_counter()
        if now - start + (now - t0) > seconds:
            return rounds


def rates(rounds):
    """Labels of one round over its time in reference seconds
    (``labels_per_ref_s``) and in measured seconds (the wall rate).

    The reference time is the sum, over the pieces of a round, of each
    piece's median across rounds: a short disturbance of the host hits
    different pieces in different rounds.  Every round runs the same code
    on the same input, so every round has the same pieces.  The wall time
    is the median round."""
    done = [r for r in rounds if not r.failures]
    if not done:
        return 0.0, 0.0
    pieces = [r.reference_pieces() for r in done]
    reference = sum(statistics.median(c) for c in zip(*pieces, strict=True))
    labels = done[0].labels
    return labels / reference, labels / statistics.median(r.seconds() for r in done)


def check(ctx, out, rounds):
    """Problems in the outputs: the first round without a failure in full,
    the other such rounds by comparing their files and facts with it."""
    done = [r for r, rnd in enumerate(rounds) if not rnd.failures]
    if not done:
        return []
    first = out / f"round-{done[0]}"
    facts = rounds[done[0]].facts
    problems = []
    if ctx["workload"] == "label-file":
        problems += checks.check_label_file(ctx["data"], first)
    else:
        check_one = (
            checks.check_threshold
            if ctx["workload"] == "threshold-sweep"
            else checks.check_uncertainty
        )
        for cohort, cfg in ctx["configs"].items():
            problems += [f"{cohort}: {p}" for p in check_one(cfg, facts[cohort], first / cohort)]
    want = checks.digest(first)
    for r in done[1:]:
        dest = out / f"round-{r}"
        if checks.digest(dest) != want or rounds[r].facts != facts:
            problems.append(f"round {r}: outputs differ from round {done[0]} on the same input")
        shutil.rmtree(dest)
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--data", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ctx, timing = setup(args.workload, args.data)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    cuts = spans.patch(_cut, CUT_AT.__contains__)
    tracer = spans.Tracer(CLOCK.now).install() if args.trace else None
    rounds = measure(ctx, args.data, args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    spans.unpatch(cuts)

    failures = [f for r in rounds for f in r.failures]
    for f in failures:
        print(f"failed: {f}", file=sys.stderr)
    problems = check(ctx, args.data, rounds)
    for p in problems:
        print(f"check: {p}", file=sys.stderr)

    busy = sum(r.seconds() for r in rounds)
    labels_per_ref_s, wall_labels_per_s = rates(rounds)
    summary = {
        "correct": not problems,
        "attempted": OPERATIONS[args.workload] * len(rounds),
        "failed": len(failures),
        "rounds": len(rounds),
        "labels_per_round": rounds[0].labels,
        "round_rates": [
            r.labels / sum(r.reference_pieces()) for r in rounds if not r.failures
        ],
        "labels_per_ref_s": labels_per_ref_s,
        "wall_labels_per_s": wall_labels_per_s,
        "speed": statistics.median(CLOCK.speeds),
        "calibrations": len(CLOCK.speeds),
        "seconds": [r.seconds() for r in rounds],
        "reference_seconds": [sum(r.reference_pieces()) for r in rounds],
        "marks": [r.marks for r in rounds],
        "speeds": [CLOCK.times, CLOCK.speeds],
        "peak_rss_mb": peak_mb,
    }
    if tracer is not None:
        tracer.write_spans(args.data / "spans.jsonl")
        for line in tracer.table(len(rounds), busy):
            print(line)
        layers = tracer.layer_metrics(len(rounds), busy, timing)
        layers["trace.labels_per_ref_s"] = summary["labels_per_ref_s"]
        layers["trace.wall_labels_per_s"] = wall_labels_per_s
        layers["clock.speed"] = summary["speed"]
        summary["layers"] = layers
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
