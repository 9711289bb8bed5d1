"""Correctness checks of each workload's outputs.

Every check compares what gtx wrote against ``reference`` (recomputed from
the votes in its own event logs or label file) or against a property the
method must have; none compares against a stored copy of earlier output.
Each function returns a list of problems, empty when the outputs hold.

The simulated world of an experiment (true labels and the labelers'
estimated accuracies) is rebuilt with ``gtx.experiments.build_trial_env``:
it is the input the aggregation rules were given, not their output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import reference


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def digest(directory):
    """sha256 of every file under ``directory``, by relative path."""
    directory = Path(directory)
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


# ---------------------------------------------------------------------------
# experiment workloads


def experiment_facts(result):
    """The in-memory per-trial figures a check needs, as plain data."""
    if isinstance(result.reports, dict):
        cells = [(str(m), "budget", None, reps) for m, reps in result.reports.items()]
    else:
        cells = [
            (str(c.method), c.kind, c.value, reps)
            for c, reps in zip(result.cells, result.reports)
        ]
    return [
        [method, kind, value, [[r.spent, r.n_labeled, r.avg_k] for r in reps]]
        for method, kind, value, reps in cells
    ]


def _world(cfg):
    # Imported here so that the worker's set-up timing covers gtx's import.
    from gtx.experiments import build_trial_env

    dataset, _, estimates = build_trial_env(cfg, cfg.seed, 0)
    acc = {j: e.accuracy for j, e in estimates.items()}
    return dataset.true_labels.tolist(), acc


def _check_budget(cfg, facts):
    problems = []
    for method, kind, value, trials in facts:
        if len(trials) != cfg.trials:
            problems.append(f"{method} {kind}={value}: {len(trials)} trials")
        for t, (spent, n_labeled, avg_k) in enumerate(trials):
            where = f"{method} {kind}={value} trial {t}"
            if spent != cfg.budget:
                problems.append(f"{where}: spent {spent} of budget {cfg.budget}")
            if abs(n_labeled * avg_k - cfg.budget) > 1e-9 * cfg.budget:
                problems.append(f"{where}: n_labeled x avg_k = {n_labeled * avg_k}")
            if kind == "count" and n_labeled != math.ceil(cfg.budget / value):
                problems.append(f"{where}: labels {n_labeled} examples")
            if kind == "budget" and n_labeled != cfg.n_examples:
                problems.append(f"{where}: labels {n_labeled} of {cfg.n_examples}")
    return problems


def _check_aggregates(rows, logs, truth, acc):
    """aggregates.csv rows against the reference recomputed from the logs."""
    problems = []
    by_method = {}
    for row in rows:
        by_method.setdefault(row["method"], []).append(row)
    if set(by_method) != set(logs):
        problems.append(f"aggregates.csv methods {sorted(by_method)}, logs {sorted(logs)}")
    for method, events in logs.items():
        votes = {}
        for e in events:
            votes.setdefault(e["example_id"], []).append((e["labeler_id"], e["value"]))
        method_rows = by_method.get(method, [])
        if [int(r["example_id"]) for r in method_rows] != sorted(votes):
            problems.append(f"aggregates.csv {method}: examples differ from its log")
            continue
        for row in method_rows:
            ex = int(row["example_id"])
            why = reference.compare(
                method,
                votes[ex],
                acc,
                int(row["label"]),
                float(row["confidence"]),
                float(row["soft_p1"]),
                int(row["n_labels"]),
            )
            if not why and int(row["true_label"]) != truth[ex]:
                why = f"true_label {row['true_label']}, world {truth[ex]}"
            if why:
                problems.append(f"aggregates.csv {method} example {ex}: {why}")
    return problems[:10]


def check_threshold(cfg, facts, out):
    """Budget, event-log replay and aggregates of one threshold sweep."""
    out = Path(out)
    problems = _check_budget(cfg, facts)
    truth, acc = _world(cfg)
    best = {row["method"]: row["best_tau"] for row in read_csv(out / "best_cells.csv")}
    logs = {}
    for method in map(str, cfg.methods):
        events = logs[method] = _jsonl(out / f"events_{method}.jsonl")
        stop = {"count": int(best[method])} if method in ("mv", "wmv") else {
            "tau": float(best[method])
        }
        for why in reference.replay_threshold(
            events, method, acc, cfg.budget, cfg.kappa, **stop
        ):
            problems.append(f"events_{method}.jsonl: {why}")
    rows = read_csv(out / "aggregates.csv")
    problems += _check_aggregates(rows, logs, truth, acc)
    if "gtx" in best:
        tau = float(best["gtx"])
        gtx_rows = [r for r in rows if r["method"] == "gtx"]
        for row in gtx_rows[:-1]:  # the last example may be cut by the budget
            if int(row["n_labels"]) < cfg.kappa and float(row["confidence"]) < tau:
                problems.append(
                    f"aggregates.csv gtx example {row['example_id']} stopped at "
                    f"confidence {row['confidence']} < tau {tau}"
                )
    return problems


def check_uncertainty(cfg, facts, out):
    """Budget, coverage, dynamics, event-log replay and aggregates of one
    uncertainty-sampling run."""
    out = Path(out)
    problems = _check_budget(cfg, facts)
    truth, acc = _world(cfg)
    summary = {row["method"]: row for row in read_csv(out / "summary.csv")}
    dynamics = {}
    for row in read_csv(out / "dynamics.csv"):
        dynamics.setdefault(row["method"], []).append(row)
    logs = {}
    for method in map(str, cfg.methods):
        labels = [int(r["labels"]) for r in dynamics.get(method, [])]
        if labels != list(range(cfg.n_examples, cfg.budget + 1)):
            problems.append(f"dynamics.csv {method}: labels do not run n_examples..budget")
        elif dynamics[method][-1]["error_rate"] != summary[method]["error_rate"]:
            problems.append(
                f"dynamics.csv {method}: final error {dynamics[method][-1]['error_rate']}"
                f", summary.csv {summary[method]['error_rate']}"
            )
        events = logs[method] = _jsonl(out / f"events_{method}.jsonl")
        for why in reference.replay_uncertainty(
            events, method, acc, cfg.budget, cfg.n_examples, cfg.n_labelers
        ):
            problems.append(f"events_{method}.jsonl: {why}")
    problems += _check_aggregates(read_csv(out / "aggregates.csv"), logs, truth, acc)
    return problems


# ---------------------------------------------------------------------------
# label-file workload


def check_label_file(inputs, out):
    """estimates.csv against the generator's known gold shares, and every
    aggregate the benchmark saved against the reference rules."""
    inputs, out = Path(inputs), Path(out)
    problems = []
    expected = json.loads((inputs / "expected.json").read_text())
    gold = expected["gold"]
    rows = read_csv(out / "estimates.csv")
    acc = {}
    for row in rows:
        j = row["labeler_id"]
        acc[j] = float(row["accuracy"])
        want = min(max(expected["correct_share"].get(j, -1.0), 0.01), 0.99)
        if acc[j] != want or int(row["n_assessed"]) != gold:
            problems.append(
                f"estimates.csv {j}: accuracy {row['accuracy']} from "
                f"{row['n_assessed']} items, want {want!r} from {gold}"
            )
    if sorted(acc) != sorted(expected["correct_share"]):
        problems.append(f"estimates.csv labelers {sorted(acc)}")
        return problems
    votes = {}
    for e in _jsonl(inputs / "labels.jsonl"):
        votes.setdefault(e["example_id"], []).append((e["labeler_id"], e["value"]))
    for rule in reference.RULES:
        found = []
        seen = set()
        for row in read_csv(out / f"aggregates-{rule}.csv"):
            ex = int(row["example_id"])
            seen.add(ex)
            why = reference.compare(
                rule,
                votes.get(ex, []),
                acc,
                int(row["label"]),
                float(row["confidence"]),
                float(row["soft_p1"]),
                int(row["n_labels"]),
            )
            if why:
                found.append(f"aggregates-{rule}.csv example {ex}: {why}")
        if seen != set(votes):
            found.append(f"aggregates-{rule}.csv covers {len(seen)} of {len(votes)} examples")
        problems += found[:10]
    return problems
