"""The benchmark's inputs, made from its ``--seed`` alone.

Experiment workloads get one JSON config per labeler cohort; ``label-file``
gets a crowd label file, a gold truth file and the answers the estimates
must reproduce.  Only the standard library is used, so making inputs costs
the measured process nothing.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("threshold-sweep", "uncertainty", "label-file")
# Labeler accuracy intervals: the paper's accurate and noisy cohorts.
COHORTS = {"accurate": [0.8, 1.0], "noisy": [0.6, 0.9]}
TRIALS = {"threshold-sweep": 1, "uncertainty": 1}

# label-file: LABELERS workers answer every one of GOLD gold items, and
# EXAMPLES further items get VOTES[0]..VOTES[1] votes each (about 62k records).
LABELERS = 20
GOLD = 200
EXAMPLES = 16500
VOTES = (2, 5)
ACCURACY = (0.55, 0.9)


def write_configs(out, workload, seed):
    """Write config-<cohort>.json for each cohort into ``out``."""
    strategy = "threshold" if workload == "threshold-sweep" else "uncertainty"
    for cohort, interval in COHORTS.items():
        cfg = {
            "strategy": strategy,
            "trials": TRIALS[workload],
            "accuracy_interval": interval,
            "seed": seed,
        }
        path = out / f"config-{cohort}.json"
        path.write_text(json.dumps(cfg, sort_keys=True) + "\n", encoding="utf-8")


def _record(example_id, labeler_id, step, value):
    return json.dumps(
        {"example_id": example_id, "labeler_id": labeler_id, "step": step, "value": value},
        sort_keys=True,
        separators=(",", ":"),
    )


def write_label_file(out, seed, examples=EXAMPLES):
    """Write labels.jsonl, truth.jsonl and expected.json into ``out``.

    Example ids 0..GOLD-1 are the gold items; the rest get a few votes from
    distinct labelers.  All votes are shuffled into one time order.
    expected.json holds each labeler's share of correct gold answers and the
    number of records.
    """
    rng = random.Random(seed)
    labelers = [f"w{j:02d}" for j in range(LABELERS)]
    accuracy = {j: rng.uniform(*ACCURACY) for j in labelers}
    truth = [rng.randrange(2) for _ in range(GOLD + examples)]
    correct = dict.fromkeys(labelers, 0)
    votes = []
    for ex, y in enumerate(truth):
        voters = labelers if ex < GOLD else rng.sample(labelers, rng.randint(*VOTES))
        for j in voters:
            right = rng.random() < accuracy[j]
            if ex < GOLD:
                correct[j] += right
            votes.append((ex, j, y if right else 1 - y))
    rng.shuffle(votes)
    with (out / "labels.jsonl").open("w", encoding="utf-8") as fh:
        for step, (ex, j, v) in enumerate(votes, start=1):
            fh.write(_record(ex, j, step, v) + "\n")
    with (out / "truth.jsonl").open("w", encoding="utf-8") as fh:
        for ex in range(GOLD):
            fh.write(_record(ex, "expert", ex + 1, truth[ex]) + "\n")
    expected = {
        "gold": GOLD,
        "records": len(votes),
        "correct_share": {j: correct[j] / GOLD for j in labelers},
    }
    (out / "expected.json").write_text(json.dumps(expected, sort_keys=True) + "\n")
