"""Golden bytes: small CLI runs must reproduce recorded sha256 hashes.

Every result file of a small ``gtx threshold`` and ``gtx uncertainty`` run
over both accuracy cohorts, and of a small ``gtx assess`` run (its input
files included), is hashed and compared with the hashes recorded before the
event-log fast path landed.  The ``repr`` of every ``aggregate`` of the
assess run's label file, under each rule with the estimates it wrote, is
hashed too (recorded before the one-scan reader and the fused vote checks).
The trial means and standard errors of a threshold and an uncertainty run
at five trials are hashed as well (recorded while ``summarize`` still used
builtin ``sum``): with two trials a compensated sum equals the plain one, so
only three or more trials show the order of the sums.  A speedup that
changes any byte of any result file fails here; a deliberate format change
must re-record the table and say why.
"""

import csv
import hashlib
import json

import numpy as np
import pytest

from gtx.cli import main
from gtx.aggregators import Method, aggregate
from gtx.io import read_label_records, write_label_records
from gtx.model import LabelerEstimate, LabelRecord

COHORTS = {"accurate": [0.8, 1.0], "noisy": [0.6, 0.9]}

GOLDEN = {
    ("threshold", "accurate"): {
        "aggregates.csv": "e76d30e030618dff9f0103cea603c6369293e5cfde86a61dbd82c46be4f38474",
        "best_cells.csv": "af15f737c5a19ca3b3a851f719ea4cd6f580ca212d0bacc3acb9fa2d0d638701",
        "events_gtx.jsonl": "0ebb50c6122effffdada203a747b6da31ab3cf07023ca50e41be6d85e2c81763",
        "events_mv.jsonl": "de2c834b159497729057d687ecfb05fbcbe059600e0bf87e26767a150c9d0691",
        "events_sv.jsonl": "364875de54528ff18481547e5c1fcdb1a224aae998fed832b36cfa63f922d894",
        "events_wmv.jsonl": "788e1dc42d75700011e8b9bba656d1e446ef80f401e1f5b0b442e78e566baf9a",
        "run.json": "bd97165e456f233bf31b379b378eacb4b713529f3bbb5314dbb420c14d879793",
        "summary.csv": "ed5fa0e4e9e680e5f49f7c0c91b7dbc88366b828179f31608911912954150651",
    },
    ("threshold", "noisy"): {
        "aggregates.csv": "4e30898208fc9126dbf295769276477c5362ef7f9470fd8f498704977850fa9f",
        "best_cells.csv": "d45d9e8ce7527b35ee0e5faedc12c2865a3afcb55b9ba1b0b5a92a6ce94255bb",
        "events_gtx.jsonl": "73ff7f5ab55dd3f5ceba17205c3793fe93548c99098d34037fc1c78d52b06a5c",
        "events_mv.jsonl": "0d88e647c27dbacf38dc9ebf370efb95a5593dae73fdca18cf1cbad200fa47ba",
        "events_sv.jsonl": "c41c26f882dd02a2c8a7b985637341567c2119dd933d23dbf6d4c57d64aa86ab",
        "events_wmv.jsonl": "16eadac2b9420036b035f147c67919b2a1d7464e55577874fa1d2a90b1212797",
        "run.json": "c11b33e7b457047276b47dcd3fcaaa64baf5e79cfc2924b690eb14bd25d31a7e",
        "summary.csv": "8f7022246f669068fe14df4d91438778a2f89b11c7e75f74c4ea318163df833d",
    },
    ("uncertainty", "accurate"): {
        "aggregates.csv": "5068b9114025761ba1e2051b446d20bd728e7d8784cf2ce3110397af240d0660",
        "dynamics.csv": "cd22af534d04b84bc0e5f895f8ab25a1f17da4c16012adf087fdc794a8457416",
        "events_gtx.jsonl": "4bc1aa57c88c51afe0f82d4097deab52ce0752501e028098389412b744064e81",
        "events_mv.jsonl": "eeb0a2a2a481e514a7665996440e507e59b070eac862dd9d2ac59f709f5095e1",
        "events_sv.jsonl": "b9ba4f4d7cd0778bafb8ac491f792a2214ac8bd572b25994718aec2fd611de42",
        "events_wmv.jsonl": "3bba720f8dc9a82dc30a0d8bd756093e0ddb3c249f4d0a31db74bdde8fb97737",
        "run.json": "acc15cd6fe8e59ab64f3da7a0520a85f95e40e677252068cd1e1607cd0939730",
        "summary.csv": "2bf9180c90beed5484983ed51224d4644244c083e1abe7812a9df4a2c48546af",
    },
    ("uncertainty", "noisy"): {
        "aggregates.csv": "59c4471c39dd3bdea4f0f6f94f105d3ec45e262540c5d77186ebf75ce2805b5b",
        "dynamics.csv": "1cd8ef7a3da522883555b516eab645801c7e43a76abe64c95a21ef7f426f7e61",
        "events_gtx.jsonl": "1ba3f2211e717e7722c8582514bd26b2acd78838ca1ccceda3c109987c451c9b",
        "events_mv.jsonl": "3e2c049ad6b72880750b439e9c582b361c880e97b259a7447234b2eb6f37c2cc",
        "events_sv.jsonl": "440a6cd2eaf9139dda929f393e992a79b9b0af522aba6fca462de22b8ae45bc9",
        "events_wmv.jsonl": "f08a7f947a52729be4a1ef75b17f7b9c2c8e6cd324d9749b3b06d6a2cb9746bc",
        "run.json": "798a4308f32a10d57e68f7522902e3e637e9f035c44b2327c20c9457eca725d1",
        "summary.csv": "5cc576e3958835cb6231e85be873e67d86586416e62d7a14cbb57a3173eacd07",
    },
    "assess": {
        "labels.jsonl": "81a179eba3b95bc2975722fdf271b8b00f4e057d4ab65a3abe84376169097446",
        "truth.jsonl": "fda1412fca35655f5cfa124c4f53a030685100b7add3eb61a8e9c4c0113ed4a5",
        "estimates.csv": "d27d85e356cef91a6c9ff83338e2886851017909e46df4084d33acab9375571a",
        "run.json": "70b490819df5a2ed6b5df7e247477b398c0bfabf87884470264fafee2960d050",
    },
}

FIVE_TRIAL_GOLDEN = {
    ("threshold", "noisy"): {
        "summary.csv": "6447a6996cc9c3b3a8b957ecc2cee8e5a2f70ea2f942d0e078005469f1865a20",
    },
    ("uncertainty", "accurate"): {
        "dynamics.csv": "8161e2744a5c3c2ace31ce8cc18c97db03cf3fe9449d8f66eb4f53a2b5d26357",
        "summary.csv": "8ada055e2b65acfe024fa2f7f134dc67f665a0d2c22994d8759a9368de5f51db",
    },
}

AGGREGATE_GOLDEN = {
    "mv": "0d46b340a9fefdf0fe32e41368f146f6a9edae33fb245bf1b9a33538c4223bb0",
    "wmv": "a98c073f635ba27291b8d0a631cf7231c98d75d38653b81e05a2ab10ce292d09",
    "sv": "801c144f56971b22242376e06d8c50aac2e9292def86d7955e7b38d2207a0300",
    "gtx": "8b48a0302955a8091a683f339c0572bd616d0efc42d712c9323a204f8b576c7f",
}


def _hashes(out_dir):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def _run_experiment(tmp_path, strategy, cohort, trials=2):
    cfg = {"strategy": strategy, "seed": 11, "trials": trials, "n_labelers": 8,
           "accuracy_interval": COHORTS[cohort]}
    if strategy == "threshold":
        cfg.update(budget=900, n_examples=300)
    else:
        cfg.update(n_examples=300)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([strategy, "--config", str(path), "--out", str(out)]) == 0
    return _hashes(out)


def _run_assess(tmp_path):
    rng = np.random.default_rng(5)
    truth = rng.integers(0, 2, 200).tolist()
    accuracy = rng.uniform(0.55, 0.95, 8).tolist()
    records = [
        LabelRecord(f"ex{i}", f"w{j}", y if rng.random() < accuracy[j] else 1 - y)
        for i, y in enumerate(truth)
        for j in range(8)
        if rng.random() < 0.7 or i < 60
    ]
    inputs = tmp_path / "in"
    inputs.mkdir()
    write_label_records(inputs / "labels.jsonl", records, range(3, 3 * len(records) + 3, 3))
    write_label_records(
        inputs / "truth.jsonl", [LabelRecord(f"ex{i}", 0, truth[i]) for i in range(60)]
    )
    out = tmp_path / "out"
    assert main(["assess", "--labels", str(inputs / "labels.jsonl"),
                 "--truth", str(inputs / "truth.jsonl"), "--out", str(out)]) == 0
    return {**_hashes(inputs), **_hashes(out)}


@pytest.mark.parametrize("cohort", sorted(COHORTS))
@pytest.mark.parametrize("strategy", ["threshold", "uncertainty"])
def test_experiment_files_match_golden(tmp_path, strategy, cohort):
    assert _run_experiment(tmp_path, strategy, cohort) == GOLDEN[strategy, cohort]


@pytest.mark.parametrize("strategy,cohort", sorted(FIVE_TRIAL_GOLDEN))
def test_five_trial_means_match_golden(tmp_path, strategy, cohort):
    hashes = _run_experiment(tmp_path, strategy, cohort, trials=5)
    golden = FIVE_TRIAL_GOLDEN[strategy, cohort]
    assert {name: hashes[name] for name in golden} == golden


def test_assess_files_match_golden(tmp_path):
    assert _run_assess(tmp_path) == GOLDEN["assess"]


def test_assess_aggregates_match_golden(tmp_path):
    _run_assess(tmp_path)
    records, _ = read_label_records(tmp_path / "in" / "labels.jsonl")
    with open(tmp_path / "out" / "estimates.csv", newline="") as fh:
        estimates = {row["labeler_id"]: LabelerEstimate(row["labeler_id"], float(row["accuracy"]))
                     for row in csv.DictReader(fh)}
    by_example = {}
    for rec in records:
        by_example.setdefault(rec.example_id, []).append(rec)
    hashes = {}
    for method in Method:
        text = "\n".join(repr(aggregate(method, votes, estimates))
                          for votes in by_example.values())
        hashes[method.value] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert hashes == AGGREGATE_GOLDEN
