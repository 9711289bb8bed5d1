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

The sv entries (``events_sv.jsonl``, the ``aggregates.csv``,
``summary.csv`` and ``dynamics.csv`` that hold sv rows, and
``AGGREGATE_GOLDEN["sv"]``) were re-recorded when sv's class-0 mass became
its own sum ``s0`` rather than ``k - s1``, so that sv treats its two
classes alike: the two are equal in exact arithmetic but not always in
floating point, so some sv confidences, and the stops and picks they
drive, moved.  No other rule's bytes changed.
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
        "aggregates.csv": "b392c23339fbe7cc2e004a9ef40e5987103ca73711f9bf9e413f57bce58c64a1",
        "best_cells.csv": "af15f737c5a19ca3b3a851f719ea4cd6f580ca212d0bacc3acb9fa2d0d638701",
        "events_gtx.jsonl": "0ebb50c6122effffdada203a747b6da31ab3cf07023ca50e41be6d85e2c81763",
        "events_mv.jsonl": "de2c834b159497729057d687ecfb05fbcbe059600e0bf87e26767a150c9d0691",
        "events_sv.jsonl": "2cdf106894d5520f067092c9a87d5de5f9ecd7baae53a2ce7c28bc98f377f0c6",
        "events_wmv.jsonl": "788e1dc42d75700011e8b9bba656d1e446ef80f401e1f5b0b442e78e566baf9a",
        "run.json": "bd97165e456f233bf31b379b378eacb4b713529f3bbb5314dbb420c14d879793",
        "summary.csv": "1561369e0b114d28cd68947e28b79269080dd96c75372b6825f286337f690697",
    },
    ("threshold", "noisy"): {
        "aggregates.csv": "4bd25c4ebb10dec59da2aa6ebecdb996b30af33da0138d249a92337b73bdeabc",
        "best_cells.csv": "d45d9e8ce7527b35ee0e5faedc12c2865a3afcb55b9ba1b0b5a92a6ce94255bb",
        "events_gtx.jsonl": "73ff7f5ab55dd3f5ceba17205c3793fe93548c99098d34037fc1c78d52b06a5c",
        "events_mv.jsonl": "0d88e647c27dbacf38dc9ebf370efb95a5593dae73fdca18cf1cbad200fa47ba",
        "events_sv.jsonl": "019796fc06395a1d60122a8171043bb691521ef4a5985013cb82a9cb0cae0256",
        "events_wmv.jsonl": "16eadac2b9420036b035f147c67919b2a1d7464e55577874fa1d2a90b1212797",
        "run.json": "c11b33e7b457047276b47dcd3fcaaa64baf5e79cfc2924b690eb14bd25d31a7e",
        "summary.csv": "4c8742fc57f068ce66f56623a11098eb87bcb904691cbba88b1aea9aa01dfdb6",
    },
    ("uncertainty", "accurate"): {
        "aggregates.csv": "fda88963a4143fc9f1835c86c36b697c5772c252a520593318c4d0ebc1e671f4",
        "dynamics.csv": "75741383bb39795c596933ad3472f70ff04fe166c94486dcdf6469a103a129b7",
        "events_gtx.jsonl": "4bc1aa57c88c51afe0f82d4097deab52ce0752501e028098389412b744064e81",
        "events_mv.jsonl": "eeb0a2a2a481e514a7665996440e507e59b070eac862dd9d2ac59f709f5095e1",
        "events_sv.jsonl": "b0e188d0a2994d358b1d8121d4baa7c8d1cf6b225473ad93632e5ad633d5fada",
        "events_wmv.jsonl": "3bba720f8dc9a82dc30a0d8bd756093e0ddb3c249f4d0a31db74bdde8fb97737",
        "run.json": "acc15cd6fe8e59ab64f3da7a0520a85f95e40e677252068cd1e1607cd0939730",
        "summary.csv": "de96b6841c89b780c27a6bd3e4d011808f3fcff81741a6621bb920defa401161",
    },
    ("uncertainty", "noisy"): {
        "aggregates.csv": "1f1b3d7b0e7e4d7a38423dc9bd1dad637081ea15e76b74a7ec89b15340184cd5",
        "dynamics.csv": "84f5ab0ef1a458ca0abac3da9694076c8f90e6d67ba9c71667ef3191ec75dd1f",
        "events_gtx.jsonl": "1ba3f2211e717e7722c8582514bd26b2acd78838ca1ccceda3c109987c451c9b",
        "events_mv.jsonl": "3e2c049ad6b72880750b439e9c582b361c880e97b259a7447234b2eb6f37c2cc",
        "events_sv.jsonl": "1d83513098ef616556191fc6d0e7b34f2e9e7b1f82aaa15626c7f6e90a066ff1",
        "events_wmv.jsonl": "f08a7f947a52729be4a1ef75b17f7b9c2c8e6cd324d9749b3b06d6a2cb9746bc",
        "run.json": "798a4308f32a10d57e68f7522902e3e637e9f035c44b2327c20c9457eca725d1",
        "summary.csv": "634b2537772b6feac035511384b7415d67b00e1f40cf47c758b6b136fe8cec62",
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
        "summary.csv": "ab1e2622be47e6e147dc45253b1fb1dda986b25ff2c6333d88bdb8edaa03e383",
    },
    ("uncertainty", "accurate"): {
        "dynamics.csv": "57a087cbd99f6c29fd17593915bf9b652c64fa694b1708f1b8e8be111ef840d9",
        "summary.csv": "b3e1e9845d39609846431ce6c0a7b64d8342b15389df693435dca17f77f4a3fb",
    },
}

AGGREGATE_GOLDEN = {
    "mv": "0d46b340a9fefdf0fe32e41368f146f6a9edae33fb245bf1b9a33538c4223bb0",
    "wmv": "a98c073f635ba27291b8d0a631cf7231c98d75d38653b81e05a2ab10ce292d09",
    "sv": "4665088400b764c6e1731c634cea65e1e2cfc27048ba4085bacf368905e37042",
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
