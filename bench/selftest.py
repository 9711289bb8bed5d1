"""Show that each output check passes real outputs and rejects a corrupted copy.

    python3 bench/selftest.py

Small real runs of the three workloads are written under
``bench/out/selftest/`` and checked; then copies are corrupted: one label
flipped in ``aggregates.csv``, one event dropped from an
``events_<method>.jsonl``, one estimate moved by 1/T in ``estimates.csv``
(T gold items).  Exits 0 when every clean output passes and every corrupted
copy is rejected.
"""

from __future__ import annotations

import csv
import shutil
import sys

import worker  # puts the gtx sources on sys.path
import checks
import inputs

from gtx import config_from_dict

OUT = worker.HERE / "out" / "selftest"


def _flip_label(directory):
    """Flip the label of the first aggregates.csv row with a clear margin."""
    path = directory / "aggregates.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    label, conf = header.index("label"), header.index("confidence")
    row = next(r for r in rows[1:] if float(r[conf]) > 0.75)
    row[label] = str(1 - int(row[label]))
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _drop_event(directory):
    path = directory / "events_gtx.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    del lines[len(lines) // 2]
    path.write_text("".join(lines))


def _shift_estimate(directory):
    path = directory / "estimates.csv"
    lines = path.read_text().splitlines()
    labeler, n, accuracy = lines[1].split(",")
    lines[1] = f"{labeler},{n},{float(accuracy) + 1 / inputs.GOLD!r}"
    path.write_text("\n".join(lines) + "\n")


def _case(name, problems, want_rejected):
    ok = bool(problems) == want_rejected
    verdict = "rejected" if problems else "passed"
    print(f"[{'ok' if ok else 'MISSED'}] {name}: {verdict}")
    for p in problems[:2]:
        print(f"       {p}")
    return ok


def _corrupted(clean, name, corrupt):
    copy = clean.parent / f"{clean.name}-{name}"
    shutil.copytree(clean, copy)
    corrupt(copy)
    return copy


def main():
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    results = []

    experiments = {
        "threshold-sweep": (
            checks.check_threshold,
            {"strategy": "threshold", "trials": 1, "budget": 3000, "n_examples": 3000},
        ),
        "uncertainty": (
            checks.check_uncertainty,
            {"strategy": "uncertainty", "trials": 1, "n_examples": 1000},
        ),
    }
    for workload, (check, raw) in experiments.items():
        cfg = config_from_dict({**raw, "seed": 7})
        ctx = {"workload": workload, "configs": {"accurate": cfg}}
        rnd = worker.experiment_round(ctx, OUT / workload)
        if rnd.failures:
            raise SystemExit(f"{workload} failed: {rnd.failures}")
        facts = rnd.facts
        clean = OUT / workload / "accurate"
        results.append(_case(f"{workload} outputs", check(cfg, facts["accurate"], clean), False))
        for name, corrupt in (("flipped-label", _flip_label), ("dropped-event", _drop_event)):
            copy = _corrupted(clean, name, corrupt)
            results.append(
                _case(f"{workload} {name}", check(cfg, facts["accurate"], copy), True)
            )

    data = OUT / "label-file"
    data.mkdir()
    inputs.write_label_file(data, 7, examples=3000)
    rnd = worker.label_file_round({"workload": "label-file", "data": data}, data / "round-0")
    if rnd.failures:
        raise SystemExit(f"label-file failed: {rnd.failures}")
    clean = data / "round-0"
    results.append(_case("label-file outputs", checks.check_label_file(data, clean), False))
    copy = _corrupted(clean, "shifted-estimate", _shift_estimate)
    results.append(_case("label-file shifted-estimate", checks.check_label_file(data, copy), True))

    print(f"{sum(results)}/{len(results)} cases as expected")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
