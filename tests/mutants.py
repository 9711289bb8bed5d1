"""Hand-made mutants of gtx's documented rules, and the tests that must kill them.

Each mutant is one exact source replacement, which must occur exactly once
in its file, and the test files that must fail once it is applied.  The
loop copies ``src``, ``tests`` and ``pyproject.toml`` into a temporary
directory per mutant, applies it there, runs pytest on its test files with
``-x``, and reports each mutant as killed (pytest failed), survived (pytest
passed) or stale (its text is gone from the source).  The working tree is
never touched.  A change that adds a rule adds its mutant here.

Not collected by pytest; run it by hand from the repository root::

    python tests/mutants.py            # every mutant
    python tests/mutants.py pick-best-more-labels seen-not-updated

It exits 0 when every mutant it ran was killed, and 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple  # test files, relative to the repository root


MUTANTS = [
    Mutant("weight-tie-to-class-1", "src/gtx/model.py",
           "    label = 1 if s1 > s0 else 0\n", "    label = 1 if s1 >= s0 else 0\n",
           ("tests/test_model.py", "tests/test_aggregators.py")),
    Mutant("default-counts-off-by-one", "src/gtx/io.py",
           "range(1, min(kappa, _MAX_DEFAULT_COUNTS) + 1)",
           "range(1, min(kappa, _MAX_DEFAULT_COUNTS))",
           ("tests/test_io.py",)),
    Mutant("se-divides-by-n", "src/gtx/metrics.py",
           "np.sqrt(squares / (n - 1))", "np.sqrt(squares / n)",
           ("tests/test_metrics.py",)),
    Mutant("estimates-in-reverse", "src/gtx/cli.py",
           "estimates.sort(key=lambda e: str(e.labeler_id))",
           "estimates.sort(key=lambda e: str(e.labeler_id), reverse=True)",
           ("tests/test_cli.py",)),
    Mutant("no-accuracy-floor", "src/gtx/model.py",
           "a = min(max(a, ACCURACY_FLOOR), ACCURACY_CEIL)", "a = min(a, ACCURACY_CEIL)",
           ("tests/test_model.py",)),
    Mutant("sv-stop-strict", "src/gtx/model.py",
           "np.maximum(s0, s1) / (s0 + s1) >= tau", "np.maximum(s0, s1) / (s0 + s1) > tau",
           ("tests/test_model.py", "tests/test_strategies.py")),
    Mutant("pick-best-more-labels", "src/gtx/experiments.py",
           "return (err, avg, cells[i].code)", "return (err, -avg, cells[i].code)",
           ("tests/test_experiments.py",)),
    Mutant("pick-best-larger-code", "src/gtx/experiments.py",
           "return (err, avg, cells[i].code)", "return (err, avg, -cells[i].code)",
           ("tests/test_experiments.py",)),
    Mutant("avg-k-off-at-one-example", "src/gtx/metrics.py",
           "spent / n, wrong / n", "(spent - (n == 1)) / n, wrong / n",
           ("tests/test_metrics.py",)),
    Mutant("writers-unchecked", "src/gtx/io.py",
           "    deque(_label_blocks(path, (template % c for c in cells)), 0)"
           "  # read, block by block\n", "",
           ("tests/test_io.py",)),
    Mutant("seen-not-updated", "src/gtx/io.py",
           "    seen.update(pairs)\n", "",
           ("tests/test_io.py",)),
    Mutant("last-not-carried", "src/gtx/io.py",
           "                    last = block[3][-1] if block[3] else last\n", "",
           ("tests/test_io.py",)),
]


def run(mutant: Mutant) -> str:
    """``killed``, ``survived`` or ``stale``: ``mutant`` applied to a copy."""
    with tempfile.TemporaryDirectory(prefix="gtx-mutant-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", copy / "tests",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "stale"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return "survived" if done.returncode == 0 else "killed"


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    bad = []
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        start = time.perf_counter()
        verdict = run(mutant)
        print(f"{verdict:8} {mutant.name} ({time.perf_counter() - start:.0f} s)", flush=True)
        if verdict != "killed":
            bad.append(mutant.name)
    if bad:
        print(f"not killed: {', '.join(bad)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
