"""Every walkthrough in ``demos/`` runs to the end.

Each demo runs in a fresh interpreter with the test's temporary directory as
its working directory, since the experiment-harness demo writes
``demo_results/`` there."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gtx

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(gtx.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
