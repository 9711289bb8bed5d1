"""Every walkthrough in ``demos/``, and the python block of README's
"Library quick start", runs to the end.

Each runs in a fresh interpreter with the test's temporary directory as
its working directory, since the experiment-harness demo writes
``demo_results/`` there."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gtx

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def readme_quick_start():
    """The python block of README's "Library quick start" section."""
    section = README.read_text().split("## Library quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", [*DEMOS, README], ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    if demo == README:
        demo = tmp_path / "quick_start.py"
        demo.write_text(readme_quick_start())
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(gtx.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
