"""Every script under ``examples/`` runs to completion.

Each script runs as its own ``python`` subprocess, from a scratch
directory, exactly as its docstring says to run it; a non-zero exit
fails the test with the script's stderr.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


@pytest.mark.slow
@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO_ROOT / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_examples_are_found():
    assert EXAMPLES, "no scripts under examples/"
