"""Demo scripts and the bare package import, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    result = run_python(str(demo))
    assert result.returncode == 0, result.stderr


def test_library_import_leaves_cli_unloaded():
    result = run_python("-c", "import sys, globflow; print('globflow.cli' in sys.modules)")
    assert result.stdout.strip() == "False", result.stderr
