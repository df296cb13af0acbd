"""Each experiment script starts: it imports what it uses from the package
and parses ``--help``.  The reach guard only parses the scripts, so an import
that a signature change breaks fails here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("run_*.py"))


def test_scripts_found():
    assert [p.name for p in SCRIPTS] == ["run_diagnostics.py", "run_family_embedding.py",
                                         "run_rate_sweeps.py"]


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_exits_zero(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script), "--help"], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")
