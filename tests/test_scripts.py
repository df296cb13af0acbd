"""Each experiment script starts: it imports what it uses from the package
and parses ``--help``.  The reach guard only parses the scripts, so an import
that a signature change breaks fails here.  ``csv_bodies.py`` prints the
digests that the experiment goldens pin, and the changed cells of bodies
that differ."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_experiments import GOLDEN

from stepcross.experiments import ExperimentConfig, run_experiment

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("run_*.py"))


def test_scripts_found():
    assert [p.name for p in SCRIPTS] == ["run_diagnostics.py", "run_family_embedding.py",
                                         "run_rate_sweeps.py"]


def run_script(script, *args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_exits_zero(script):
    proc = run_script(script, "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


def test_csv_bodies_prints_the_golden_digest(tmp_path):
    kw, digest = GOLDEN["lemmaA"]
    run_experiment(ExperimentConfig(output_path=str(tmp_path / "lemmaA"), **kw))
    # a provenance line is not part of the body
    with (tmp_path / "lemmaA" / "lemmaA_ratios.csv").open("a") as fh:
        fh.write("# appended comment\n")
    proc = run_script(ROOT / "scripts" / "csv_bodies.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{digest}  lemmaA/lemmaA_ratios.csv\n"


def test_csv_bodies_against_counts_changed_cells(tmp_path):
    kw, _ = GOLDEN["lemmaA"]
    for run in ("old", "new"):
        run_experiment(ExperimentConfig(output_path=str(tmp_path / run / "lemmaA"), **kw))
    script = ROOT / "scripts" / "csv_bodies.py"
    proc = run_script(script, str(tmp_path / "new"), "--against", str(tmp_path / "old"))
    assert (proc.returncode, proc.stdout) == (0, ""), proc.stderr
    # double the value of the first row in the second run
    path = tmp_path / "new" / "lemmaA" / "lemmaA_ratios.csv"
    lines = path.read_text().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    cells = lines[at].split(",")
    cells[3] = repr(2 * float(cells[3]))
    lines[at] = ",".join(cells)
    path.write_text("".join(lines))
    rows = len(lines) - at
    proc = run_script(script, str(tmp_path / "new"), "--against", str(tmp_path / "old"))
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == (f"lemmaA/lemmaA_ratios.csv: 1 of {5 * rows} cells changed\n"
                           "  value: 1 cells, max rel 1\n")
