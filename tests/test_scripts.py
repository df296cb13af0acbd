"""Each experiment script starts: it imports what it uses from the package
and parses ``--help``.  The reach guard only parses the scripts, so an import
that a signature change breaks fails here.  ``csv_bodies.py`` prints the
digests that the experiment goldens pin, and the changed cells of bodies
that differ."""

import csv
import math
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


@pytest.mark.parametrize("cell,tol,code", [
    ("next", "1e-15", 0),  # one ulp up: about 1e-16 relative
    ("next", "0", 1),
    ("double", "1e-15", 1),
    ("double", "1", 0),
    ("nan", "1e300", 1),
    ("text", "1e300", 1),
])
def test_csv_bodies_max_rel_bounds_the_changed_cells(tmp_path, cell, tol, code):
    kw, _ = GOLDEN["lemmaA"]
    for run in ("old", "new"):
        run_experiment(ExperimentConfig(output_path=str(tmp_path / run / "lemmaA"), **kw))
    path = tmp_path / "new" / "lemmaA" / "lemmaA_ratios.csv"
    lines = path.read_text().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    cells = lines[at].split(",")
    value = float(cells[3])
    cells[3] = {"next": repr(math.nextafter(value, math.inf)), "double": repr(2 * value),
                "nan": "nan", "text": "x"}[cell]
    lines[at] = ",".join(cells)
    path.write_text("".join(lines))
    proc = run_script(ROOT / "scripts" / "csv_bodies.py", str(tmp_path / "new"),
                      "--against", str(tmp_path / "old"), "--max-rel", tol)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.startswith("lemmaA/lemmaA_ratios.csv: 1 of ")


def test_csv_bodies_max_rel_needs_against(tmp_path):
    proc = run_script(ROOT / "scripts" / "csv_bodies.py", str(tmp_path), "--max-rel", "1e-15")
    assert proc.returncode == 2 and "--max-rel needs --against" in proc.stderr


def test_diagnostics_prints_least_certified_margins(tmp_path):
    proc = run_script(ROOT / "scripts" / "run_diagnostics.py", "--seed", "5", "--out",
                      str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    [line] = [x for x in proc.stdout.splitlines() if x.startswith("nikolskii:")]
    least = {}
    with (tmp_path / "nikolskii" / "nikolskii.csv").open() as fh:
        for row in csv.DictReader(x for x in fh if not x.startswith("#")):
            pair = f"({float(row['p']):g}, {float(row['q']):g})"
            least[pair] = min(least.get(pair, math.inf), float(row["rhs"]) / float(row["lhs"]))
    assert list(least) == ["(1, 2)", "(2, 4)", "(2, inf)"]
    margins = ", ".join(f"{pair} {m:.2f}" for pair, m in least.items())
    assert line.endswith(f" all_ok: True least rhs/lhs: {margins}")
