"""The rate sweeps' profile path loads no module beyond numpy's core, and
a norm call that starts a helper thread loads no thread pool or logging.

Importing ``numpy.polynomial`` alone costs a few milliseconds and scipy far
more, which a fresh process pays on every run.  mpmath, which the tests use
for reference values, is no dependency of the package either.
``concurrent.futures`` imports ``logging`` and adds about 0.25 MB of peak
RSS.  Each check runs in a subprocess so that modules other tests loaded do
not count.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PROBE = """
import sys
import stepcross
from stepcross.rates import block_profile
block_profile(2.5, 9)
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("scipy", "mpmath") or m.startswith("numpy.polynomial")))
"""
THREADED_NORMS = """
import os
import sys
import threading
import stepcross
from stepcross.norms import lp_norms
from stepcross.poly import TrigPoly
os.sched_getaffinity = lambda pid: {0, 1}  # a helper on any machine
started = []
start = threading.Thread.start
threading.Thread.start = lambda t: started.append(t) or start(t)
fs = [TrigPoly(2, {(0, 0): 1.0, (m, -m): 0.5j}) for m in (30, 40)]  # two batched grids
lp_norms(fs, float("inf"))
assert started
print(sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "logging")))
"""


def run_probe(probe: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout.strip()


def test_profile_loads_no_scipy_or_numpy_polynomial():
    out = run_probe(PROBE)
    assert out == "[]", out


def test_threaded_norms_load_no_futures_or_logging():
    out = run_probe(THREADED_NORMS)
    assert out == "[]", out
