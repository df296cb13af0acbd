"""The rate sweeps' profile path loads no module beyond numpy's core.

Importing ``numpy.polynomial`` alone costs a few milliseconds and scipy far
more, which a fresh process pays on every run.  mpmath, which the tests use
for reference values, is no dependency of the package either.  The check
runs in a subprocess so that modules other tests loaded do not count.
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


def test_profile_loads_no_scipy_or_numpy_polynomial():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]", out.stdout
