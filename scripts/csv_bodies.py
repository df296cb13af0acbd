#!/usr/bin/env python3
"""Print the sha256 of the body of every CSV file under a directory.

One line per file, ``<digest>  <path relative to DIR>``, in sorted path
order.  The body is the file without its provenance comment lines
(``experiments.csv_body``), so two runs of an experiment script print the
same lines exactly when they print the same numbers:

    diff <(python scripts/csv_bodies.py old) <(python scripts/csv_bodies.py new)
"""

import argparse
import hashlib
from pathlib import Path

from stepcross.experiments import csv_body


def main():
    ap = argparse.ArgumentParser(description="sha256 of each CSV body under DIR")
    ap.add_argument("dir", type=Path, metavar="DIR")
    args = ap.parse_args()
    for path in sorted(args.dir.rglob("*.csv")):
        digest = hashlib.sha256(csv_body(path).encode()).hexdigest()
        print(f"{digest}  {path.relative_to(args.dir).as_posix()}")


if __name__ == "__main__":
    main()
