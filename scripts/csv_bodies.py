#!/usr/bin/env python3
"""Print the sha256 of the body of every CSV file under a directory.

One line per file, ``<digest>  <path relative to DIR>``, in sorted path
order.  The body is the file without its provenance comment lines
(``experiments.csv_body``), so two runs of an experiment script print the
same lines exactly when they print the same numbers:

    diff <(python scripts/csv_bodies.py old) <(python scripts/csv_bodies.py new)

With ``--against OLD_DIR`` it prints, for each CSV whose body differs from
the one at the same path under OLD_DIR, the count of changed cells and, per
column with a changed cell, the count and the largest relative change
|new - old| / |old| (``text`` for a cell that is not a number):

    diag/nikolskii/nikolskii.csv: 2 of 3000 cells changed
      lhs: 1 cells, max rel 1.1e-16

A file under one directory only, or with another header or row shape, is
named as such.  The exit status is 1 when any body differs, else 0.  With
``--max-rel TOL`` as well, a body whose changed cells are all numbers, each
within TOL relative, does not count as differing, so a run that may move
numbers only at rounding states its tolerance as a command:

    python scripts/csv_bodies.py new --against old --max-rel 1e-15
"""

import argparse
import csv
import hashlib
import io
import math
import sys
from pathlib import Path

from stepcross.experiments import csv_body


def relative_change(old: str, new: str) -> float | None:
    """|new - old| / |old| of two cells, inf when they differ and old is 0
    or either is not finite, None when either is not a number."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return None
    if a == b:
        return 0.0
    return abs(b - a) / abs(a) if a and math.isfinite(a) and math.isfinite(b) else math.inf


def cell_changes(old: str, new: str) -> tuple[list[str], float | None]:
    """Lines describing how CSV body ``new`` differs from ``old``, which
    differ, and the largest relative change of a cell: None when a text
    cell, the header or the row shape changed."""
    a, b = list(csv.reader(io.StringIO(old))), list(csv.reader(io.StringIO(new)))
    if (len(a) != len(b) or a[:1] != b[:1]
            or any(len(x) != len(y) for x, y in zip(a, b))):
        return ["header or row shape changed"], None
    header, counts, worst = a[0], [0] * len(a[0]), [0.0] * len(a[0])
    for x, y in zip(a[1:], b[1:]):
        for j, (u, v) in enumerate(zip(x, y)):
            if u != v:
                counts[j] += 1
                rel = relative_change(u, v)
                worst[j] = None if rel is None or worst[j] is None else max(worst[j], rel)
    cells = sum(len(x) for x in a[1:])
    lines = [f"{sum(counts)} of {cells} cells changed"]
    for name, k, w in zip(header, counts, worst):
        if k:
            lines.append(f"  {name}: {k} cells, " + ("text" if w is None else f"max rel {w:.2g}"))
    return lines, None if None in worst else max(worst)


def main():
    ap = argparse.ArgumentParser(description="sha256 of each CSV body under DIR")
    ap.add_argument("dir", type=Path, metavar="DIR")
    ap.add_argument("--against", type=Path, metavar="OLD_DIR",
                    help="print the changed cells of each CSV body that differs from OLD_DIR's")
    ap.add_argument("--max-rel", type=float, metavar="TOL",
                    help="with --against, exit 0 when every changed cell is a number "
                         "within TOL relative")
    args = ap.parse_args()
    if args.max_rel is not None and (args.against is None or not args.max_rel >= 0):
        ap.error("--max-rel needs --against and a number TOL >= 0")
    if args.against is None:
        for path in sorted(args.dir.rglob("*.csv")):
            digest = hashlib.sha256(csv_body(path).encode()).hexdigest()
            print(f"{digest}  {path.relative_to(args.dir).as_posix()}")
        return 0
    new, old = ({p.relative_to(d).as_posix(): p for p in d.rglob("*.csv")}
                for d in (args.dir, args.against))
    differ = False
    for rel in sorted(new.keys() | old.keys()):
        if rel not in old or rel not in new:
            print(f"{rel}: only under {args.dir if rel in new else args.against}")
            differ = True
            continue
        before, after = csv_body(old[rel]), csv_body(new[rel])
        if before != after:
            (first, *rest), worst = cell_changes(before, after)
            print(f"{rel}: {first}", *rest, sep="\n")
            differ |= args.max_rel is None or worst is None or not worst <= args.max_rel
    return int(differ)


if __name__ == "__main__":
    sys.exit(main())
