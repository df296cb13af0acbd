"""Covering and packing numbers on finite point clouds, and entropy-number
estimates.

Ball centers are restricted to cloud points, which keeps every computation
combinatorial; by the triangle inequality the restricted covering number is
within a factor-2 radius of the unrestricted one.  The greedy routines scale
to any cloud and bracket the exact values (covering from above, packing
from below).

The exact values come from subset tables, capped at 12 points, so a table
has at most 2^12 = 4,096 rows.  Row S, read as a bitmask (bit i for point
i), holds the OR of the eps-neighbour bitmasks of the points in S; the
table starts as the one row of the empty set and doubles once per point,
its new half being the old one ORed with that point's mask.  The covering
number is the least popcount of a row whose union is the whole cloud; the
packing number is the largest popcount of a row S that meets no member's
neighbour mask (neighbours other than the member itself).  A cloud with a
non-finite coordinate is rejected, naming the point: its distances are NaN
or inf, and a NaN puts a point within eps of nothing, not even itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .poly import check_exponent

EXHAUSTIVE_CAP = 12


def _check_eps(eps: float) -> None:
    # NaN fails every comparison, so the test must be eps > 0, not eps <= 0
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps!r}")


@dataclass(frozen=True)
class CloudProblem:
    """A finite point cloud with the norm used to measure distances."""

    points: tuple[tuple[float, ...], ...]
    p: float = 2.0

    def __init__(self, points: Sequence[Sequence[float]], p: float = 2.0):
        pts = tuple(tuple(float(x) for x in row) for row in points)
        if not pts:
            raise ValueError("cloud must be nonempty")
        if len({len(row) for row in pts}) != 1:
            raise ValueError("cloud points must share a dimension")
        for i, row in enumerate(pts):
            if not all(map(math.isfinite, row)):
                raise ValueError(f"cloud point {i} has a non-finite coordinate: {row!r}")
        check_exponent(p)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "p", float(p))

    def __len__(self) -> int:
        return len(self.points)

    def distance_matrix(self) -> np.ndarray:
        pts = np.asarray(self.points, dtype=float)
        diff = pts[:, None, :] - pts[None, :, :]
        if math.isinf(self.p):
            return np.max(np.abs(diff), axis=2)
        return np.sum(np.abs(diff) ** self.p, axis=2) ** (1.0 / self.p)


def covering_number_greedy(cloud: CloudProblem, eps: float) -> tuple[int, list[int]]:
    """Greedy set cover with balls of radius eps centered at cloud points.

    Returns an upper bound on the (center-restricted) covering number plus
    the chosen center indices.
    """
    _check_eps(eps)
    dist = cloud.distance_matrix()
    covered = np.zeros(len(cloud), dtype=bool)
    centers: list[int] = []
    within = dist <= eps
    while not covered.all():
        gains = within[:, ~covered].sum(axis=1)
        c = int(np.argmax(gains))
        centers.append(c)
        covered |= within[c]
    return len(centers), centers


def packing_number_greedy(cloud: CloudProblem, eps: float) -> tuple[int, list[int]]:
    """Greedy maximal eps-separated subset (pairwise distances > eps).

    A lower bound on the packing number; by maximality every cloud point is
    within eps of some representative.
    """
    _check_eps(eps)
    dist = cloud.distance_matrix()
    reps: list[int] = []
    for i in range(len(cloud)):
        if all(dist[i, j] > eps for j in reps):
            reps.append(i)
    return len(reps), reps


def _subset_table(cloud: CloudProblem, eps: float, name: str,
                  self_too: bool) -> tuple[np.ndarray, np.ndarray]:
    """The int64 table of the OR of the eps-neighbour bitmasks of each
    subset's points, with each point's own bit if ``self_too``, and each
    subset's popcount, both indexed by the subset's bitmask (module
    docstring).  eps and the cap are checked before any distance."""
    _check_eps(eps)
    m = len(cloud)
    if m > EXHAUSTIVE_CAP:
        raise ValueError(f"exhaustive {name} capped at {EXHAUSTIVE_CAP} points")
    within = cloud.distance_matrix() <= eps
    np.fill_diagonal(within, self_too)
    table = np.zeros(1, dtype=np.int64)
    for mask in within.astype(np.int64) @ (1 << np.arange(m, dtype=np.int64)):
        table = np.concatenate((table, table | mask))
    return table, np.bitwise_count(np.arange(1 << m, dtype=np.int64))


def covering_number_exact(cloud: CloudProblem, eps: float) -> int:
    """Minimum number of cloud-centered eps-balls covering the cloud."""
    table, count = _subset_table(cloud, eps, "covering", True)
    return int(count[table == len(table) - 1].min())


def packing_number_exact(cloud: CloudProblem, eps: float) -> int:
    """Maximum size of a pairwise > eps separated subset."""
    table, count = _subset_table(cloud, eps, "packing", False)
    return int(count[(table & np.arange(len(table))) == 0].max())


def entropy_number_estimate(cloud: CloudProblem, k: int) -> float:
    """Least eps at which the greedy cover uses at most 2**k balls.

    An upper bound on the k-th entropy number of the cloud; the restriction
    of centers to cloud points can inflate the true value by up to a factor
    of 2 (two points at distance 2 give 2 at k = 0, not the midpoint's 1).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if 2**k >= len(cloud):
        return 0.0
    dist = cloud.distance_matrix()
    radii = sorted(set(float(x) for x in dist[np.triu_indices(len(cloud), k=1)]))
    budget = 2**k
    feasible = [r for r in radii if r > 0]
    if not feasible:
        return 0.0  # coincident points: one ball of any radius covers them
    lo, hi = 0, len(feasible) - 1
    best = feasible[-1]
    while lo <= hi:
        mid = (lo + hi) // 2
        count, _ = covering_number_greedy(cloud, feasible[mid])
        if count <= budget:
            best = feasible[mid]
            hi = mid - 1
        else:
            lo = mid + 1
    return best
