"""Covering and packing numbers on finite point clouds, and entropy-number
estimates.

Ball centers are restricted to cloud points, which keeps every computation
combinatorial; by the triangle inequality the restricted covering number is
within a factor-2 radius of the unrestricted one.  Exhaustive subset oracles
are capped at 12 points; the greedy routines scale beyond that and bracket
the exact values (covering from above, packing from below).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
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


def covering_number_exact(cloud: CloudProblem, eps: float) -> int:
    """Minimum number of cloud-centered eps-balls covering the cloud."""
    _check_eps(eps)
    m = len(cloud)
    if m > EXHAUSTIVE_CAP:
        raise ValueError(f"exhaustive covering capped at {EXHAUSTIVE_CAP} points")
    within = cloud.distance_matrix() <= eps
    full = (1 << m) - 1
    bitmasks = []
    for i in range(m):
        b = 0
        for j in range(m):
            if within[i, j]:
                b |= 1 << j
        bitmasks.append(b)
    for size in range(1, m + 1):
        for combo in combinations(range(m), size):
            u = 0
            for i in combo:
                u |= bitmasks[i]
            if u == full:
                return size
    return m


def packing_number_exact(cloud: CloudProblem, eps: float) -> int:
    """Maximum size of a pairwise > eps separated subset."""
    _check_eps(eps)
    m = len(cloud)
    if m > EXHAUSTIVE_CAP:
        raise ValueError(f"exhaustive packing capped at {EXHAUSTIVE_CAP} points")
    dist = cloud.distance_matrix()
    for size in range(m, 0, -1):
        for combo in combinations(range(m), size):
            if all(dist[i, j] > eps for i, j in combinations(combo, 2)):
                return size
    return 0


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
