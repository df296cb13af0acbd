import math
from itertools import combinations

import numpy as np
import pytest

from stepcross.entropy import (CloudProblem, covering_number_exact, covering_number_greedy,
                               entropy_number_estimate, packing_number_exact,
                               packing_number_greedy)


def line_cloud(*xs):
    return CloudProblem([[float(x)] for x in xs])


def covering_oracle(cloud, eps):
    """The least number of cloud points whose eps-balls cover the cloud,
    by trying every combination of points in order of size."""
    m = len(cloud)
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


def packing_oracle(cloud, eps):
    """The largest number of cloud points pairwise more than eps apart, by
    trying every combination of points from the largest size down."""
    m = len(cloud)
    dist = cloud.distance_matrix()
    for size in range(m, 0, -1):
        for combo in combinations(range(m), size):
            if all(dist[i, j] > eps for i, j in combinations(combo, 2)):
                return size
    return 0


class TestGreedyCovering:
    def test_three_points_one_center(self):
        n, centers = covering_number_greedy(line_cloud(0, 1, 2), 1.0)
        assert n == 1 and centers == [1]

    def test_tiny_radius_needs_all(self):
        n, _ = covering_number_greedy(line_cloud(0, 1, 2), 0.25)
        assert n == 3

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            covering_number_greedy(line_cloud(0, 1), 0.0)


class TestGreedyPacking:
    def test_separated_points_all_kept(self):
        m, reps = packing_number_greedy(line_cloud(0, 1, 2), 0.5)
        assert m == 3 and reps == [0, 1, 2]

    def test_single_point(self):
        assert packing_number_greedy(line_cloud(5), 3.0)[0] == 1

    def test_maximality_covers_cloud(self):
        rng = np.random.default_rng(0)
        cloud = CloudProblem(rng.standard_normal((30, 3)))
        eps = 1.0
        _, reps = packing_number_greedy(cloud, eps)
        dist = cloud.distance_matrix()
        assert all(min(dist[i, j] for j in reps) <= eps for i in range(len(cloud)))


class TestExactChain:
    def test_chain_on_random_clouds(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = int(rng.integers(3, 13))
            dim = int(rng.integers(1, 5))
            cloud = CloudProblem(rng.standard_normal((m, dim)))
            dist = cloud.distance_matrix()
            eps = float(np.quantile(dist[np.triu_indices(m, k=1)], rng.uniform(0.2, 0.8)))
            n_eps = covering_number_exact(cloud, eps)
            m_eps = packing_number_exact(cloud, eps)
            n_half = covering_number_exact(cloud, eps / 2)
            assert n_eps <= m_eps <= n_half
            # greedy bounds bracket the exact values
            assert covering_number_greedy(cloud, eps)[0] >= n_eps
            assert packing_number_greedy(cloud, eps)[0] <= m_eps

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5, math.inf])
    def test_subset_tables_equal_the_combination_oracles(self, p):
        # 100 clouds of 1..12 points per norm, some with coincident points,
        # each at five radii: below, at and between its distances, and above all
        rng = np.random.default_rng(int(10 * p) if p < math.inf else 99)
        for _ in range(100):
            m = int(rng.integers(1, 13))
            pts = rng.standard_normal((m, int(rng.integers(1, 5))))
            if m > 2 and rng.random() < 0.4:
                pts[rng.integers(m, size=2)] = pts[rng.integers(m, size=2)]
            cloud = CloudProblem(pts, p=p)
            dist = cloud.distance_matrix()[np.triu_indices(m, k=1)]
            dist = dist[dist > 0]
            eps = [0.5, 1.0, 10.0] if not dist.size else [
                dist.min() / 2, *np.quantile(dist, [0.3, 0.7]), float(np.median(dist)),
                2 * dist.max()]
            for e in map(float, eps):
                assert covering_number_exact(cloud, e) == covering_oracle(cloud, e)
                assert packing_number_exact(cloud, e) == packing_oracle(cloud, e)

    def test_exact_cap(self):
        cloud = CloudProblem(np.zeros((13, 2)))
        with pytest.raises(ValueError):
            covering_number_exact(cloud, 1.0)
        with pytest.raises(ValueError):
            packing_number_exact(cloud, 1.0)

    def test_other_norms(self):
        pts = [[0, 0], [3, 0], [0, 3]]
        c_inf = CloudProblem(pts, p=math.inf)
        c_1 = CloudProblem(pts, p=1.0)
        assert covering_number_exact(c_inf, 3.0) == 1
        assert covering_number_exact(c_1, 3.0) == 1
        assert covering_number_exact(c_1, 2.9) > 1


class TestEntropyNumberEstimate:
    def test_enough_balls_gives_zero(self):
        assert entropy_number_estimate(line_cloud(0, 1, 2, 3), 2) == 0.0

    def test_coincident_points_give_zero(self):
        # no pairwise distance is positive: one ball of any radius covers
        assert entropy_number_estimate(CloudProblem([[0.0, 0.0]] * 3), 0) == 0.0

    def test_two_points_center_restriction(self):
        # with centers restricted to the cloud the k=0 radius is the full
        # distance, twice the unrestricted midpoint value
        assert entropy_number_estimate(line_cloud(0, 2), 0) == pytest.approx(2.0)

    def test_monotone_nonincreasing_in_k(self):
        rng = np.random.default_rng(2)
        cloud = CloudProblem(rng.standard_normal((10, 2)))
        vals = [entropy_number_estimate(cloud, k) for k in range(5)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a

    def test_value_is_feasible(self):
        rng = np.random.default_rng(3)
        cloud = CloudProblem(rng.standard_normal((12, 2)))
        for k in (0, 1, 2):
            eps = entropy_number_estimate(cloud, k)
            assert covering_number_greedy(cloud, eps)[0] <= 2**k


def test_cloud_validation():
    with pytest.raises(ValueError):
        CloudProblem([])
    with pytest.raises(ValueError):
        CloudProblem([[1.0], [1.0, 2.0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("at", [0, 2])
def test_non_finite_coordinate_rejected_before_any_distance(monkeypatch, bad, at):
    # a NaN distance puts a point within eps of nothing, not even itself, so
    # the greedy cover and the entropy-number search never finished
    def no_distances(self):
        raise AssertionError("a distance was computed")

    monkeypatch.setattr(CloudProblem, "distance_matrix", no_distances)
    pts = [[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]
    pts[at] = [0.0, bad]
    with pytest.raises(ValueError, match=f"cloud point {at} has a non-finite coordinate"):
        CloudProblem(pts)


@pytest.mark.parametrize("fn", [covering_number_greedy, packing_number_greedy,
                                covering_number_exact, packing_number_exact],
                         ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("eps", [math.nan, 0.0, -1.0])
def test_eps_rejected_before_any_distance(monkeypatch, fn, eps):
    # with a NaN eps, dist <= eps is all False, so the greedy cover would
    # never cover a point and never stop
    def no_distances(self):
        raise AssertionError("a distance was computed")

    monkeypatch.setattr(CloudProblem, "distance_matrix", no_distances)
    with pytest.raises(ValueError, match="eps must be positive"):
        fn(line_cloud(0, 1, 2), eps)


@pytest.mark.parametrize("p", [math.nan, 0.5, -math.inf])
def test_cloud_exponent_checked(p):
    with pytest.raises(ValueError, match="p must be a real number >= 1"):
        CloudProblem([[0.0], [1.0]], p=p)
