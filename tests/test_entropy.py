import math

import numpy as np
import pytest

from stepcross.entropy import (CloudProblem, covering_number_exact, covering_number_greedy,
                               entropy_number_estimate, packing_number_exact,
                               packing_number_greedy)


def line_cloud(*xs):
    return CloudProblem([[float(x)] for x in xs])


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
