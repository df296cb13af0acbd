import operator
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from stepcross import sparse
from stepcross.sparse import cauchy_product, cauchy_squares, run_sums

BIG = 1 << 40  # a pair budget no test reaches


def random_runs(rng, d, count, wide=False):
    """``count`` runs of 1-5 distinct canonical terms; the narrow ones draw
    frequencies from -3..3, so many pairs share a sum, and the wide ones
    from -2**61..2**61, so no (run, frequency) box of their squares has
    int64 keys."""
    Ks, Cs, starts = [], [], []
    for _ in range(count):
        m = int(rng.integers(1, 6))
        span = 2**61 if wide else 3
        K = np.unique(rng.integers(-span, span + 1, (m, d)), axis=0)
        starts.append(sum(map(len, Ks)))
        Ks.append(K)
        Cs.append(rng.standard_normal((len(K), 2)).view(complex)[:, 0]
                  * 10.0 ** rng.integers(-3, 4, len(K)))
    return np.concatenate(Ks), np.concatenate(Cs), np.array(starts)


def bits(C):
    return C.view(float)


class TestCauchySquares:
    @pytest.mark.parametrize("wide", [False, True], ids=["int64-keys", "lexsort"])
    @pytest.mark.parametrize("chunk", [60, 7], ids=["one-chunk", "chunks"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_each_run_is_its_cauchy_product(self, monkeypatch, d, chunk, wide):
        # squared whole or a few runs at a time, as ``moments.even_norms`` squares them
        rng = np.random.default_rng(d + 10 * wide)
        K, C, starts = random_runs(rng, d, 60, wide)
        sort_runs, rows = sparse.sort_runs, []
        monkeypatch.setattr(sparse, "sort_runs", lambda keys: rows.append(keys.ndim == 2)
                            or sort_runs(keys))
        ends = np.append(starts, len(K))
        cuts = list(range(0, 60, chunk)) + [60]
        parts = [cauchy_squares(K[ends[r]:ends[s]], C[ends[r]:ends[s]], starts[r:s] - ends[r], 25)
                 for r, s in zip(cuts, cuts[1:])]
        assert rows == [wide] * len(parts) and len(parts) == -(-60 // chunk)
        run = np.concatenate([r + part[0] for r, part in zip(cuts, parts)])
        Ks, Cs = (np.concatenate([part[i] for part in parts]) for i in (1, 2))
        monkeypatch.undo()
        assert np.all(np.diff(run) >= 0)
        lengths = np.diff(ends)
        assert lengths.min() == 1 and lengths.max() >= 4  # one-term runs and repeated sums
        for i, (a, b) in enumerate(zip(ends, ends[1:])):
            want_K, want_C = cauchy_product(K[a:b], C[a:b], K[a:b], C[a:b], BIG)
            assert np.array_equal(Ks[run == i], want_K)
            assert np.array_equal(bits(Cs[run == i]), bits(want_C))

    def test_one_term_runs_as_alone(self):
        # a run of one term squares as numpy's 1 x 1 outer product does
        rng = np.random.default_rng(3)
        C = rng.standard_normal((500, 2)).view(complex)[:, 0]
        K = rng.integers(-9, 10, (500, 2))
        run, Ks, Cs = cauchy_squares(K, C, np.arange(500), BIG)
        assert np.array_equal(run, np.arange(500)) and np.array_equal(Ks, 2 * K)
        want = [cauchy_product(K[i:i + 1], C[i:i + 1], K[i:i + 1], C[i:i + 1], 1)[1][0]
                for i in range(500)]
        assert np.array_equal(bits(Cs), bits(np.array(want)))

    def test_run_over_the_budget_rejected(self):
        K = np.arange(12).reshape(6, 2)
        with pytest.raises(ValueError, match="a square of 4 terms has 16 pairs"):
            cauchy_squares(K, np.ones(6, complex), np.array([0, 2]), 15)

    def test_frequencies_past_int64_rejected(self):
        K = np.array([[1], [2**62]])
        with pytest.raises(ValueError, match="outside int64"):
            cauchy_squares(K, np.ones(2, complex), np.array([0, 1]), BIG)

    def test_no_terms(self):
        run, Ks, Cs = cauchy_squares(np.zeros((0, 2), np.int64), np.zeros(0, complex),
                                     np.array([0]), BIG)
        assert run.shape == Cs.shape == (0,) and Ks.shape == (0, 2)


def test_product_sums_alike_on_either_path():
    # scaling every frequency by 2**40 keeps which pairs share a sum and the
    # order of the sums, but leaves the box with no int64 keys
    rng = np.random.default_rng(4)
    K = np.unique(rng.integers(-3, 4, (30, 2)), axis=0)
    C = rng.standard_normal((len(K), 2)).view(complex)[:, 0]
    narrow_K, narrow_C = cauchy_product(K, C, K, C, BIG)
    wide_K, wide_C = cauchy_product(K << 40, C, K << 40, C, BIG)
    assert np.array_equal(wide_K, narrow_K << 40)
    assert np.array_equal(bits(wide_C), bits(narrow_C))
    assert len(narrow_K) < len(K) ** 2 / 3  # sums of three pairs and more


def padded_run_sums(x, starts):
    """The former ``run_sums``: each run a column of a zero-padded matrix,
    added down by ``np.cumsum``; a zero sum comes out +0.0."""
    lengths = np.concatenate((starts[1:], [len(x)])) - starts
    run = np.repeat(np.arange(len(starts)), lengths)
    M = np.zeros((max(lengths.max(initial=0), 1), len(starts)))
    M[np.arange(len(x)) - starts[run], run] = x
    return np.cumsum(M, axis=0)[-1]


def loop_sorted_sums(K, C):
    """The former ``sorted_sums``: each repeat added to its run's first
    coefficient, one column of copies at a time."""
    if len(K) < 2:
        return K, C
    order, K, starts = sparse.sort_runs(K)
    C = C[order]
    if len(starts) == len(K):
        return K, C
    runs = np.diff(starts, append=len(K))
    total = C[starts]
    for i in range(1, int(runs.max())):
        more = runs > i
        total[more] += C[starts[more] + i]
    return K[starts], total


def random_run_sums(rng, signed):
    """Values in 40 runs of 0-11, empty ones included, spread over 16 decades;
    ``signed`` ones take either sign and a fifth of them are -0.0."""
    lengths = rng.integers(0, 12, 40)
    n = int(lengths.sum())
    x = rng.random(n) * 10.0 ** rng.integers(-8, 8, n)
    if signed:
        x = np.where(rng.random(n) < 0.5, -x, x)
        x[rng.random(n) < 0.2] = -0.0
    return x, np.cumsum(lengths) - lengths, lengths


def left_sum(values):
    """``values`` added left to right from the first; 0.0 for none."""
    return reduce(operator.add, values) if values else 0.0


@pytest.mark.parametrize("seed", range(5))
def test_run_sums_add_left_to_right(seed):
    x, starts, lengths = random_run_sums(np.random.default_rng(seed), signed=True)
    got = run_sums(x, starts)
    want = np.array([left_sum(x[a:a + n].tolist()) for a, n in zip(starts, lengths)])
    assert (lengths == 0).any() and np.signbit(x).any()
    assert np.array_equal(bits(got), bits(want))


def test_negative_zero_run_sums_to_negative_zero():
    # among longer runs, the former zero padding turned it into +0.0
    x = np.array([1.0, 2.0, 3.0, -0.0, -0.0, 4.0, 5.0, 6.0, 7.0])
    got = run_sums(x, np.array([0, 3, 5, 9]))
    assert got.tolist() == [6.0, -0.0, 22.0, 0.0] and np.signbit(got).tolist() == [0, 1, 0, 0]


@pytest.mark.parametrize("seed", range(5))
def test_run_sums_equal_the_padded_matrix(seed):
    # the former rule, where no zero sum has a sign to lose
    x, starts, _ = random_run_sums(np.random.default_rng(seed), signed=False)
    assert np.array_equal(bits(run_sums(x, starts)), bits(padded_run_sums(x, starts)))


def test_run_sums_hold_no_padding():
    # one long run beside many short ones: the former padded matrix held
    # 2,000 x 2,001 values, 32 MB
    x = np.random.default_rng(0).random(4000)
    starts = np.concatenate(([0], np.arange(2000, 4000)))
    tracemalloc.start()
    try:
        got = run_sums(x, starts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 300_000
    assert got[0] == left_sum(x[:2000].tolist()) and np.array_equal(got[1:], x[2000:])


@pytest.mark.parametrize("seed", range(5))
def test_sorted_sums_equal_the_column_loop(seed):
    # complex repeats, some -0.0, added in their given order
    rng = np.random.default_rng(seed)
    K = rng.integers(-3, 4, (300, 2))
    C = rng.standard_normal((300, 2)).view(complex)[:, 0] * 10.0 ** rng.integers(-8, 8, 300)
    C[rng.random(300) < 0.2] = complex(-0.0, -0.0)
    got_K, got_C = sparse.sorted_sums(K, C)
    want_K, want_C = loop_sorted_sums(K, C)
    assert len(got_K) < len(K) / 4  # runs of many copies
    assert np.array_equal(got_K, want_K) and np.array_equal(bits(got_C), bits(want_C))
