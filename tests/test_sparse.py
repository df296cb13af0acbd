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
        # squared whole or a few runs at a time, as ``norms.even_norms`` squares them
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


@pytest.mark.parametrize("seed", range(5))
def test_run_sums_add_left_to_right(seed):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, 12, 40)
    x = rng.random(int(lengths.sum())) * 10.0 ** rng.integers(-8, 8, int(lengths.sum()))
    starts = np.cumsum(lengths) - lengths
    got = run_sums(x, starts)
    want = [sum(x[a:a + n].tolist()) for a, n in zip(starts, lengths)]
    assert np.array_equal(got, want)
