import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kmselect import linalg
from kmselect.errors import ArgumentError, ContractViolationError, RankDeficiencyError
from kmselect.kmeans import lloyd_best, objective
from kmselect.linalg import (
    approx_svd_z,
    as_matrix,
    frobenius_norm,
    numerical_rank,
    residual,
    sigma_k,
    singular_values,
    spectral_norm,
    svd_top_k,
    sym_eig,
)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_as_matrix_rejects_non_2d():
    with pytest.raises(ArgumentError):
        as_matrix(np.ones(3))
    for empty in (np.ones((0, 3)), np.ones((3, 0))):
        with pytest.raises(ArgumentError, match="at least 1x1"):
            as_matrix(empty)


def test_as_matrix_rejects_nan():
    with pytest.raises(ContractViolationError):
        as_matrix([[1.0, np.nan]])


def test_as_matrix_rejects_inf():
    with pytest.raises(ContractViolationError):
        as_matrix([[np.inf, 1.0]])


# ---------------------------------------------------------------------------
# the one-pass extremes read and the thin product
# ---------------------------------------------------------------------------

LAYOUTS = ("C", "F", "transposed", "strided", "mmap")
# one block, one block plus one float (2**17 + 1 = 3 * 43691) in three
# shapes, one of them a row longer than a block, and several blocks
READ_SHAPES = ((256, 512), (3, 43691), (43691, 3), (1, 2**17 + 1), (600, 700))


def _in_layout(c, layout, tmp_path):
    # the values of the C-ordered c, stored in *layout*
    if layout == "C":
        return c
    if layout == "F":
        return np.asfortranarray(c)
    if layout == "transposed":
        return np.ascontiguousarray(c.T).T
    if layout == "strided":
        wide = np.zeros((2 * c.shape[0], 3 * c.shape[1]))
        wide[::2, ::3] = c
        return wide[::2, ::3]
    path = tmp_path / "a.npy"
    np.save(path, c)
    return np.load(path, mmap_mode="r")


def _storage_positions(shape, layout):
    # the first, a middle and the last entry in storage order
    order = "C" if layout in ("C", "strided", "mmap") else "F"
    size = shape[0] * shape[1]
    return [np.unravel_index(i, shape, order=order) for i in (0, size // 2, size - 1)]


def _whole_array_exponent(a):
    # the scaling rule on a.max() and a.min() of the whole array
    hi, lo = float(a.max()), float(a.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ContractViolationError("matrix entries must be finite")
    e = math.frexp(max(hi, -lo))[1]
    return 0 if 0 <= e <= linalg._SAFE_EXP else e


@pytest.mark.parametrize("layout", LAYOUTS)
def test_scale_exponent_is_that_of_the_whole_array_extremes(rng, tmp_path, layout):
    # the exponent of a.max() and a.min(), and their error, in every layout:
    # the largest magnitude sits in the first, a middle or the last block
    for shape in READ_SHAPES:
        for where in _storage_positions(shape, layout):
            for top in (1e250, -1e-250, 3.0, np.nan, np.inf, -np.inf):
                c = rng.standard_normal(shape) * (1e-260 if abs(top) < 1.0 else 1.0)
                c[where] = top
                a = _in_layout(c, layout, tmp_path)
                if math.isfinite(top):
                    assert linalg._scale_exponent(a) == _whole_array_exponent(a)
                else:
                    with pytest.raises(ContractViolationError, match="must be finite"):
                        linalg._scale_exponent(a)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_scale_exponent_reads_no_block_copy(rng, tmp_path, layout):
    # numpy's own reduction buffer, 64 KiB for a strided view, is the
    # most the read allocates: a block would take 1 MiB
    a = _in_layout(rng.standard_normal((600, 700)), layout, tmp_path)
    tracemalloc.start()
    try:
        linalg._scale_exponent(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < linalg._READ_FLOATS


class _CountedReductions(np.ndarray):
    # an array that records the size of every reduction numpy takes of it,
    # and whether the reduced block lies contiguous in memory
    sizes = []
    contiguous = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method == "reduce":
            _CountedReductions.sizes.append(inputs[0].size)
            flags = inputs[0].flags
            _CountedReductions.contiguous.append(flags.c_contiguous or flags.f_contiguous)
        inputs = tuple(x.view(np.ndarray) if isinstance(x, np.ndarray) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_scale_exponent_stops_at_the_first_block_that_is_not_finite(rng, monkeypatch):
    # a NaN in the first block: max and min of that block are the whole read
    c = rng.standard_normal((600, 700))
    c[0, 0] = np.nan
    monkeypatch.setattr(_CountedReductions, "sizes", [])
    monkeypatch.setattr(_CountedReductions, "contiguous", [])
    with pytest.raises(ContractViolationError, match="must be finite"):
        linalg._scale_exponent(c.view(_CountedReductions))
    assert _CountedReductions.sizes
    assert sum(_CountedReductions.sizes) <= 2 * linalg._READ_FLOATS


@pytest.mark.parametrize("layout", ["C", "F", "transposed"])
def test_scale_exponent_reads_blocks_in_storage_order(rng, tmp_path, monkeypatch, layout):
    # every block is contiguous in memory, so the read never strides
    # across rows of a Fortran-ordered array
    for shape in ((600, 700), (1, 2**17 + 1)):
        a = _in_layout(rng.standard_normal(shape), layout, tmp_path)
        monkeypatch.setattr(_CountedReductions, "sizes", [])
        monkeypatch.setattr(_CountedReductions, "contiguous", [])
        linalg._scale_exponent(a.view(_CountedReductions))
        assert sum(_CountedReductions.sizes) == 2 * a.size
        assert len(_CountedReductions.sizes) > 2
        assert all(_CountedReductions.contiguous)


@pytest.mark.parametrize("layout", ["C", "F", "transposed"])
def test_thin_is_the_product_in_c_order_without_a_copy_of_a(rng, tmp_path, layout):
    for m, n, ell in ((600, 700, 7), (2000, 300, 31), (37, 1500, 3)):
        a = _in_layout(rng.standard_normal((m, n)), layout, tmp_path)
        x = rng.standard_normal((n, ell))
        tracemalloc.start()
        try:
            got = linalg._thin(a, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.flags.c_contiguous
        assert peak < 0.25 * a.nbytes
        ulp = np.finfo(float).eps * (np.abs(a) @ np.abs(x))
        assert np.all(np.abs(got - a @ x) <= 4 * ulp)


# ---------------------------------------------------------------------------
# svd_top_k
# ---------------------------------------------------------------------------


def test_svd_identity():
    top = svd_top_k(np.eye(2), 1)
    assert top.s[0] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(top.v[:, 0] @ top.v[:, 0]) == pytest.approx(1.0, abs=1e-12)


def test_svd_diagonal():
    top = svd_top_k(np.diag([3.0, 2.0]), 1)
    assert top.s[0] == pytest.approx(3.0, abs=1e-12)
    # sign convention: first nonzero entry non-negative, so +e_1 exactly
    np.testing.assert_allclose(top.v[:, 0], [1.0, 0.0], atol=1e-12)


def test_svd_matches_gram_eigendecomposition_oracle(rng):
    a = rng.standard_normal((4, 3))
    top = svd_top_k(a, 2)
    lam = np.linalg.eigvalsh(a.T @ a)[::-1]
    np.testing.assert_allclose(top.s**2, lam[:2], atol=1e-8)


def test_svd_matches_lapack_oracle(rng):
    # tall and wide inputs take the two Gram orientations
    for shape in [(7, 5), (5, 7)]:
        a = rng.standard_normal(shape)
        top = svd_top_k(a, 3)
        u, s, vt = np.linalg.svd(a)
        np.testing.assert_allclose(top.s, s[:3], atol=1e-9)
        # subspaces agree even if individual vector signs differ
        np.testing.assert_allclose(
            top.v @ top.v.T, vt[:3].T @ vt[:3], atol=1e-8
        )
        np.testing.assert_allclose(
            top.u @ top.u.T, u[:, :3] @ u[:, :3].T, atol=1e-8
        )


def test_svd_triplet_invariants(rng):
    for shape in [(8, 6), (6, 8)]:
        a = rng.standard_normal(shape)
        top = svd_top_k(a, 4)
        assert top.u.shape == (shape[0], 4) and top.v.shape == (shape[1], 4)
        np.testing.assert_allclose(top.u.T @ top.u, np.eye(4), atol=1e-9)
        np.testing.assert_allclose(top.v.T @ top.v, np.eye(4), atol=1e-9)
        assert np.all(top.s > 0)
        assert np.all(np.diff(top.s) <= 1e-12)
        np.testing.assert_allclose(top.u * top.s, a @ top.v, atol=1e-9)
        np.testing.assert_allclose(a.T @ top.u, top.v * top.s, atol=1e-9)


def test_svd_rank_decision_is_the_gram_floor():
    # diag(1, 1, t) inside an m x n zero matrix: sigma_3^2 = t^2 sits just
    # above or just below the floor max(m, n) * eps, in both orientations
    eps = np.finfo(float).eps
    for m, n in [(9, 5), (5, 9), (3, 3)]:
        for factor in (0.5, 0.999, 1.001, 2.0):
            a = np.zeros((m, n))
            a[:3, :3] = np.diag([1.0, 1.0, np.sqrt(factor * max(m, n) * eps)])
            resolved = numerical_rank(a) == 3
            assert resolved == (factor > 1.0)
            if resolved:
                assert svd_top_k(a, 3).s[2] > 0.0
            else:
                with pytest.raises(RankDeficiencyError):
                    svd_top_k(a, 3)


def test_svd_best_rank_k_beats_random_indicator_projections(rng):
    # A V_k V_k.T is the Frobenius-best rank-k approximation; any rank-k
    # X X.T A with a scaled indicator X cannot do better
    from kmselect.kmeans import Clustering, indicator

    a = rng.standard_normal((9, 5))
    k = 3
    top = svd_top_k(a, k)
    best = np.linalg.norm(a - (a @ top.v) @ top.v.T)
    for _ in range(25):
        labels = rng.integers(1, k + 1, size=9)
        labels[rng.permutation(9)[:k]] = np.arange(1, k + 1)
        x = indicator(Clustering(9, k, tuple(int(v) for v in labels)))
        assert best <= np.linalg.norm(a - x @ (x.T @ a)) + 1e-9


def test_svd_rank_deficiency_error(rng, monkeypatch):
    u = rng.standard_normal((6, 1))
    v = rng.standard_normal((1, 4))
    with pytest.raises(RankDeficiencyError):
        svd_top_k(u @ v, 2)
    # a zero matrix with a Gram side wide enough for the iteration: its top
    # Ritz value is 0, so the iteration declines and the dense route finds
    # no rank
    certified = _spy_top_eigh(monkeypatch)
    with pytest.raises(RankDeficiencyError):
        svd_top_k(np.zeros((50, 60)), 2)
    assert certified == [False]


def test_svd_k_out_of_range(rng):
    with pytest.raises(ArgumentError):
        svd_top_k(rng.standard_normal((3, 3)), 4)
    with pytest.raises(ArgumentError):
        svd_top_k(rng.standard_normal((3, 3)), 0)


def test_huge_and_tiny_inputs_give_values_or_a_typed_error(rng):
    # the Gram matrix of the raw entries would overflow (1e200) or vanish
    # (1e-200); the power-of-two rescale keeps both, and a singular value
    # beyond the float64 range is a validation error, not a bare LinAlgError
    a = rng.standard_normal((10, 8))
    plain = singular_values(a)
    top = svd_top_k(a, 3)
    for scale in (1e200, 1e-200):
        np.testing.assert_allclose(singular_values(a * scale), plain * scale, rtol=1e-12)
        scaled = svd_top_k(a * scale, 3)
        np.testing.assert_allclose(scaled.s, top.s * scale, rtol=1e-12)
        np.testing.assert_allclose(scaled.v @ scaled.v.T, top.v @ top.v.T, atol=1e-12)
        np.testing.assert_allclose(scaled.u @ scaled.u.T, top.u @ top.u.T, atol=1e-12)
        z = approx_svd_z(a * scale, 3, seed=0)
        np.testing.assert_allclose(z.T @ z, np.eye(3), atol=1e-12)
    huge = np.full((2, 2), 1e308)
    for call in (lambda: singular_values(huge), lambda: svd_top_k(huge, 1)):
        with pytest.raises(ContractViolationError, match="float64 range"):
            call()


def test_power_of_two_scaling_changes_no_bit(rng):
    # the rescale is exact, so an input scaled by 2**j decomposes into the
    # same bits, scaled by 2**j
    for shape in [(9, 6), (6, 40)]:
        a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, size=shape[1])
        top = svd_top_k(a, 3)
        for j in (-300, -7, 5, 300):
            b = np.ldexp(a, j)
            np.testing.assert_array_equal(singular_values(b), np.ldexp(singular_values(a), j))
            scaled = svd_top_k(b, 3)
            np.testing.assert_array_equal(scaled.s, np.ldexp(top.s, j))
            np.testing.assert_array_equal(scaled.u, top.u)
            np.testing.assert_array_equal(scaled.v, top.v)


def test_approx_svd_z_sketches_data_at_the_top_of_the_float64_range(rng):
    # the sketch is taken of the rescaled input, so data whose products
    # would overflow gives the subspace of its rescaled copy, bit for bit
    for shape in [(12, 40), (40, 12), (20, 300)]:
        a = rng.standard_normal(shape)
        a *= 1.7e308 / np.abs(a).max()
        e = math.frexp(np.abs(a).max())[1]
        np.testing.assert_array_equal(
            approx_svd_z(a, 2, seed=0), approx_svd_z(np.ldexp(a, -e), 2, seed=0)
        )


def test_rescaled_returns_ordinary_data_uncopied(rng):
    a = rng.standard_normal((9, 6)) * 1e3
    c, e = linalg._rescaled(a)
    assert c is a and e == 0
    # at the window's edges, exponents 0 and W are used as they are and -1
    # and W + 1 are scaled; every output moves by an exact power of two
    w = linalg._SAFE_EXP
    base = np.ldexp(a, -math.frexp(np.abs(a).max())[1])  # max |base| in [0.5, 1)
    top, sig = svd_top_k(base, 3), singular_values(base)
    z = approx_svd_z(base, 3, seed=0)
    labels = lloyd_best(base, 3, restarts=3)
    cost = objective(base, labels)
    for j in (-1, 0, w, w + 1):
        b = np.ldexp(base, j)
        c, e = linalg._rescaled(b)
        if 0 <= j <= w:
            assert c is b and e == 0
        else:
            assert e == j
            np.testing.assert_array_equal(c, base)
        np.testing.assert_array_equal(singular_values(b), np.ldexp(sig, j))
        scaled = svd_top_k(b, 3)
        np.testing.assert_array_equal(scaled.s, np.ldexp(top.s, j))
        np.testing.assert_array_equal(scaled.u, top.u)
        np.testing.assert_array_equal(scaled.v, top.v)
        np.testing.assert_array_equal(approx_svd_z(b, 3, seed=0), z)
        assert lloyd_best(b, 3, restarts=3) == labels
        assert objective(b, labels) == math.ldexp(cost, 2 * j)


def test_svd_top_k_peak_memory_is_below_input_plus_gram(rng):
    # ordinary data is not copied: the peak holds the Gram matrix and the
    # eigensolver's work, but no second copy of the input
    a = rng.standard_normal((400, 1500))
    tracemalloc.start()
    try:
        svd_top_k(a, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes + 400 * 400 * 8


# ---------------------------------------------------------------------------
# the certified iterative route of svd_top_k
# ---------------------------------------------------------------------------


def _planted(rng, m, n, k, separation):
    # m points around k centres on the first k coordinate axes, unit noise
    centers = np.zeros((k, n))
    centers[np.arange(k), np.arange(k)] = separation
    return centers[np.arange(m) % k] + rng.standard_normal((m, n))


def _spy_top_eigh(monkeypatch) -> list:
    # records, per call, whether the iterative route certified
    certified = []
    solve = linalg._top_eigh

    def spy(g, k, shape):
        out = solve(g, k, shape)
        certified.append(out is not None)
        return out

    monkeypatch.setattr(linalg, "_top_eigh", spy)
    return certified


def _dense_svd_top_k(a, k, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_top_eigh", lambda g, k, shape: None)
        return svd_top_k(a, k)


def test_iterative_route_certifies_a_planted_wide_input(rng, monkeypatch):
    a = _planted(rng, 400, 1500, 5, 20.0)
    # the certificate itself: every Ritz pair's residual at the Gram floor
    c, _ = linalg._rescaled(a.T)
    g = c.T @ c
    lam, x = linalg._top_eigh(g, 5, a.shape)
    floor = max(a.shape) * np.finfo(float).eps * lam[0]
    assert np.all(np.linalg.norm(g @ x - x * lam, axis=0) <= floor)
    np.testing.assert_allclose(x.T @ x, np.eye(5), atol=1e-13)
    certified = _spy_top_eigh(monkeypatch)
    top = svd_top_k(a, 5)
    assert certified == [True]
    _, s, vt = np.linalg.svd(a, full_matrices=False)
    np.testing.assert_allclose(top.s, s[:5], rtol=1e-12)
    # subspace distance: the sine of the largest principal angle
    ref = vt[:5].T
    assert np.linalg.norm(ref - top.v @ (top.v.T @ ref), 2) <= 1e-10
    np.testing.assert_allclose(top.u.T @ top.u, np.eye(5), atol=1e-12)
    np.testing.assert_allclose(a.T @ top.u, top.v * top.s, rtol=0, atol=1e-10 * s[0])
    # a fixed internal seed: a second call gives the same bits
    again = svd_top_k(a, 5)
    for got, want in [(again.u, top.u), (again.s, top.s), (again.v, top.v)]:
        np.testing.assert_array_equal(got, want)


def test_gapless_input_takes_the_dense_route_bit_for_bit(rng, monkeypatch):
    a = rng.standard_normal((400, 1500))
    certified = _spy_top_eigh(monkeypatch)
    top = svd_top_k(a, 5)
    assert certified == [False]
    # the dense eigh of the rescaled Gram matrix, spelled out; signs follow
    # v, so compare magnitudes
    e = int(np.frexp(np.abs(a).max())[1])
    c = np.ldexp(a, -e)
    lam, vecs = np.linalg.eigh(c @ c.T)
    np.testing.assert_array_equal(top.s, np.ldexp(np.sqrt(lam[::-1][:5]), e))
    np.testing.assert_array_equal(np.abs(top.u), np.abs(vecs[:, ::-1][:, :5]))
    dense = _dense_svd_top_k(a, 5, monkeypatch)
    for got, want in [(top.u, dense.u), (top.s, dense.s), (top.v, dense.v)]:
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("rank", [8, 10, 12])
def test_iterative_route_makes_the_dense_rank_decision(rank, monkeypatch):
    rng = np.random.default_rng(rank)
    a = rng.standard_normal((600, rank)) @ rng.standard_normal((rank, 2000))

    def has_rank_10(solve):
        try:
            solve(a, 10)
        except RankDeficiencyError:
            return False
        return True

    certified = _spy_top_eigh(monkeypatch)
    decision = has_rank_10(svd_top_k)
    assert certified == [True]
    assert decision == has_rank_10(lambda a, k: _dense_svd_top_k(a, k, monkeypatch))
    assert decision == (rank >= 10)


@pytest.mark.parametrize("m, n, k", [(2000, 500, 10), (300, 6000, 5)])
def test_iterative_route_certifies_the_benchmark_shapes(m, n, k, monkeypatch):
    # a budget of 2p / (k + 10) products reaches the certificate on the
    # planted shapes of the clustering and wide selection runs, where the
    # dense eigh of the p x p Gram matrix would cost more
    a = _planted(np.random.default_rng(m), m, n, k, 10.0)
    certified = _spy_top_eigh(monkeypatch)
    top = svd_top_k(a, k)
    assert certified == [True]
    s = np.linalg.svd(a, compute_uv=False)
    np.testing.assert_allclose(top.s, s[:k], rtol=1e-12)


def test_certified_route_holds_no_dense_eigenvectors():
    # the dense route returns all p x p eigenvectors on top of the Gram
    # matrix; the certified one holds a p x (k + 10) block
    a = _planted(np.random.default_rng(7), 2000, 500, 10, 10.0)
    tracemalloc.start()
    try:
        svd_top_k(a, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 500 * 500 * 8


# ---------------------------------------------------------------------------
# sym_eig
# ---------------------------------------------------------------------------


def test_sym_eig_diagonal():
    eig = sym_eig(np.diag([2.0, 3.0]))
    np.testing.assert_allclose(eig.values, [2.0, 3.0], atol=1e-12)


def test_sym_eig_zero():
    eig = sym_eig(np.zeros((2, 2)))
    np.testing.assert_allclose(eig.values, [0.0, 0.0], atol=1e-15)


def test_sym_eig_reconstruction(rng):
    m = rng.standard_normal((3, 3))
    m = (m + m.T) / 2
    eig = sym_eig(m)
    rebuilt = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
    assert np.linalg.norm(rebuilt - m) <= 1e-8 * max(1.0, np.linalg.norm(m))
    np.testing.assert_allclose(eig.vectors.T @ eig.vectors, np.eye(3), atol=1e-10)


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(ContractViolationError):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sym_eig_rejects_rectangular():
    with pytest.raises(ContractViolationError):
        sym_eig(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_frobenius_single_row():
    assert frobenius_norm([[3.0, 4.0]]) == pytest.approx(5.0, abs=1e-12)


def test_frobenius_zero():
    assert frobenius_norm(np.zeros((3, 2))) == 0.0


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_frobenius_of_data_whose_squares_overflow_or_underflow(rng, scale):
    # unscaled squares give inf (with an overflow warning) at 1e200 and 0.0
    # at 1e-200; the rescaled sum is the scaled norm
    a = rng.standard_normal((4, 3))
    assert frobenius_norm(a * scale) == pytest.approx(frobenius_norm(a) * scale, rel=1e-14, abs=0)


def test_frobenius_is_unchanged_on_ordinary_data(rng):
    for scale in (1e-3, 1.0, 1e60):
        a = rng.standard_normal((30, 20)) * scale
        assert frobenius_norm(a) == float(np.linalg.norm(a))


def test_frobenius_beyond_the_float64_range_is_a_contract_violation():
    with pytest.raises(ContractViolationError, match="float64 range"):
        frobenius_norm(np.full((4, 4), 1.5e308))


def test_frobenius_equals_singular_value_energy(rng):
    a = rng.standard_normal((5, 4))
    s = np.linalg.svd(a, compute_uv=False)
    assert frobenius_norm(a) == pytest.approx(float(np.sqrt((s**2).sum())), abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    arrays(
        np.float64,
        (4, 6),
        elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
    )
)
def test_frobenius_identity_property(a):
    f2 = frobenius_norm(a) ** 2
    sig2 = float((singular_values(a) ** 2).sum())
    assert abs(f2 - sig2) <= 1e-8 * max(1.0, f2)


def test_spectral_diagonal():
    assert spectral_norm(np.diag([3.0, 2.0])) == pytest.approx(3.0, abs=1e-12)


def test_spectral_identity():
    assert spectral_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-12)


def test_spectral_matches_gram_oracle(rng):
    a = rng.standard_normal((6, 3))
    lam_max = np.linalg.eigvalsh(a.T @ a)[-1]
    assert spectral_norm(a) == pytest.approx(float(np.sqrt(lam_max)), abs=1e-8)


@pytest.mark.parametrize("shape", [(40, 7), (7, 40), (300, 45), (2, 1), (1, 9)])
@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
def test_singular_values_of_the_transpose_are_the_same_bits(rng, shape, scale):
    # a and a.T share their smaller Gram matrix, which is the one formed
    a = rng.standard_normal(shape) * scale
    assert singular_values(a.T).tobytes() == singular_values(a).tobytes()
    assert singular_values(np.ascontiguousarray(a.T)).tobytes() == singular_values(a).tobytes()


def test_sigma_k_diagonal():
    assert sigma_k(np.diag([3.0, 2.0]), 2) == pytest.approx(2.0, abs=1e-12)


def test_sigma_k_rank_deficient(rng):
    u = rng.standard_normal((3, 1))
    v = rng.standard_normal((1, 3))
    assert sigma_k(u @ v, 2) == pytest.approx(0.0, abs=1e-9)


def test_sigma_k_matches_full_svd_oracle(rng):
    a = rng.standard_normal((3, 8))
    s = np.linalg.svd(a, compute_uv=False)
    assert sigma_k(a, 3) == pytest.approx(float(s[2]), abs=1e-9)


def test_sigma_k_out_of_range(rng):
    with pytest.raises(ArgumentError):
        sigma_k(rng.standard_normal((3, 8)), 4)


def test_numerical_rank_zero_matrix():
    assert numerical_rank(np.zeros((3, 4))) == 0


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------


def test_residual_full_row_space(rng):
    a = rng.standard_normal((4, 3))
    _, _, vt = np.linalg.svd(a)
    z = vt.T  # spans the full row space
    np.testing.assert_allclose(residual(a, z), np.zeros_like(a), atol=1e-12)


def test_residual_coordinate_projection():
    a = np.array([[1.0, 2.0]])
    z = np.array([[1.0], [0.0]])
    np.testing.assert_allclose(residual(a, z), [[0.0, 2.0]], atol=1e-15)


def test_residual_energy_matches_tail_singular_values(rng):
    a = rng.standard_normal((7, 5))
    k = 2
    top = svd_top_k(a, k)
    s = np.linalg.svd(a, compute_uv=False)
    expected = float(np.sqrt((s[k:] ** 2).sum()))
    assert np.linalg.norm(residual(a, top.v)) == pytest.approx(expected, abs=1e-8)


def test_residual_dimension_mismatch(rng):
    with pytest.raises(ArgumentError):
        residual(rng.standard_normal((3, 4)), rng.standard_normal((3, 2)))


# ---------------------------------------------------------------------------
# approx_svd_z
# ---------------------------------------------------------------------------


def test_approx_svd_exact_low_rank(rng):
    u = rng.standard_normal((20, 3))
    v = rng.standard_normal((3, 15))
    a = u @ v  # rank 3 exactly
    z = approx_svd_z(a, 3, seed=0)
    e = a - (a @ z) @ z.T
    assert np.linalg.norm(e) <= 1e-8


def test_approx_svd_hard_postconditions_any_seed(rng):
    a = rng.standard_normal((12, 9))
    for seed in range(10):
        z = approx_svd_z(a, 3, seed=seed)
        np.testing.assert_allclose(z.T @ z, np.eye(3), atol=1e-9)
        e = a - (a @ z) @ z.T
        assert np.abs(e @ z).max() <= 1e-9


def test_approx_svd_near_optimal_residual(rng):
    a = rng.standard_normal((30, 25))
    k = 4
    s = np.linalg.svd(a, compute_uv=False)
    tail2 = float((s[k:] ** 2).sum())
    ratios = []
    for seed in range(20):
        z = approx_svd_z(a, k, seed=seed)
        e = a - (a @ z) @ z.T
        ratios.append(float(np.square(e).sum()) / tail2)
    assert np.mean(ratios) <= 1.6


def test_approx_svd_argument_errors(rng):
    a = rng.standard_normal((10, 6))
    with pytest.raises(ArgumentError):
        approx_svd_z(a, 1, seed=0)
    low = rng.standard_normal((10, 1)) @ rng.standard_normal((1, 6))
    with pytest.raises(RankDeficiencyError):
        approx_svd_z(low, 2, seed=0)
    with pytest.raises(ArgumentError):
        approx_svd_z(a, 7, seed=0)  # k > min(m, n)
    noisy = rng.standard_normal((10, 2)) @ rng.standard_normal((2, 6))
    noisy += 1e-10 * rng.standard_normal((10, 6))
    with pytest.raises(RankDeficiencyError):
        approx_svd_z(noisy, 3, seed=0)
    # tall enough that the 3k + 1 = 10 sketch columns are fewer than n
    tall = rng.standard_normal((40, 2)) @ rng.standard_normal((2, 20))
    with pytest.raises(RankDeficiencyError):
        approx_svd_z(tall, 3, seed=0)


def test_approx_svd_z_is_svd_top_k_of_the_range_projection(rng):
    # one top-k routine: z is svd_top_k's v of q.T @ b, where b is the
    # rescaled input and q the orthonormal range of b @ omega for a
    # Gaussian omega of min(3k + 1, m, n) columns drawn from the seed
    for shape, k, scale in [((12, 300), 2, 1.0), ((300, 40), 3, 1.0), ((20, 60), 4, 1e200)]:
        a = rng.standard_normal(shape) * scale
        m, n = shape
        b = np.ldexp(a, -math.frexp(np.abs(a).max())[1]) if scale != 1.0 else a
        omega = np.random.default_rng(7).standard_normal((n, min(3 * k + 1, m, n)))
        q, _ = np.linalg.qr(linalg._thin(b, omega))
        np.testing.assert_array_equal(approx_svd_z(a, k, seed=7), svd_top_k(q.T @ b, k).v)
