import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kmselect.errors import ArgumentError, ContractViolationError, RankDeficiencyError
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


def test_as_matrix_rejects_nan():
    with pytest.raises(ContractViolationError):
        as_matrix([[1.0, np.nan]])


def test_as_matrix_rejects_inf():
    with pytest.raises(ContractViolationError):
        as_matrix([[np.inf, 1.0]])


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
    a = rng.standard_normal((7, 5))
    top = svd_top_k(a, 3)
    u, s, vt = np.linalg.svd(a)
    np.testing.assert_allclose(top.s, s[:3], atol=1e-9)
    # subspaces agree even if individual vector signs differ
    np.testing.assert_allclose(
        top.v @ top.v.T, vt[:3].T @ vt[:3], atol=1e-8
    )


def test_svd_triplet_invariants(rng):
    a = rng.standard_normal((8, 6))
    top = svd_top_k(a, 4)
    np.testing.assert_allclose(top.u.T @ top.u, np.eye(4), atol=1e-9)
    np.testing.assert_allclose(top.v.T @ top.v, np.eye(4), atol=1e-9)
    assert np.all(top.s > 0)
    assert np.all(np.diff(top.s) <= 1e-12)
    np.testing.assert_allclose(top.u * top.s, a @ top.v, atol=1e-9)


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


def test_svd_rank_deficiency_error(rng):
    u = rng.standard_normal((6, 1))
    v = rng.standard_normal((1, 4))
    with pytest.raises(RankDeficiencyError):
        svd_top_k(u @ v, 2)


def test_svd_k_out_of_range(rng):
    with pytest.raises(ArgumentError):
        svd_top_k(rng.standard_normal((3, 3)), 4)
    with pytest.raises(ArgumentError):
        svd_top_k(rng.standard_normal((3, 3)), 0)


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
    z = approx_svd_z(a, 3, 0.5, seed=0)
    e = a - (a @ z) @ z.T
    assert np.linalg.norm(e) <= 1e-8


def test_approx_svd_hard_postconditions_any_seed(rng):
    a = rng.standard_normal((12, 9))
    for seed in range(10):
        z = approx_svd_z(a, 3, 0.5, seed=seed)
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
        z = approx_svd_z(a, k, 0.5, seed=seed)
        e = a - (a @ z) @ z.T
        ratios.append(float(np.square(e).sum()) / tail2)
    assert np.mean(ratios) <= 1.6


def test_approx_svd_argument_errors(rng):
    a = rng.standard_normal((10, 6))
    with pytest.raises(ArgumentError):
        approx_svd_z(a, 1, 0.5, seed=0)
    with pytest.raises(ArgumentError):
        approx_svd_z(a, 2, 1.5, seed=0)
    low = rng.standard_normal((10, 1)) @ rng.standard_normal((1, 6))
    with pytest.raises(ArgumentError):
        approx_svd_z(low, 2, 0.5, seed=0)
    with pytest.raises(ArgumentError):
        approx_svd_z(a, 7, 0.5, seed=0)  # k > min(m, n)
    noisy = rng.standard_normal((10, 2)) @ rng.standard_normal((2, 6))
    noisy += 1e-10 * rng.standard_normal((10, 6))
    with pytest.raises(ArgumentError):
        approx_svd_z(noisy, 3, 0.5, seed=0)
