"""Dense decompositions and norms used by every other module.

All routines work on plain float64 numpy arrays.  Singular values are
computed through the symmetric eigendecomposition of the smaller Gram
matrix (``A.T @ A`` or ``A @ A.T``), which keeps every consumer of this
module on one deterministic code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ContractViolationError, RankDeficiencyError

# A singular value below RANK_TOL * sigma_1 counts as zero when resolvable.
# The Gram route computes sigma_i^2, whose noise floor sits near
# max(m, n) * eps relative to sigma_1^2, so values are zeroed there instead
# when that floor is the larger of the two.
RANK_TOL = 1e-12
_EPS = float(np.finfo(float).eps)


def as_matrix(a) -> np.ndarray:
    """Validate *a* as a finite 2-d float matrix and return it as float64."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ArgumentError(f"expected a 2-d array, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ArgumentError(f"matrix must be at least 1x1, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ContractViolationError("matrix entries must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class SvdTopK:
    """Top-k singular triplets of a matrix: ``a ~= u @ diag(s) @ v.T``.

    ``u`` is m x k with orthonormal columns, ``s`` holds the k largest
    singular values in non-increasing order (all positive), and ``v`` is
    n x k with orthonormal columns.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    @property
    def k(self) -> int:
        return int(self.s.size)


@dataclass(frozen=True, eq=False)
class SymEig:
    """Full spectral decomposition of a symmetric matrix.

    ``values`` are in non-decreasing order; ``vectors`` has the matching
    orthonormal eigenvectors as columns.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.values.size)


def _zero_floor(shape: tuple, lam_max: float) -> float:
    return max(max(shape) * _EPS, RANK_TOL**2) * lam_max


def singular_values(a) -> np.ndarray:
    """All ``min(m, n)`` singular values of *a*, non-increasing.

    Computed as square roots of the eigenvalues of the smaller Gram matrix.
    Eigenvalues below the route's resolution floor are zeroed, so exact
    rank deficiency comes out as exact zeros.
    """
    a = as_matrix(a)
    m, n = a.shape
    gram = a.T @ a if n <= m else a @ a.T
    vals = np.linalg.eigvalsh(gram)[::-1]
    if vals[0] <= 0.0:
        return np.zeros(min(m, n))
    vals = np.where(vals > _zero_floor(a.shape, vals[0]), vals, 0.0)
    return np.sqrt(vals)


def numerical_rank(a) -> int:
    """Number of singular values above the zero floor."""
    return int(np.count_nonzero(singular_values(a)))


def _fix_signs(v: np.ndarray, u: np.ndarray | None = None) -> None:
    # Reproducible orientation: first nonzero entry of each right singular
    # vector is made non-negative; the paired left vector, if any, flips
    # with it.
    for j in range(v.shape[1]):
        nz = np.flatnonzero(v[:, j])
        if nz.size and v[nz[0], j] < 0:
            v[:, j] = -v[:, j]
            if u is not None:
                u[:, j] = -u[:, j]


def svd_top_k(a, k: int) -> SvdTopK:
    """Top-k singular triplets of *a*.

    ``a @ v @ v.T`` is the best rank-k approximation of *a* in Frobenius
    norm.  Raises :class:`RankDeficiencyError` when *k* exceeds the
    numerical rank of *a*.
    """
    a = as_matrix(a)
    m, n = a.shape
    if not 1 <= k <= min(m, n):
        raise ArgumentError(f"k={k} out of range for a {m}x{n} matrix")
    if n <= m:
        lam, vecs = np.linalg.eigh(a.T @ a)
        lam, vecs = lam[::-1], vecs[:, ::-1]
        sig = _floored_sigma(lam, a.shape)
        _check_rank(sig, k)
        v = np.ascontiguousarray(vecs[:, :k])
        s = sig[:k].copy()
        u = (a @ v) / s
    else:
        lam, vecs = np.linalg.eigh(a @ a.T)
        lam, vecs = lam[::-1], vecs[:, ::-1]
        sig = _floored_sigma(lam, a.shape)
        _check_rank(sig, k)
        u = np.ascontiguousarray(vecs[:, :k])
        s = sig[:k].copy()
        v = (a.T @ u) / s
    _fix_signs(v, u)
    return SvdTopK(u=u, s=s, v=v)


def _floored_sigma(lam: np.ndarray, shape: tuple) -> np.ndarray:
    if lam[0] <= 0.0:
        return np.zeros(lam.size)
    return np.sqrt(np.where(lam > _zero_floor(shape, lam[0]), lam, 0.0))


def _check_rank(sig: np.ndarray, k: int) -> None:
    if sig[k - 1] == 0.0:
        raise RankDeficiencyError(
            f"requested k={k} singular triplets but the numerical rank is lower"
        )


def sym_eig(m) -> SymEig:
    """Spectral decomposition of a symmetric matrix."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ContractViolationError(f"matrix must be square, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > 1e-10 * scale:
        raise ContractViolationError("matrix is not symmetric within 1e-10")
    vals, vecs = np.linalg.eigh(m)
    return SymEig(values=vals, vectors=vecs)


def frobenius_norm(a) -> float:
    """Square root of the sum of squared entries."""
    return float(np.linalg.norm(as_matrix(a)))


def spectral_norm(a) -> float:
    """Largest singular value."""
    return float(singular_values(a)[0])


def sigma_k(a, k: int) -> float:
    """k-th largest singular value (zero if the rank is below k)."""
    s = singular_values(a)
    if not 1 <= k <= s.size:
        raise ArgumentError(f"k={k} out of range, matrix has {s.size} singular values")
    return float(s[k - 1])


def residual(a, z) -> np.ndarray:
    """Residual ``a - a @ z @ z.T`` of projecting the rows of *a* onto ``span(z)``."""
    a = as_matrix(a)
    z = as_matrix(z)
    if z.shape[0] != a.shape[1]:
        raise ArgumentError(
            f"projection basis has {z.shape[0]} rows but the matrix has {a.shape[1]} columns"
        )
    return a - (a @ z) @ z.T


def _orth(a: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(a)
    return q


def approx_svd_z(a, k: int, epsilon: float, seed: int) -> np.ndarray:
    """Randomized approximation of the top-k right singular subspace.

    Returns an n x k matrix ``z`` with orthonormal columns such that the
    residual ``e = a - a @ z @ z.T`` satisfies ``e @ z = 0`` exactly and,
    in expectation over seeds, ``||e||_F^2 <= (1 + epsilon) * ||a - a_k||_F^2``.

    Uses Gaussian subspace iteration: a test matrix of width ``k + 10``,
    four power iterations with re-orthonormalization on every pass, then a
    rank-k truncation of the projected problem.  The oversampling and
    iteration counts comfortably over-deliver on the stated expectation
    contract for any ``epsilon`` in (0, 1).  Raises :class:`ArgumentError`
    when the k-th singular value of the sketch falls below the zero floor.
    """
    a = as_matrix(a)
    m, n = a.shape
    if not 0.0 < epsilon < 1.0:
        raise ArgumentError(f"epsilon must lie in (0, 1), got {epsilon}")
    if k < 2:
        raise ArgumentError(f"k must be at least 2, got {k}")
    if k > min(m, n):
        raise ArgumentError(f"k={k} out of range for a {m}x{n} matrix")
    rng = np.random.default_rng(seed)
    ell = min(k + 10, m, n)
    q = _orth(a @ rng.standard_normal((n, ell)))
    for _ in range(4):
        w = _orth(a.T @ q)
        q = _orth(a @ w)
    w = _orth(a.T @ q)
    b = a @ w
    lam, vecs = np.linalg.eigh(b.T @ b)
    if _floored_sigma(lam[::-1], a.shape)[k - 1] == 0.0:
        raise ArgumentError(f"k={k} exceeds the numerical rank of the input")
    proj = vecs[:, ::-1][:, :k]
    z = w @ proj
    _fix_signs(z)  # orient like svd_top_k; the residual is unaffected
    return z
