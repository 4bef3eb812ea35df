"""Dense decompositions and norms used by every other module.

All routines work on plain float64 numpy arrays.  Every singular value
comes from the symmetric eigendecomposition of a Gram matrix ``B.T @ B``.
:func:`_rescaled` is the package's one scaling rule for sums of squares:
data whose largest magnitude lies outside ``[0.5, 2**222)`` is multiplied
by the exact power of two that brings it into ``[0.5, 1)``, so huge or
tiny inputs neither overflow nor underflow, and other data is used as it
is, uncopied.  The same rule is the package's one finiteness check: the
largest and smallest entries it reads to pick the scale are finite
exactly when every entry is, so it raises :class:`ContractViolationError`
on non-finite data with no mask of the matrix.  A public function that
rescales its input checks it that way, after its argument checks, and
:func:`as_matrix` runs the check without the rescale.

One private solver, :func:`_gram_eigh`, serves the top-k triplets of
:func:`svd_top_k` (on the smaller Gram matrix of ``A``) and the projected
problem of :func:`approx_svd_z`, and :func:`singular_values` uses the
same route without vectors.  For :func:`svd_top_k` the solver
first tries :func:`_top_eigh`, a Chebyshev-filtered subspace iteration
from a fixed seed that returns only when every one of the top k Ritz pairs
has a residual at the Gram route's own noise floor; otherwise the full
dense ``eigh`` runs, unchanged.  One floor, in :func:`_floored_sigma`,
zeroes the eigenvalues the Gram route cannot resolve, so "rank at least k"
is always the single test ``sigma_k > 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ContractViolationError, RankDeficiencyError

_EPS = float(np.finfo(float).eps)
# start block of _top_eigh: fixed, so identical inputs give identical plans
_TOP_EIGH_SEED = 0
# columns of the iterated block beyond the k wanted
_TOP_EIGH_EXTRA = 10
# degree of the Chebyshev filter applied between Rayleigh-Ritz steps
_TOP_EIGH_DEGREE = 4
# _rescaled leaves data with 0.5 <= max |a| < 2**_SAFE_EXP alone.  With
# under 2**40 entries a Gram entry or eigenvalue stays below 2**(2*222+40),
# under the 2**485 past which LAPACK's eigh rescales its input itself and
# rounds differently; _top_eigh's squared residuals stay below 2**(4*222+82).
_SAFE_EXP = 222


def _as_2d(a) -> np.ndarray:
    # *a* as a float64 matrix of at least one row and one column, entries unchecked
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ArgumentError(f"expected a 2-d array, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ArgumentError(f"matrix must be at least 1x1, got shape {arr.shape}")
    return arr


def as_matrix(a) -> np.ndarray:
    """Validate *a* as a finite 2-d float matrix and return it as float64."""
    arr = _as_2d(a)
    _scale_exponent(arr)
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


def _scale_exponent(a: np.ndarray) -> int:
    # the exponent e of the one scaling rule for every sum of squares: 0
    # when the exponent of max |a| lies in [0, _SAFE_EXP], else the one
    # that brings max |a| into [0.5, 1).  It reads no copy of *a*.  max and
    # min propagate NaN and +-inf, so both are finite exactly when every
    # entry is: this is the package's one finiteness check.
    hi, lo = float(a.max()), float(a.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ContractViolationError("matrix entries must be finite")
    e = math.frexp(max(hi, -lo))[1]
    return 0 if 0 <= e <= _SAFE_EXP else e


def _rescaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    # (a * 2**-e, e) for e = _scale_exponent(a), *a* itself when e = 0.  A
    # power of two is exact on normal numbers, so products and squares,
    # and every decision, scale exactly.
    e = _scale_exponent(a)
    return (np.ldexp(a, -e), e) if e else (a, 0)


def _at_scale(x: float, e: int, what: str) -> float:
    # x * 2**e, exact unless it leaves the normal range: the way back from
    # the scaling rule for a value taken on scaled data
    try:
        return math.ldexp(x, e)
    except OverflowError:
        raise ContractViolationError(f"the {what} exceeds the float64 range") from None


def _floored_sigma(lam: np.ndarray, shape: tuple, e: int) -> np.ndarray:
    # Square roots of Gram eigenvalues *lam* (largest first) of a matrix of
    # the given shape scaled by 2**-e, returned at the matrix's own scale.
    # The Gram route computes sigma_i^2, whose rounding noise sits near
    # max(m, n) * eps * sigma_1^2, so eigenvalues at or below that floor
    # are zeroed and exact rank deficiency comes out as exact zeros.  Every
    # value kept is above sqrt(eps) * sigma_1.
    if lam[0] <= 0.0:
        return np.zeros(lam.size)
    sig = np.sqrt(np.where(lam > max(shape) * _EPS * lam[0], lam, 0.0))
    if math.frexp(float(sig[0]))[1] + e > 1024:
        raise ContractViolationError("the singular values exceed the float64 range")
    return np.ldexp(sig, e) if e else sig


def _orth(a: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(a)
    return q


def _chebyshev(g: np.ndarray, x: np.ndarray, gx: np.ndarray, c: float) -> np.ndarray:
    # T_d(2 g / c - I) x by the three-term recurrence, with the product
    # gx = g @ x already taken: eigenvalues in [0, c] keep weight at most
    # 1, and each one above c grows like exp(d * acosh(2 lambda / c - 1))
    prev, cur = x, (2.0 / c) * gx - x
    for _ in range(_TOP_EIGH_DEGREE - 1):
        prev, cur = cur, (4.0 / c) * (g @ cur) - 2.0 * cur - prev
    return cur


def _top_eigh(g: np.ndarray, k: int, shape: tuple):
    """Certified top-k eigenpairs of the Gram matrix *g*, or None.

    Blocked subspace iteration with Rayleigh-Ritz (Halko, Martinsson and
    Tropp, SIAM Review 2011) and a Chebyshev filter that damps ``[0, c]``,
    ``c`` the smallest Ritz value of the block (Saad, Numerical Methods
    for Large Eigenvalue Problems, 2011).  The block has ``k + 10``
    columns and a Gaussian start from a fixed seed.  Returns the top k
    Ritz values (largest first) and their orthonormal Ritz vectors only
    when every pair has ``||g x - theta x|| <= max(m, n) * eps * theta_1``,
    the floor of :func:`_floored_sigma`, which the dense ``eigh``'s
    backward error also reaches.  Ritz values are lower bounds on the
    eigenvalues, so a certified nonzero ``sigma_k`` still proves rank k.
    Returns None, for the dense route, when the Gram side is below twice
    the block width, when about ``p / (2 * block)`` products of *g* have
    not certified or the estimated convergence rate says they will not,
    and when the top Ritz value is not positive (zero input).
    """
    p = g.shape[0]
    ell = k + _TOP_EIGH_EXTRA
    budget = p // (2 * ell)
    if budget < 1:
        return None
    rng = np.random.default_rng(_TOP_EIGH_SEED)
    x = _orth(rng.standard_normal((p, ell)))
    products = 0
    while True:
        gx = g @ x
        products += 1
        theta, w = np.linalg.eigh(x.T @ gx)
        theta, w = theta[::-1], w[:, ::-1]
        if not theta[0] > 0.0:
            return None
        floor = max(shape) * _EPS * theta[0]
        vecs = x @ w[:, :k]
        res = float(np.linalg.norm(gx @ w[:, :k] - vecs * theta[:k], axis=0).max())
        if res <= floor:
            return theta[:k], vecs
        c = max(float(theta[-1]), floor)
        t = 2.0 * float(theta[k - 1]) / c - 1.0
        # Each filter product shrinks the slowest pair's error by about
        # exp(-acosh(t)).  The first Ritz values come from a random block
        # and say nothing about the gap, so the estimate waits one step.
        if products + _TOP_EIGH_DEGREE > budget or (
            products > 1
            and (t <= 1.0 or products + math.log(res / floor) / math.acosh(t) > budget)
        ):
            return None
        x = _orth(_chebyshev(g, x, gx, c))
        products += _TOP_EIGH_DEGREE - 1


def _gram_eigh(b: np.ndarray, shape: tuple, k: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    # Floored singular values of b and the eigenvectors of b.T @ b (the
    # right singular vectors), largest first; *shape* sets the floor.  With
    # *k*, the top k only, from _top_eigh when it certifies them.
    c, e = _rescaled(b)
    g = c.T @ c
    del c  # a scaled copy of b, if one was made, is not held through the solve
    top = None if k is None else _top_eigh(g, k, shape)
    if top is None:
        lam, vecs = np.linalg.eigh(g)
        top = lam[::-1], vecs[:, ::-1]
    return _floored_sigma(top[0], shape, e), top[1]


def singular_values(a) -> np.ndarray:
    """All ``min(m, n)`` singular values of *a*, non-increasing.

    Computed as square roots of the eigenvalues of the smaller Gram matrix.
    Eigenvalues below the route's resolution floor are zeroed, so exact
    rank deficiency comes out as exact zeros.
    """
    a = _as_2d(a)
    m, n = a.shape
    c, e = _rescaled(a)
    gram = c.T @ c if n <= m else c @ c.T
    return _floored_sigma(np.linalg.eigvalsh(gram)[::-1], a.shape, e)


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

    The eigenpairs of the smaller Gram matrix come from a Chebyshev-filtered
    subspace iteration with a fixed-seed start when it certifies them: every
    Ritz pair's residual must reach the Gram route's floor
    ``max(m, n) * eps * sigma_1^2``.  Without a spectral gap it gives up
    after a bounded number of products, and the dense ``eigh`` runs
    instead, with the same bits as a call that never tried.  Identical
    inputs give identical outputs on either route.
    """
    a = _as_2d(a)
    m, n = a.shape
    if not 1 <= k <= min(m, n):
        raise ArgumentError(f"k={k} out of range for a {m}x{n} matrix")
    # the smaller Gram matrix: of a's columns when tall, of its rows when wide
    b = a if n <= m else a.T
    sig, vecs = _gram_eigh(b, a.shape, k)
    if sig[k - 1] == 0.0:
        raise RankDeficiencyError(
            f"requested k={k} singular triplets but the numerical rank is lower"
        )
    x = np.ascontiguousarray(vecs[:, :k])  # the product's rounding depends on layout
    s = sig[:k].copy()
    y = (b @ x) / s
    v, u = (x, y) if n <= m else (y, x)
    _fix_signs(v, u)
    return SvdTopK(u=u, s=s, v=v)


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
    """Square root of the sum of squared entries.

    The sum is taken on the rescaled entries and scaled back exactly, so
    huge or tiny data neither overflows nor underflows; a norm beyond the
    float64 range raises :class:`ContractViolationError`.
    """
    c, e = _rescaled(_as_2d(a))
    return _at_scale(float(np.linalg.norm(c)), e, "Frobenius norm")


def spectral_norm(a) -> float:
    """Largest singular value."""
    return float(singular_values(a)[0])


def sigma_k(a, k: int) -> float:
    """k-th largest singular value (zero if the rank is below k)."""
    s = singular_values(a)
    if not 1 <= k <= s.size:
        raise ArgumentError(f"k={k} out of range, matrix has {s.size} singular values")
    return float(s[k - 1])


def _minus_product(a: np.ndarray, left, right, out: np.ndarray) -> np.ndarray:
    # a - left @ right, the expression of every projection residual, written
    # into out (C-ordered, the shape of a, not overlapping it): the product
    # lands in out and a is subtracted there, so no other m x n temporary
    np.matmul(left, right, out=out)
    return np.subtract(a, out, out=out)


def residual(a, z) -> np.ndarray:
    """Residual ``a - a @ z @ z.T`` of projecting the rows of *a* onto ``span(z)``."""
    a = as_matrix(a)
    z = as_matrix(z)
    if z.shape[0] != a.shape[1]:
        raise ArgumentError(
            f"projection basis has {z.shape[0]} rows but the matrix has {a.shape[1]} columns"
        )
    return _minus_product(a, a @ z, z.T, np.empty(a.shape))


def approx_svd_z(a, k: int, seed: int) -> np.ndarray:
    """Randomized approximation of the top-k right singular subspace.

    Returns an n x k matrix ``z`` with orthonormal columns such that the
    residual ``e = a - a @ z @ z.T`` satisfies ``e @ z = 0`` exactly and,
    in expectation over seeds, ``||e||_F^2 <= (1 + 1/2) * ||a - a_k||_F^2``,
    the sketch accuracy Theorem 3 assumes.

    Uses Gaussian subspace iteration: a test matrix of width ``k + 10``,
    four power iterations with re-orthonormalization on every pass, then a
    rank-k truncation of the projected problem; the oversampling and
    iteration counts comfortably over-deliver on that contract.  Raises
    :class:`RankDeficiencyError`, as :func:`svd_top_k` does, when the k-th
    singular value of the sketch falls below the zero floor.
    """
    a = as_matrix(a)
    m, n = a.shape
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
    sig, vecs = _gram_eigh(a @ w, a.shape)
    if sig[k - 1] == 0.0:
        raise RankDeficiencyError(f"k={k} exceeds the numerical rank of the input")
    z = w @ vecs[:, :k]
    _fix_signs(z)  # orient like svd_top_k; the residual is unaffected
    return z
