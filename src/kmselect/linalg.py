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
:func:`_scaled_rows` applies the rule a block of rows at a time, through
one reused buffer, for sums that need no scaled copy of the input.
:func:`_scale_exponent` reads the extremes in one pass, in storage
order: ``max`` and ``min`` of each block of at most ``2**17`` floats
along the input's largest-stride axis, while the block is in cache, so
C-ordered, Fortran-ordered, transposed and memory-mapped inputs are each
read from memory once, with no copy, and the read stops at the first
block that is not finite.

A thin product is a full-size matrix times a block of a few columns.
Each one is taken by :func:`_thin`, which computes ``a @ x`` as
``(x.T @ a.T).T``: OpenBLAS streams the large operand faster in that
layout, and the result is copied back to the C order ``a @ x`` gives.

:func:`_gram` is the one rescale-and-Gram step: every Gram matrix is
formed there, of the rescaled data, and the scaled copy is freed before
the Gram matrix is solved.  :func:`svd_top_k` takes the top-k triplets
from the smaller Gram matrix of ``A``, :func:`approx_svd_z` hands it its
``l x n`` projection, and :func:`singular_values` uses the same route
without vectors, on the same smaller side.  The top-k solve first tries
:func:`_top_eigh`, a Chebyshev-filtered subspace iteration from a fixed
seed that returns only when every one of the top k Ritz pairs has a
residual at the Gram route's own noise floor; otherwise the full dense
``eigh`` runs, unchanged.  One floor, in :func:`_floored_sigma`, zeroes
the eigenvalues the Gram route cannot resolve, so "rank at least k" is
always the single test ``sigma_k > 0``.
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
# floats of the input whose extremes _scale_exponent reads at a time
_READ_FLOATS = 2**17


def _as_2d(a) -> np.ndarray:
    # *a* as a float64 matrix of at least one row and one column, entries unchecked
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ArgumentError(f"expected a 2-d array, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ArgumentError(f"matrix must be at least 1x1, got shape {arr.shape}")
    return arr


def _valid_int(x, what: str, low=-math.inf, high=math.inf) -> int:
    # the one count rule, for k, r, n, restarts, trials, seeds, plan
    # dimensions and indices: a Python or numpy integer in [low, high],
    # checked before a function's matrix is read and returned as a Python
    # int, the type every output echoes.  bool subclasses int, so it is
    # refused by name.  A seed follows numpy's own rule, an integer >= 0;
    # where a signature defaults it to None, the caller passes 0.  The
    # range is compared on the Python int: a numpy integer compared with
    # a float bound took ten times as long, once per label of a clustering
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ArgumentError(f"{what} must be an integer, got {x!r}")
    x = int(x)
    if not low <= x <= high:
        most = "" if high == math.inf else f" and at most {high}"
        raise ArgumentError(f"{what} must be at least {low}{most}, got {x}")
    return x


def _valid_ints(xs, what: str, low=-math.inf, high=math.inf) -> tuple:
    # _valid_int of every entry of *xs*, as a tuple of Python ints: one pass
    # over the entries' types plus min and max, and the per-entry rule only
    # when that fails, for the first bad entry's message
    xs = tuple(xs)
    types = set(map(type, xs))
    if xs and all(t is not bool and issubclass(t, (int, np.integer)) for t in types) \
            and low <= min(xs) and max(xs) <= high:
        return xs if types == {int} else tuple(map(int, xs))
    return tuple(_valid_int(x, what, low, high) for x in xs)


def _window(k, r, n=math.inf) -> None:
    # the one window rule of the guarantees, k < r < n, for integer counts
    # and the theorem factors' floats alike; n = inf where only k < r is
    # needed.  NaN fails every comparison, so it is refused too
    if not k < r < n:
        raise ArgumentError(f"need k < r < n, got k={k}, r={r}, n={n}")


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


@dataclass(frozen=True, eq=False)
class SymEig:
    """Full spectral decomposition of a symmetric matrix.

    ``values`` are in non-decreasing order; ``vectors`` has the matching
    orthonormal eigenvectors as columns.
    """

    values: np.ndarray
    vectors: np.ndarray


def _scale_exponent(a: np.ndarray) -> int:
    # the exponent e of the one scaling rule for every sum of squares: 0
    # when the exponent of max |a| lies in [0, _SAFE_EXP], else the one
    # that brings max |a| into [0.5, 1).  max and min propagate NaN and
    # +-inf, so both are finite exactly when every entry is: this is the
    # package's one finiteness check.  Both are taken of each block of at
    # most _READ_FLOATS floats of the 2-d *a*, viewed with its
    # largest-stride axis first, so each block is read from memory once,
    # in storage order, with no copy, and the read stops at the first
    # block that is not finite.  On a Fortran-ordered 2000 x 5000 array
    # its blocks of columns took 6.4 ms, two whole-array passes 11.4 ms
    # and blocks of rows, against storage order, 22.6 ms (2 threads)
    b = a if abs(a.strides[0]) >= abs(a.strides[1]) else a.T
    rows, cols = b.shape
    width = min(cols, _READ_FLOATS)
    step = max(1, _READ_FLOATS // width)
    hi, lo = -math.inf, math.inf
    for i in range(0, rows, step):
        for j in range(0, cols, width):
            block = b[i:i + step, j:j + width]
            bhi, blo = float(block.max()), float(block.min())
            if not (math.isfinite(bhi) and math.isfinite(blo)):
                raise ContractViolationError("matrix entries must be finite")
            hi, lo = max(hi, bhi), min(lo, blo)
    return _exponent_of(max(hi, -lo))


def _exponent_of(top: float) -> int:
    # the scaling rule's exponent for data whose largest magnitude is *top*
    e = math.frexp(top)[1]
    return 0 if 0 <= e <= _SAFE_EXP else e


def _thin(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    # a @ x for a full-size a and a block x of a few columns, C-ordered as
    # a @ x is.  OpenBLAS streams a faster as the right operand of the
    # transposed product: 7.5 against 12.7 ms for a 2000 x 5000 a times 7
    # columns, 6.3 against 16.1 ms for its a.T times 7 columns (2 threads).
    # a itself is not copied in any layout BLAS takes
    return np.ascontiguousarray((x.T @ a.T).T)


def _rescaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    # (a * 2**-e, e) for e = _scale_exponent(a), *a* itself when e = 0.  A
    # power of two is exact on normal numbers, so products and squares,
    # and every decision, scale exactly.
    e = _scale_exponent(a)
    return (np.ldexp(a, -e), e) if e else (a, 0)


def _scaled_rows(a: np.ndarray, rows: int):
    # (e, blocks) for e = _scale_exponent(a): each call of blocks() yields
    # (start, a[start:start + rows] * 2**-e) for the blocks of rows in
    # order, the scaling rule without a scaled copy of *a*.  Off scale 1
    # each block is scaled into one buffer laid out as a's rows are, so it
    # holds until the next block is yielded; at scale 1 it is a view of a
    e = _scale_exponent(a)
    buf = np.empty_like(a[:rows]) if e else None

    def blocks():
        for start in range(0, a.shape[0], rows):
            block = a[start:start + rows]
            yield start, np.ldexp(block, -e, out=buf[:block.shape[0]]) if e else block

    return e, blocks


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
        prev, cur = cur, (4.0 / c) * _thin(g, cur) - 2.0 * cur - prev
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
    the block width, when ``2 p / block`` products of *g* have not
    certified or the estimated convergence rate says they will not, and
    when the top Ritz value is not positive (zero input).  That budget is
    below the dense route's own cost: the dense ``eigh`` of a ``p x p``
    Gram matrix took as long as 112, 135 and 274 products with the block
    at p = 300, 500 and 2000 (5.6, 16.0 and 622 ms, 2 vCPUs), where the
    budget allows 40, 50 and 200 at k = 5, 10 and 10.  Planted inputs of
    those sizes certify in 17-33 products, past the ``p / (2 * block)``
    budget that preceded this one; ``4 p / block`` certified a gapless
    400 x 1500 input more slowly than the dense route took.
    """
    p = g.shape[0]
    ell = k + _TOP_EIGH_EXTRA
    if p < 2 * ell:
        return None
    budget = 2 * p // ell
    rng = np.random.default_rng(_TOP_EIGH_SEED)
    x = _orth(rng.standard_normal((p, ell)))
    products = 0
    while True:
        gx = _thin(g, x)
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


def _gram(b: np.ndarray) -> tuple[np.ndarray, int]:
    # (c.T @ c, e) for (c, e) = _rescaled(b): the one rescale-and-Gram step.
    # A scaled copy of b, if one was made, is freed on return, before any
    # solve of the Gram matrix.
    c, e = _rescaled(b)
    return c.T @ c, e


def singular_values(a) -> np.ndarray:
    """All ``min(m, n)`` singular values of *a*, non-increasing.

    Computed as square roots of the eigenvalues of the smaller Gram matrix.
    Eigenvalues below the route's resolution floor are zeroed, so exact
    rank deficiency comes out as exact zeros.
    """
    a = _as_2d(a)
    m, n = a.shape
    g, e = _gram(a if n <= m else a.T)
    return _floored_sigma(np.linalg.eigvalsh(g)[::-1], a.shape, e)


def numerical_rank(a) -> int:
    """Number of singular values above the zero floor."""
    return int(np.count_nonzero(singular_values(a)))


def _fix_signs(v: np.ndarray, u: np.ndarray) -> None:
    # Reproducible orientation: first nonzero entry of each right singular
    # vector is made non-negative; the paired left vector flips with it.
    for j in range(v.shape[1]):
        nz = np.flatnonzero(v[:, j])
        if nz.size and v[nz[0], j] < 0:
            v[:, j] = -v[:, j]
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
    after at most ``2 p / (k + 10)`` products of the ``p x p`` Gram
    matrix, fewer than the dense ``eigh`` costs, and the dense ``eigh``
    runs instead, with the same bits as a call that never tried.  On a
    planted 2000 x 500 input with k = 10 the iteration certifies in 17
    products and holds a ``p x (k + 10)`` block where the dense route
    holds all ``p x p`` eigenvectors and LAPACK's workspace.  Identical
    inputs give identical outputs on either route.
    """
    a = _as_2d(a)
    m, n = a.shape
    k = _valid_int(k, "k", 1, min(m, n))
    # the smaller Gram matrix: of a's columns when tall, of its rows when wide
    b = a if n <= m else a.T
    g, e = _gram(b)
    top = _top_eigh(g, k, a.shape)
    if top is None:
        lam, vecs = np.linalg.eigh(g)
        top = lam[::-1], vecs[:, ::-1]
    sig, vecs = _floored_sigma(top[0], a.shape, e), top[1]
    if sig[k - 1] == 0.0:
        raise RankDeficiencyError(
            f"requested k={k} singular triplets but the numerical rank is lower"
        )
    x = np.ascontiguousarray(vecs[:, :k])  # the product's rounding depends on layout
    s = sig[:k].copy()
    y = _thin(b, x) / s
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
    a = _as_2d(a)
    k = _valid_int(k, "k", 1, min(a.shape))
    return float(singular_values(a)[k - 1])


def _minus_product(a: np.ndarray, left, right, out: np.ndarray) -> np.ndarray:
    # a - left @ right, the expression of every projection residual, written
    # into out (C-ordered, the shape of a, not overlapping it): the product
    # lands in out and a is subtracted there, so no other m x n temporary
    np.matmul(left, right, out=out)
    return np.subtract(a, out, out=out)


def _require_basis_rows(z: np.ndarray, n: int) -> None:
    # the one rule that a projection basis has a row per column of its matrix
    if z.shape[0] != n:
        raise ArgumentError(f"projection basis has {z.shape[0]} rows but the matrix has {n} columns")


def residual(a, z) -> np.ndarray:
    """Residual ``a - a @ z @ z.T`` of projecting the rows of *a* onto ``span(z)``."""
    a = as_matrix(a)
    z = as_matrix(z)
    _require_basis_rows(z, a.shape[1])
    return _minus_product(a, _thin(a, z), z.T, np.empty(a.shape))


def approx_svd_z(a, k: int, seed: int) -> np.ndarray:
    """Randomized approximation of the top-k right singular subspace.

    Returns an n x k matrix ``z`` with orthonormal columns such that the
    residual ``e = a - a @ z @ z.T`` satisfies ``e @ z = 0`` exactly and,
    in expectation over seeds, ``||e||_F^2 <= (1 + 1/2) * ||a - a_k||_F^2``,
    the sketch accuracy Theorem 3 assumes.

    A two-pass range finder: ``q`` orthonormalizes ``a @ omega`` for a
    Gaussian ``omega`` of ``l = min(3k + 1, m, n)`` columns, and ``z`` is
    the top-k right singular vectors of ``q.T @ a``, from
    :func:`svd_top_k`.  The range product is taken as
    ``(omega.T @ a.T).T``, the thin-product layout of the module, and
    ``q.T @ a`` as it is written.  Boutsidis, Drineas and Magdon-Ismail (SICOMP 2014,
    the randomized fast Frobenius-norm SVD) prove that contract, for
    ``k >= 2``, with ``k + ceil(k/eps) + 1`` columns: ``3k + 1`` at
    ``eps = 1/2``, the width used.  Halko, Martinsson and Tropp (SIAM
    Review 2011, Thm 10.5) bound the range itself,
    ``E||a - q q.T a||_F^2 <= (1 + k/(p - 1)) ||a - a_k||_F^2`` with
    ``p = l - k >= 2``.  Where ``l`` is capped at ``min(m, n)``, ``q``
    almost surely spans the column space of *a* and ``z`` is exact.
    :func:`svd_top_k` raises :class:`RankDeficiencyError` when the k-th
    singular value of the ``l x n`` projection falls below its zero floor,
    and orients ``z`` as it orients every ``v``.  The sketch is taken of
    *a* rescaled by the package's one scaling rule, which leaves ``z`` as
    it is and keeps the products finite up to the top of the float64
    range.
    """
    a = _as_2d(a)
    m, n = a.shape
    k = _valid_int(k, "k", 2, min(m, n))
    rng = np.random.default_rng(_valid_int(seed, "seed", 0))
    a = _rescaled(a)[0]
    q = _orth(_thin(a, rng.standard_normal((n, min(3 * k + 1, m, n)))))
    return svd_top_k(q.T @ a, k).v
