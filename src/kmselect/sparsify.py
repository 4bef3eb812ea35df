"""Column sampling primitives.

Three ways to pick and rescale ``r`` columns of an n-column matrix:

* :func:`deterministic_sampling_one` — greedy dual-set selection keeping a
  lower barrier on the spectrum of one vector set while a static Frobenius
  budget caps a second set.
* :func:`deterministic_sampling_two` — greedy dual-set selection with a
  moving upper spectral barrier on the n x n identity, the second set of
  the paper's unsupervised algorithm.  It takes no other second set:
  the identity's accumulator is ``diag(w)``, the loop's column weights.
  The pipelines pass :func:`_identity`, which holds the identity in
  2n - 1 floats, and the sampler recognises that view from those 2n - 1
  entries in O(n) (a dense identity costs one n^2 scan).
* :func:`randomized_sampling` — i.i.d. leverage-score sampling.

Both greedy samplers are one loop, ``_dual_set_loop``, which keeps the
column weights ``w`` and returns the plan; they differ only in the upper
side it is handed, a static Frobenius charge or the identity's moving
barrier.  Both sides score candidates with one closed-form barrier gain,
``_gains`` (Batson-Spielman-Srivastava; Boutsidis-Drineas-Magdon-Ismail,
Lemmas 10-11).  Each step takes the first admissible column, so the loop
scores the lower side in blocks of columns, in index order, and stops at
the first block that holds one.  All three return a :class:`SamplingPlan`,
the compact form of a sampling matrix / rescaling matrix pair: applying
the plan to ``a`` realizes ``a @ omega @ s``.

A plan keeps 1-based indices and weights in tuples; the kernels work on
0-based index arrays.  ``_plan`` is the one conversion into a plan, from
0-based picks and their weights, and ``_columns`` the one conversion back,
to a 0-based index array and a weight array.  ``_merged`` applies a plan
with its repeated picks merged into one column each, the matrix both
clustering backends cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ContractViolationError, NumericalSearchError
from .linalg import _as_2d, _scale_exponent, _valid_int, _window, as_matrix

ORTHO_TOL = 1e-8
# rows of b squared at a time for the sampler-one charges
_CHARGE_ROWS = 64
# candidate columns scored on the lower side at a time
_SCAN_COLUMNS = 256
# Barrier crossings smaller than this (relative to the barrier magnitude)
# are attributed to roundoff and tolerated.
BARRIER_SLACK = 1e-9


@dataclass(frozen=True)
class SamplingPlan:
    """An ordered column selection with positive rescaling weights.

    ``indices`` are 1-based positions into the ``source_dim`` columns of the
    matrix the plan will be applied to; duplicates are allowed.  Column ``j``
    of the reduced matrix is ``weights[j]`` times the selected source column.
    The dimensions and indices follow the one integer rule, and the weights
    are Python or numpy integers or floats, not bools, finite and positive:
    anything else raises :class:`ArgumentError`, never a truncation or a
    conversion.
    """

    source_dim: int
    target_dim: int
    indices: tuple
    weights: tuple

    def __post_init__(self):
        _valid_int(self.source_dim, "source_dim", 1)
        _valid_int(self.target_dim, "target_dim", 1)
        if len(self.indices) != self.target_dim or len(self.weights) != self.target_dim:
            raise ArgumentError("indices and weights must both have target_dim entries")
        # one pass over the picks' types and their extremes; only a plan that
        # fails it is checked pick by pick, for the first bad pick's message
        if not (all(t is not bool and issubclass(t, (int, np.integer))
                    for t in set(map(type, self.indices)))
                and 1 <= min(self.indices) and max(self.indices) <= self.source_dim):
            for i in self.indices:
                _valid_int(i, "plan index", 1, self.source_dim)
        # bool subclasses int, so it is refused by name; NaN fails the range
        if not (all(t is not bool and issubclass(t, (int, float, np.integer, np.floating))
                    for t in set(map(type, self.weights)))
                and all(0.0 < w < math.inf for w in self.weights)):
            raise ArgumentError("plan weights must be finite and positive")

    def to_dict(self) -> dict:
        return {
            "source_dim": int(self.source_dim),
            "target_dim": int(self.target_dim),
            "indices": [int(i) for i in self.indices],
            "weights": [float(w) for w in self.weights],
        }


def _plan(source_dim: int, picked, weights) -> SamplingPlan:
    # the plan that takes the 0-based columns *picked* of a source_dim-column
    # matrix with *weights*: the one conversion into a plan's 1-based tuples
    return SamplingPlan(source_dim, len(picked), tuple((np.asarray(picked) + 1).tolist()),
                        tuple(np.asarray(weights, dtype=float).tolist()))


def _columns(plan: SamplingPlan) -> tuple[np.ndarray, np.ndarray]:
    # the plan's 0-based column indices and its weights as arrays: the one
    # conversion back from its tuples
    return np.asarray(plan.indices, dtype=int) - 1, np.asarray(plan.weights, dtype=float)


def _gather(a: np.ndarray, idx: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # the columns idx of a times weights; a product beyond the float64 range
    # raises ContractViolationError
    try:
        with np.errstate(over="raise"):
            return a[:, idx] * weights
    except FloatingPointError:
        raise ContractViolationError("the sampled matrix exceeds the float64 range") from None


def _merged(a: np.ndarray, plan: SamplingPlan) -> np.ndarray:
    # apply_plan(a, plan) with the picks of each source column merged into
    # one column, weighted by the root-sum-square of their weights: every
    # pairwise squared distance of the rows stays what it was, up to
    # rounding.  The columns keep their first-occurrence order, and hypot
    # neither squares a weight nor alters a lone one, so a plan without
    # repeats gives apply_plan's matrix bit for bit
    idx, weights = _columns(plan)
    groups: dict[int, list[float]] = {}
    for i, w in zip(idx.tolist(), weights.tolist()):
        groups.setdefault(i, []).append(w)
    return _gather(a, np.fromiter(groups, dtype=int, count=len(groups)),
                   np.array([math.hypot(*ws) for ws in groups.values()]))


def identity_plan(n: int) -> SamplingPlan:
    """The plan that keeps all *n* columns with unit weights.

    *n* follows the one integer rule and must be at least 1, else
    :class:`ArgumentError`.
    """
    return _plan(_valid_int(n, "n", 1), range(n), (1.0,) * n)


def _require_source_dim(plan: SamplingPlan, n: int) -> None:
    # the one rule that a plan is drawn from its matrix's n columns
    if plan.source_dim != n:
        raise ArgumentError(f"plan covers {plan.source_dim} columns but the matrix has {n}")


def apply_plan(a, plan: SamplingPlan) -> np.ndarray:
    """Gather and rescale columns of *a* according to *plan*.

    A weighted column beyond the float64 range raises
    :class:`ContractViolationError`.
    """
    a = as_matrix(a)
    _require_source_dim(plan, a.shape[1])
    return _gather(a, *_columns(plan))


def leverage_scores(v_rows) -> np.ndarray:
    """Sampling probabilities ``p_i = ||v_i||^2 / k`` for the columns of *v_rows*.

    The probabilities sum to one because the rows are orthonormal; the
    returned vector is renormalized so the sum is exact despite roundoff.
    """
    v_rows = as_matrix(v_rows)
    _require_orthonormal_rows(v_rows, "v_rows")
    p = (v_rows * v_rows).sum(axis=0) / v_rows.shape[0]
    return p / p.sum()


# ---------------------------------------------------------------------------
# greedy dual-set loop
# ---------------------------------------------------------------------------


def _require_orthonormal_rows(mat: np.ndarray, what: str) -> None:
    k = mat.shape[0]
    gram = mat @ mat.T
    err = float(np.abs(gram - np.eye(k)).max())
    if err > ORTHO_TOL:
        raise ArgumentError(f"{what} must have orthonormal rows (deviation {err:.2e})")


def _gains(lam: np.ndarray, g2, barrier: float, shifted: float, tau: int) -> np.ndarray:
    """Closed-form barrier gain of every candidate column.

    *lam* is the spectrum of the accumulator ``M`` and ``g2[:, j]`` holds
    the squared coordinates of candidate ``j`` in its eigenbasis.  With
    ``d = lam - shifted`` and the potential difference
    ``dphi = sum(1/d) - sum(1/(lam - barrier))``, candidate ``g`` scores

        g.T (M - shifted I)^{-2} g / dphi  -  g.T (M - shifted I)^{-1} g

    as the barrier moves from *barrier* to *shifted*.  On the lower side
    the spectrum lies above both and the score caps ``1/t`` from above; on
    the upper side it lies below both and the score caps ``1/t`` from
    below.  ``g2=None`` stands for the identity: the candidates are the
    eigenvectors themselves.  The upper side takes that form: the
    identity's accumulator is ``diag(w)``, the loop's column weights, so
    *lam* is ``w``.  The lower side passes its dense ``g2``.
    """
    d = lam - shifted
    inv = 1.0 / d
    dphi = float(np.sum(inv) - np.sum(1.0 / (lam - barrier)))
    if dphi <= 0.0:
        if d[0] > 0.0:
            side, diagnostics = "lower", {"barrier": barrier, "lambda_min": float(lam.min())}
        else:
            side, diagnostics = "upper", {"barrier": barrier, "lambda_max": float(lam.max())}
        raise NumericalSearchError(
            f"{side} potential difference vanished", step=tau, diagnostics=diagnostics
        )
    if g2 is None:
        return inv * inv / dphi - inv
    return (g2 / np.square(d)[:, None]).sum(axis=0) / dphi - (g2 / d[:, None]).sum(axis=0)


def _identity_upper(n: int, k: int, r: int):
    """The upper side for the n x n identity as the second set.

    Its accumulator is ``diag(w)``, the loop's column weights, so its
    spectrum is *w* itself, the candidates are its eigenvectors, and the
    scan costs O(n) per iteration.  The barrier starts at
    ``delta * sqrt(n r)`` and moves by
    ``delta = (1 + sqrt(n/r)) / (1 - sqrt(k/r))`` per step.
    """
    delta = (1.0 + math.sqrt(n / r)) / (1.0 - math.sqrt(k / r))
    offset = math.sqrt(n * r)

    def upper(tau: int, w: np.ndarray) -> np.ndarray:
        u = delta * (tau + offset)
        _check_upper_barrier(float(w.max()), u, tau)
        return _gains(w, None, u, u + delta, tau)

    return upper


def _check_lower_barrier(lam_min: float, barrier: float, tau: int) -> None:
    if lam_min <= barrier - BARRIER_SLACK * max(1.0, abs(barrier)):
        raise NumericalSearchError(
            "lower barrier crossed", step=tau,
            diagnostics={"barrier": barrier, "lambda_min": lam_min},
        )


def _check_upper_barrier(lam_max: float, barrier: float, tau: int) -> None:
    # strict: the upper potential is undefined once the barrier is reached
    if lam_max >= barrier:
        raise NumericalSearchError(
            "upper barrier crossed", step=tau,
            diagnostics={"barrier": barrier, "lambda_max": lam_max},
        )


def _greedy_basis(v_rows, r: int) -> tuple[np.ndarray, int, int]:
    # the argument checks both greedy samplers open with: *v_rows* as a
    # finite k x n matrix and the k < r window, before the second set is
    # read; their orthonormality test comes last, in _dual_set_loop
    v_rows = _as_2d(v_rows)
    k, n = v_rows.shape
    _window(k, _valid_int(r, "r"))
    return as_matrix(v_rows), k, n


def _dual_set_loop(v_rows: np.ndarray, r: int, upper) -> SamplingPlan:
    """Run r greedy steps and return the plan of the columns they pick.

    *v_rows* must have orthonormal rows, else :class:`ArgumentError`.  The
    second set's accumulator is ``Q diag(w) Q.T``, where ``w[i]`` sums
    the steps ``t`` taken on column ``i``; ``upper(tau, w)`` scores every
    column on the upper side from those weights, in O(n).

    Each step takes the first admissible column, the one the barrier
    argument needs.  The lower side, O(k^2) per column, is scored in
    blocks of ``_SCAN_COLUMNS`` columns in index order, and the scan stops
    at the first block that holds an admissible column; the plan is the
    one a scan of every column picks, bit for bit.  When no block holds
    one, the error's ``max_gap`` is the maximum over all of them.
    """
    _require_orthonormal_rows(v_rows, "v_rows")
    k, n = v_rows.shape
    sqrt_rk = math.sqrt(r * k)
    accum = np.zeros((k, k))
    w = np.zeros(n)
    picked = np.empty(r, dtype=int)
    t_vals = np.empty(r)
    for tau in range(r):
        ell = tau - sqrt_rk
        ellp = ell + 1.0  # lower shift delta_L = 1
        lam, vecs = np.linalg.eigh(accum)
        _check_lower_barrier(float(lam[0]), ell, tau)
        if lam[0] <= ellp:
            raise NumericalSearchError(
                "shifted lower barrier reached the spectrum", step=tau,
                diagnostics={"barrier": ell, "lambda_min": float(lam[0])},
            )
        upper_vals, gaps = None, []
        # a block is one column wide only where n = 1: numpy sums the gains
        # of a one-column block in another order than those of a wider one
        for start in range(0, max(n - 1, 1), _SCAN_COLUMNS):
            stop = start + _SCAN_COLUMNS
            if stop < n - 1:
                g = vecs.T @ v_rows[:, start:stop]
            else:
                # the last block is cut from the whole product: BLAS rounds
                # a product's last few columns in an edge kernel, so those
                # of the block alone can differ from those of the whole
                stop, g = n, (vecs.T @ v_rows)[:, start:]
            lower_vals = _gains(lam, np.square(g), ell, ellp, tau)
            if upper_vals is None:  # after the lower side's potential check
                upper_vals = upper(tau, w)
            up = upper_vals[start:stop]
            hits = np.flatnonzero((up <= lower_vals) & (up + lower_vals > 0.0))
            if hits.size:
                break
            gaps.append((lower_vals - up).max())
        else:
            raise NumericalSearchError(
                "no admissible column", step=tau,
                diagnostics={"barrier": ell, "lambda_min": float(lam[0]),
                             "max_gap": float(np.max(gaps))},
            )
        j = int(hits[0])  # smallest qualifying index, for determinism
        i = start + j
        t = 2.0 / (up[j] + lower_vals[j])  # midpoint of [1/L, 1/U]
        accum += t * np.outer(v_rows[:, i], v_rows[:, i])
        w[i] += t
        picked[tau] = i
        t_vals[tau] = t
    return _plan(n, picked, np.sqrt(t_vals * ((1.0 - math.sqrt(k / r)) / r)))


def _identity(n: int) -> np.ndarray:
    """The n x n identity as a read-only view over 2n - 1 floats.

    Row i is the window of a unit spike that puts its one in column i, so
    the view equals ``np.eye(n)`` entry for entry, and its ``nbytes`` is
    the identity's logical size, while it holds O(n) memory.
    """
    spike = np.zeros(2 * n - 1)
    spike[n - 1] = 1.0
    return np.lib.stride_tricks.sliding_window_view(spike, n)[::-1]


def _is_identity(q: np.ndarray, n: int) -> bool:
    # Whether q equals the n x n identity, read through the entries q stores.
    # With opposite strides, the layout of _identity, q[i, j] lies at offset
    # (j - i) * strides[1]: q is Toeplitz, and its first column and first
    # row hold all 2n - 1 entries it stores.  Other layouts take one n^2
    # scan.  NaN counts as a nonzero, so the identity (n nonzeros, all of
    # them unit diagonal entries) is finite by construction and skips
    # as_matrix's read of its n x n extremes.
    if q.shape != (n, n):
        return False
    if q.strides[0] == -q.strides[1]:
        return (bool(q[0, 0] == 1.0) and np.count_nonzero(q[:, 0]) == 1
                and np.count_nonzero(q[0]) == 1)
    return np.count_nonzero(q) == n and bool(np.all(q.diagonal() == 1.0))


def _row_blocks(c: np.ndarray):
    # the rows of c in order, _CHARGE_ROWS at a time
    return (c[start:start + _CHARGE_ROWS] for start in range(0, c.shape[0], _CHARGE_ROWS))


def _column_sq_norms(blocks, n: int, e: int) -> np.ndarray:
    # the column sums of np.square(c * 2**-e) in O(n) scratch, c the
    # n-column matrix whose rows *blocks* yields in order, at most
    # _CHARGE_ROWS at a time: each block is scaled and squared into a
    # C-ordered buffer whose first row carries the running sum, so every
    # layout gives the bits of a C-ordered copy.  numpy adds the rows of a
    # C-ordered matrix of two or more columns one after another, so for
    # _row_blocks(c) these are the bits of np.square(c * 2**-e).sum(axis=0)
    buf = np.zeros((_CHARGE_ROWS + 1, n))
    for block in blocks:
        rows = buf[1:1 + block.shape[0]]
        np.square(np.ldexp(block, -e, out=rows) if e else block, out=rows)
        buf[0] = np.add.reduce(buf[:1 + rows.shape[0]], axis=0)
    return buf[0].copy()


def deterministic_sampling_one(v_rows, b, r: int) -> SamplingPlan:
    """Deterministic dual-set selection with a Frobenius cap on *b*.

    *v_rows* is k x n with orthonormal rows and *b* is any matrix with the
    same number of columns.  The returned plan satisfies

        sigma_k(v_rows applied)  >=  1 - sqrt(k/r)
        ||b applied||_F          <=  ||b||_F

    where "applied" means gathering and rescaling columns with the plan.
    Only the squared column norms of *b* reach the sampler; they are summed
    over blocks of rows, so *b* costs O(n) scratch in any layout and at any
    scale.  The output is a pure function of the inputs.
    """
    v_rows, k, n = _greedy_basis(v_rows, r)
    b = _as_2d(b)
    if b.shape[1] != n:
        raise ArgumentError(
            f"second set has {b.shape[1]} columns, expected {n}"
        )
    # the charges are ratios of squares: the one scaling rule, which also
    # checks that b is finite, keeps them finite at any scale, and exact
    # wherever the squares stay normal
    col_sq = _column_sq_norms(_row_blocks(b), n, _scale_exponent(b))
    fro2 = float(col_sq.sum())
    # charges ||b_i||^2 / delta_B, delta_B = ||B||_F^2 / (1 - sqrt(k/r)); zero for b = 0
    charges = col_sq * ((1.0 - math.sqrt(k / r)) / fro2) if fro2 > 0.0 else col_sq
    return _dual_set_loop(v_rows, r, lambda tau, w: charges)


def deterministic_sampling_two(v_rows, q, r: int) -> SamplingPlan:
    """Deterministic dual-set selection with a spectral cap on the identity.

    *v_rows* is k x n with orthonormal rows and *q* must be the n x n
    identity, the second set of the paper's decomposition of the identity.
    The returned plan satisfies

        sigma_k(v_rows applied)  >=  1 - sqrt(k/r)
        ||identity applied||_2   <=  1 + sqrt(n/r)

    The identity is recognised from the entries *q* stores, with no n x n
    temporary: the :func:`_identity` view stores 2n - 1, so its check is
    O(n), while a dense ``np.eye(n)`` costs one n^2 scan.  Any other *q*
    raises :class:`ArgumentError`, or :class:`ContractViolationError`
    when it is not finite.  The identity's accumulator is ``diag(w)``,
    the loop's column weights, so the candidate scan runs in O(n) per
    iteration.  The output is a pure function of the inputs.
    """
    v_rows, k, n = _greedy_basis(v_rows, r)
    q = np.asarray(q, dtype=float)
    if not _is_identity(q, n):
        as_matrix(q)
        raise ArgumentError("q must be the n x n identity")
    return _dual_set_loop(v_rows, r, _identity_upper(n, k, r))


def randomized_sampling(v_rows, r: int, seed: int) -> SamplingPlan:
    """Leverage-score sampling: r i.i.d. draws with replacement.

    Column *i* is drawn with probability ``p_i = ||v_i||^2 / k`` and enters
    the plan with weight ``1 / sqrt(p_i * r)``, which makes the squared
    Frobenius norm of any rescaled sample an unbiased estimate of the
    source's.  Fully reproducible for a fixed seed.
    """
    v_rows = _as_2d(v_rows)
    r = _valid_int(r, "r", 1)
    rng = np.random.default_rng(_valid_int(seed, "seed", 0))
    p = leverage_scores(v_rows)
    draws = rng.choice(p.size, size=r, replace=True, p=p)
    return _plan(p.size, draws, 1.0 / np.sqrt(p[draws] * r))
