"""Column sampling primitives.

Three ways to pick and rescale ``r`` columns of an n-column matrix:

* :func:`deterministic_sampling_one` — greedy dual-set selection keeping a
  lower barrier on the spectrum of one vector set while a static Frobenius
  budget caps a second set.
* :func:`deterministic_sampling_two` — greedy dual-set selection with a
  moving upper spectral barrier on the second set.  An exact identity
  second set is recognised from its entries, with no n x n product, and
  runs on a diagonal accumulator; the pipelines pass :func:`_identity`,
  which holds it in 2n - 1 floats.
* :func:`randomized_sampling` — i.i.d. leverage-score sampling.

Both greedy samplers score candidates with one closed-form barrier gain,
``_gains`` (Batson-Spielman-Srivastava; Boutsidis-Drineas-Magdon-Ismail,
Lemmas 10-11).  All three return a :class:`SamplingPlan`, the compact form
of a sampling matrix / rescaling matrix pair: applying the plan to ``a``
realizes ``a @ omega @ s``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NumericalSearchError
from .linalg import _as_2d, _scale_exponent, as_matrix

ORTHO_TOL = 1e-8
# rows of b squared at a time for the sampler-one charges
_CHARGE_ROWS = 64
# Barrier crossings smaller than this (relative to the barrier magnitude)
# are attributed to roundoff and tolerated.
BARRIER_SLACK = 1e-9


@dataclass(frozen=True)
class SamplingPlan:
    """An ordered column selection with positive rescaling weights.

    ``indices`` are 1-based positions into the ``source_dim`` columns of the
    matrix the plan will be applied to; duplicates are allowed.  Column ``j``
    of the reduced matrix is ``weights[j]`` times the selected source column.
    """

    source_dim: int
    target_dim: int
    indices: tuple
    weights: tuple

    def __post_init__(self):
        if self.source_dim < 1 or self.target_dim < 1:
            raise ArgumentError("plan dimensions must be positive")
        if len(self.indices) != self.target_dim or len(self.weights) != self.target_dim:
            raise ArgumentError("indices and weights must both have target_dim entries")
        if any(not 1 <= int(i) <= self.source_dim for i in self.indices):
            raise ArgumentError("plan indices must lie in [1, source_dim]")
        if any(not w > 0 for w in self.weights):
            raise ArgumentError("plan weights must be positive")

    def to_dict(self) -> dict:
        return {
            "source_dim": self.source_dim,
            "target_dim": self.target_dim,
            "indices": [int(i) for i in self.indices],
            "weights": [float(w) for w in self.weights],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SamplingPlan":
        return cls(
            source_dim=int(d["source_dim"]),
            target_dim=int(d["target_dim"]),
            indices=tuple(int(i) for i in d["indices"]),
            weights=tuple(float(w) for w in d["weights"]),
        )


def identity_plan(n: int) -> SamplingPlan:
    """The plan that keeps all *n* columns with unit weights."""
    return SamplingPlan(n, n, tuple(range(1, n + 1)), (1.0,) * n)


def apply_plan(a, plan: SamplingPlan) -> np.ndarray:
    """Gather and rescale columns of *a* according to *plan*."""
    a = as_matrix(a)
    if plan.source_dim != a.shape[1]:
        raise ArgumentError(
            f"plan covers {plan.source_dim} columns but the matrix has {a.shape[1]}"
        )
    idx = np.asarray(plan.indices, dtype=int) - 1
    return a[:, idx] * np.asarray(plan.weights, dtype=float)


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


def upper_shift(ell2: int, k: int, r: int) -> float:
    """Additive step of the upper spectral barrier for an ell2-dim second set."""
    return (1.0 + math.sqrt(ell2 / r)) / (1.0 - math.sqrt(k / r))


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
    eigenvectors themselves.
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


class _FrobeniusUpper:
    """Static per-column charges ``||b_i||^2 / delta_B``; no barrier state."""

    def __init__(self, charges: np.ndarray):
        self._charges = charges

    def values(self, tau: int) -> np.ndarray:
        return self._charges

    def add(self, index: int, t: float) -> None:
        pass


class _SpectralUpper:
    """Upper-barrier bookkeeping for an orthonormal-row second set *q*.

    ``q=None`` stands for the n x n identity.  Rank-one updates with
    standard basis vectors keep its accumulator diagonal, so the spectrum
    is the diagonal itself and the candidate scan costs O(n) per iteration
    instead of an eigendecomposition and an ell2 x n product.
    """

    def __init__(self, q, n: int, k: int, r: int):
        self.q = q
        ell2 = n if q is None else q.shape[0]
        self.accum = np.zeros(n) if q is None else np.zeros((ell2, ell2))
        self.delta = upper_shift(ell2, k, r)
        self._offset = math.sqrt(ell2 * r)

    def values(self, tau: int) -> np.ndarray:
        u = self.delta * (tau + self._offset)
        if self.q is None:
            lam, g2 = self.accum, None
        else:
            lam, vecs = np.linalg.eigh(self.accum)
            g2 = np.square(vecs.T @ self.q)
        _check_upper_barrier(float(lam.max()), u, tau)
        return _gains(lam, g2, u, u + self.delta, tau)

    def add(self, index: int, t: float) -> None:
        if self.q is None:
            self.accum[index] += t
        else:
            qi = self.q[:, index]
            self.accum += t * np.outer(qi, qi)


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


def _dual_set_loop(v_rows: np.ndarray, r: int, upper) -> tuple[np.ndarray, np.ndarray]:
    """Run r greedy steps; return selected 0-based indices and update weights."""
    k, _ = v_rows.shape
    sqrt_rk = math.sqrt(r * k)
    accum = np.zeros((k, k))
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
        lower_vals = _gains(lam, np.square(vecs.T @ v_rows), ell, ellp, tau)
        upper_vals = upper.values(tau)
        admissible = (upper_vals <= lower_vals) & (upper_vals + lower_vals > 0.0)
        hits = np.flatnonzero(admissible)
        if hits.size == 0:
            gap = float((lower_vals - upper_vals).max())
            raise NumericalSearchError(
                "no admissible column", step=tau,
                diagnostics={"barrier": ell, "lambda_min": float(lam[0]), "max_gap": gap},
            )
        i = int(hits[0])  # smallest qualifying index, for determinism
        t = 2.0 / (upper_vals[i] + lower_vals[i])  # midpoint of [1/L, 1/U]
        accum += t * np.outer(v_rows[:, i], v_rows[:, i])
        upper.add(i, t)
        picked[tau] = i
        t_vals[tau] = t
    return picked, t_vals


def _finish_plan(n: int, r: int, k: int, picked: np.ndarray, t_vals: np.ndarray) -> SamplingPlan:
    scale = (1.0 - math.sqrt(k / r)) / r
    weights = np.sqrt(t_vals * scale)
    return SamplingPlan(
        source_dim=n,
        target_dim=r,
        indices=tuple(int(i) + 1 for i in picked),
        weights=tuple(float(w) for w in weights),
    )


def _identity(n: int) -> np.ndarray:
    """The n x n identity as a read-only view over 2n - 1 floats.

    Row i is the window of a unit spike that puts its one in column i, so
    the view equals ``np.eye(n)`` entry for entry, and its ``nbytes`` is
    the identity's logical size, while it holds O(n) memory.
    """
    spike = np.zeros(2 * n - 1)
    spike[n - 1] = 1.0
    return np.lib.stride_tricks.sliding_window_view(spike, n)[::-1]


def _column_sq_norms(c: np.ndarray, e: int) -> np.ndarray:
    # np.square(c * 2**-e).sum(axis=0), bit for bit, in O(n) scratch.  numpy
    # adds the rows of a C-ordered matrix of two or more columns one after
    # another, so blocks of rows are scaled and squared in a buffer whose
    # first row carries the running sum.  It sums a single column, or the
    # columns of other layouts, pairwise: those take the whole-matrix
    # expression.
    m, n = c.shape
    if n == 1 or not c.flags.c_contiguous:
        return np.square(np.ldexp(c, -e) if e else c).sum(axis=0)
    buf = np.zeros((_CHARGE_ROWS + 1, n))
    for start in range(0, m, _CHARGE_ROWS):
        block = c[start:start + _CHARGE_ROWS]
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
    over blocks of rows, so a C-ordered *b* costs O(n) scratch at any
    scale.  The output is a pure function of the inputs.
    """
    v_rows = as_matrix(v_rows)
    b = _as_2d(b)
    # the charges are ratios of squares: the one scaling rule, which also
    # checks that b is finite, keeps them finite at any scale, and exact
    # wherever the squares stay normal
    col_sq = _column_sq_norms(b, _scale_exponent(b))
    k, n = v_rows.shape
    if b.shape[1] != n:
        raise ArgumentError(
            f"second set has {b.shape[1]} columns, expected {n}"
        )
    _require_orthonormal_rows(v_rows, "v_rows")
    if r <= k:
        raise ArgumentError(f"need r > k, got r={r}, k={k}")
    fro2 = float(col_sq.sum())
    # charges ||b_i||^2 / delta_B, delta_B = ||B||_F^2 / (1 - sqrt(k/r)); zero for b = 0
    charges = col_sq * ((1.0 - math.sqrt(k / r)) / fro2) if fro2 > 0.0 else col_sq
    picked, t_vals = _dual_set_loop(v_rows, r, _FrobeniusUpper(charges))
    return _finish_plan(n, r, k, picked, t_vals)


def deterministic_sampling_two(v_rows, q, r: int) -> SamplingPlan:
    """Deterministic dual-set selection with a spectral cap on *q*.

    *v_rows* is k x n with orthonormal rows; *q* is ell2 x n, also with
    orthonormal rows.  The returned plan satisfies

        sigma_k(v_rows applied)  >=  1 - sqrt(k/r)
        ||q applied||_2          <=  1 + sqrt(ell2/r)

    When *q* is exactly the n x n identity (square, n nonzeros, unit
    diagonal) it is recognised without any n x n temporary, skips the
    finiteness and orthonormality checks it passes by construction, and
    the accumulator stays diagonal, so the candidate scan runs in O(n) per
    iteration.  The output is a pure function of the inputs.
    """
    v_rows = as_matrix(v_rows)
    k, n = v_rows.shape
    q = np.asarray(q, dtype=float)
    # n nonzeros, all of them unit diagonal entries: finite by construction,
    # so the identity skips as_matrix's read of its n x n extremes
    identity = q.shape == (n, n) and np.count_nonzero(q) == n and np.all(q.diagonal() == 1.0)
    if not identity:
        q = as_matrix(q)
        if q.shape[1] != n:
            raise ArgumentError(f"second set has {q.shape[1]} columns, expected {n}")
    _require_orthonormal_rows(v_rows, "v_rows")
    if not identity:
        _require_orthonormal_rows(q, "q")
    if r <= k:
        raise ArgumentError(f"need r > k, got r={r}, k={k}")
    picked, t_vals = _dual_set_loop(v_rows, r, _SpectralUpper(None if identity else q, n, k, r))
    return _finish_plan(n, r, k, picked, t_vals)


def randomized_sampling(v_rows, r: int, seed: int) -> SamplingPlan:
    """Leverage-score sampling: r i.i.d. draws with replacement.

    Column *i* is drawn with probability ``p_i = ||v_i||^2 / k`` and enters
    the plan with weight ``1 / sqrt(p_i * r)``, which makes the squared
    Frobenius norm of any rescaled sample an unbiased estimate of the
    source's.  Fully reproducible for a fixed seed.
    """
    v_rows = as_matrix(v_rows)
    if r < 1:
        raise ArgumentError(f"need r >= 1, got {r}")
    p = leverage_scores(v_rows)
    rng = np.random.default_rng(seed)
    draws = rng.choice(p.size, size=r, replace=True, p=p)
    weights = 1.0 / np.sqrt(p[draws] * r)
    return SamplingPlan(
        source_dim=int(p.size),
        target_dim=r,
        indices=tuple(int(i) + 1 for i in draws),
        weights=tuple(float(w) for w in weights),
    )
