"""End-to-end feature selection pipelines.

Each pipeline picks ``r`` rescaled columns of the data matrix so that any
gamma-approximate clustering of the reduced matrix carries a provable
quality guarantee back in the original space:

* :func:`supervised_select` — deterministic; guards a given input
  clustering (factor :func:`~kmselect.bounds.theorem1_factor`).
* :func:`unsupervised_select` — deterministic; compares against the
  optimal clustering (factor :func:`~kmselect.bounds.theorem2_factor`).
* :func:`randomized_select` — two-stage randomized/deterministic hybrid
  (factor :func:`~kmselect.bounds.theorem3_factor`, probability 0.4).

:func:`select_then_cluster` runs one of them by name and clusters the
result with a named backend.  ``METHODS`` and ``BACKENDS`` hold the
names, and this module is the one place a name is mapped to its
pipeline, clustering backend and guarantee; the CLI and the verify
suites go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import _leverage_width, bound_report, theorem1_factor, theorem2_factor, theorem3_factor
from .errors import ArgumentError, RankDeficiencyError, RankFailureError
from .kmeans import (
    Clustering,
    _require_covers,
    _require_enumerable,
    brute_force_optimal,
    indicator,
    lloyd_best,
    objective,
)
from .linalg import (
    _as_2d,
    _exponent_of,
    _minus_product,
    _thin,
    _valid_int,
    _window,
    approx_svd_z,
    svd_top_k,
)
from .sparsify import (
    _CHARGE_ROWS,
    SamplingPlan,
    _column_sq_norms,
    _columns,
    _gather,
    _identity,
    _merged,
    _plan,
    _row_blocks,
    apply_plan,
    deterministic_sampling_one,
    deterministic_sampling_two,
    randomized_sampling,
)

STAGE1_RETRIES = 3


@dataclass(frozen=True, eq=False)
class FeatureSelection:
    """Result of one pipeline run.

    ``reduced`` is exactly ``apply_plan(a, plan)``, repeated picks
    included, also where :func:`select_then_cluster` clusters the
    distinct columns alone.  ``seed`` is None for the deterministic methods
    and ``stage1_size`` is the width of the first sampling stage
    (randomized method only).  ``basis`` is the orthonormal
    n x k matrix the selection was built around (exact or sketched right
    singular subspace), kept so the structural inequality behind the
    guarantee can be re-checked on the output; it is not serialized.
    """

    plan: SamplingPlan
    reduced: np.ndarray
    method: str
    k: int
    r: int
    seed: int | None = None
    stage1_size: int | None = None
    basis: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "k": self.k,
            "r": self.r,
            "seed": self.seed,
            "stage1_size": self.stage1_size,
            "plan": self.plan.to_dict(),
        }


def _selection(a: np.ndarray, plan: SamplingPlan, method: str, k: int, r: int,
               basis: np.ndarray, seed: int | None = None,
               stage1_size: int | None = None) -> FeatureSelection:
    # the one builder of a pipeline's result.  It gathers ``reduced``
    # without reading *a*'s extremes again: each pipeline's first public
    # call, svd_top_k or approx_svd_z, has checked that *a* is finite
    return FeatureSelection(plan=plan, reduced=_gather(a, *_columns(plan)), method=method,
                            k=k, r=r, seed=seed, stage1_size=stage1_size, basis=basis)


def _residual_sq_norms(a: np.ndarray, v: np.ndarray, given: Clustering,
                       sigma1: float) -> np.ndarray:
    # the column sums of squares of [a - a v v.T ; a - x x.T a], x the
    # indicator of *given*, times 4**-e for e the scaling rule's exponent
    # of sigma1 = ||a||_2, svd_top_k's s[0]: the second set of supervised
    # selection, each block of _CHARGE_ROWS rows formed once, in one
    # buffer, so no m x n array is held.  Each row of a - a v v.T is a row
    # of a projected, and each column of a - x x.T a a column of a
    # projected, so no entry exceeds sigma1 and no column sum 2 sigma1**2:
    # e, fixed before any block is formed, keeps every sum finite, and
    # powers of two scale exactly, so the charges are those of the
    # residual's own exponent wherever no square is subnormal.  A
    # non-finite entry reaches the sums, where the sampler's check raises.
    # Each half's m x k factor is made when its blocks start and freed
    # when they end
    buf = np.empty((_CHARGE_ROWS, a.shape[1]))

    def minus(left, right):
        for rows, lefts in zip(_row_blocks(a), _row_blocks(left)):
            yield _minus_product(rows, lefts, right, buf[:rows.shape[0]])

    def blocks():
        yield from minus(_thin(a, v), v.T)
        x = indicator(given)
        yield from minus(x, x.T @ a)

    return _column_sq_norms(blocks(), a.shape[1], _exponent_of(sigma1))


def supervised_select(a, given: Clustering, k: int, r: int) -> FeatureSelection:
    """Deterministically select r columns that preserve a given clustering.

    Stacks the low-rank residual of *a* on top of the clustering residual
    of *given* and runs the Frobenius-capped dual-set sampler against the
    top-k right singular subspace.  Identical inputs give an identical
    plan.  That sampler reads the stack only through its squared column
    norms, so they are summed over blocks of rows and handed to it as one
    row, whose norms, and so whose guarantee, are the stack's.  Beyond the
    top-k solve, the call holds two m x k factors, one k x n product and
    blocks of rows: O((m + n) k) memory, and no m x n array.
    """
    a = _as_2d(a)
    m, n = a.shape
    k, r = _valid_int(k, "k"), _valid_int(r, "r")
    _window(k, r, n)
    _require_covers(given, m)
    if given.num_clusters != k:
        raise ArgumentError(
            f"clustering has {given.num_clusters} clusters, expected k={k}"
        )
    top = svd_top_k(a, k)
    norms = np.sqrt(_residual_sq_norms(a, top.v, given, float(top.s[0])))[None, :]
    plan = deterministic_sampling_one(top.v.T, norms, r)
    return _selection(a, plan, method="supervised", k=k, r=r, basis=top.v)


def unsupervised_select(a, k: int, r: int) -> FeatureSelection:
    """Deterministically select r columns without any label information.

    Runs the spectrally-capped dual-set sampler against the top-k right
    singular subspace with the n x n identity as the second set, the one
    second set that sampler takes, held in O(n) memory.  Identical inputs
    give an identical plan.
    """
    a = _as_2d(a)
    _, n = a.shape
    k, r = _valid_int(k, "k"), _valid_int(r, "r")
    _window(k, r, n)
    top = svd_top_k(a, k)
    plan = deterministic_sampling_two(top.v.T, _identity(n), r)
    return _selection(a, plan, method="unsupervised", k=k, r=r, basis=top.v)


def _child_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence(seed).generate_state(index + 1)[index])


def _compose(stage1: SamplingPlan, stage2: SamplingPlan) -> SamplingPlan:
    # stage 2's picks routed through stage 1's, with the weights multiplied
    idx1, w1 = _columns(stage1)
    j, w2 = _columns(stage2)
    return _plan(stage1.source_dim, idx1[j], w1[j] * w2)


def stage1_width(k: int, r: int) -> int:
    """First-stage sample count ``max(r, ceil(16 k ln(20 k)))``."""
    return max(_valid_int(r, "r"), math.ceil(_leverage_width(_valid_int(k, "k"))))


def randomized_select(a, k: int, r: int, seed: int) -> FeatureSelection:
    """Two-stage randomized selection of r columns.

    Sketches the top-k right singular subspace, leverage-samples a first
    stage of ``max(r, ceil(16 k ln(20 k)))`` columns, then deterministically
    narrows to r with the spectrally-capped sampler.  The composed plan
    multiplies the stage weights and routes stage-2 picks through stage-1
    indices; a first stage as wide as the matrix would keep every column,
    so the second stage then samples the sketch itself and
    ``stage1_size`` is ``n``.  Reproducible for a fixed seed.  The
    first-stage sample is kept when :func:`~kmselect.linalg.svd_top_k`
    finds rank k in the sampled sketch; the same decomposition then drives
    the second stage.  A rank-deficient draw (probability at most 0.1) is
    retried up to three times before :class:`RankFailureError` surfaces.
    Needs ``k >= 2``, as :func:`~kmselect.linalg.approx_svd_z` does, and
    ``r > k``.
    """
    a = _as_2d(a)
    _, n = a.shape
    r, k = _valid_int(r, "r"), _valid_int(k, "k")
    _window(k, r)
    seed = _valid_int(seed, "seed", 0)
    z = approx_svd_z(a, k, _child_seed(seed, 0))
    c = stage1_width(k, r)
    if c >= n:
        # the first stage would keep everything: the deterministic stage
        # runs on the sketch directly, and its plan is the selection
        c = n
        plan = deterministic_sampling_two(z.T, _identity(n), r)
    else:
        for attempt in range(1 + STAGE1_RETRIES):
            stage1 = randomized_sampling(z.T, c, _child_seed(seed, 1 + attempt))
            try:
                narrowed = svd_top_k(apply_plan(z.T, stage1), k)
                break
            except RankDeficiencyError:
                continue
        else:
            raise RankFailureError(
                f"first-stage sample lost rank k={k} in {1 + STAGE1_RETRIES} attempts"
            )
        plan = _compose(stage1, deterministic_sampling_two(narrowed.v.T, _identity(c), r))
    return _selection(a, plan, method="randomized", k=k, r=r, basis=z, seed=seed,
                      stage1_size=c)


METHODS = ("supervised", "unsupervised", "randomized")
BACKENDS = ("lloyd", "brute")


def _needs_given(method: str) -> bool:
    # whether *method* selects around an input clustering
    return method == "supervised"


def _select(a, k: int, r: int, method: str, seed: int | None,
            given: Clustering | None) -> FeatureSelection:
    # the pipeline of *method*, the one place a method name picks one;
    # *given* reaches only the method that needs it, and no seed means 0
    if _needs_given(method):
        if given is None:
            raise ArgumentError("supervised selection requires an input clustering")
        return supervised_select(a, given, k, r)
    if method == "unsupervised":
        return unsupervised_select(a, k, r)
    return randomized_select(a, k, r, 0 if seed is None else seed)


def _cluster(a, k: int, backend: str, restarts: int,
             seed: int | None) -> tuple[Clustering, float | None]:
    # the clustering of *backend* and the approximation factor gamma it
    # certifies: 1 for the exhaustive search, None for heuristic Lloyd
    if backend == "brute":
        return brute_force_optimal(a, k), 1.0
    return lloyd_best(a, k, restarts=restarts, seed=seed), None


def select_then_cluster(
    a,
    k: int,
    r: int,
    method: str,
    backend: str,
    seed: int | None = None,
    restarts: int = 20,
    given: Clustering | None = None,
) -> dict:
    """Run a pipeline, cluster the reduced matrix, and evaluate the result.

    The returned report carries the selection, the clustering of the
    reduced matrix evaluated both on the reduced and the original data,
    and — when the backend certifies its approximation factor (exhaustive
    search, gamma = 1) — the matching guarantee check.  The heuristic
    Lloyd backend certifies no factor, so no bound verdict is emitted for
    it.  Every argument is checked before any selection work.

    Both backends cluster the selection's distinct columns: the picks of
    each source column become one column, weighted by the root-sum-square
    of their weights.  That matrix gives every pair of rows the squared
    distance the reduced matrix gives them, up to rounding, so a clustering
    costs the same on both.  The selection's ``reduced`` and the report's
    ``objective_reduced`` are unchanged: the cost is taken on ``reduced``.
    """
    a = _as_2d(a)
    m, n = a.shape
    if method not in METHODS:
        raise ArgumentError(f"unknown method {method!r}, expected one of {METHODS}")
    if backend not in BACKENDS:
        raise ArgumentError(f"unknown backend {backend!r}, expected one of {BACKENDS}")
    if seed is not None:
        seed = _valid_int(seed, "seed", 0)
    if backend == "brute":
        _require_enumerable(m)
    else:
        restarts = _valid_int(restarts, "restarts", 1)
    if given is not None:
        _require_covers(given, m)
    k, r = _valid_int(k, "k"), _valid_int(r, "r")
    fs = _select(a, k, r, method, seed, given)
    out, gamma = _cluster(_merged(a, fs.plan), k, backend, restarts, seed)
    obj_reduced = objective(fs.reduced, out)
    obj_original = objective(a, out)
    report = {
        "method": method,
        "backend": backend,
        "m": m,
        "n": n,
        "k": k,
        "r": r,
        "seed": seed,
        "restarts": restarts if backend == "lloyd" else None,
        "selection": fs.to_dict(),
        "clustering": out.to_dict(obj_reduced),
        "objective_reduced": obj_reduced,
        "objective_original": obj_original,
        "gamma": gamma,
        "gamma_certified": gamma is not None,
        "bound": None,
        "bound_holds": None,
    }
    if given is not None:
        report["objective_input"] = objective(a, given)
    if gamma is not None:
        context = {"m": m, "n": n, "k": k, "r": r, "gamma": gamma, "seed": seed}
        if _needs_given(method):
            reference = report["objective_input"]
            factor = theorem1_factor(k, r, gamma)
        else:
            reference = objective(a, brute_force_optimal(a, k))
            if method == "unsupervised":
                factor = theorem2_factor(n, k, r, gamma)
            else:
                factor = theorem3_factor(k, r, gamma)
        bound = bound_report(
            f"{method}-selection-bound", obj_original, factor * reference, factor, context
        )
        report["bound"] = bound.to_dict()
        report["bound_holds"] = bound.holds
    return report
