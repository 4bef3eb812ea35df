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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import bound_report, theorem1_factor, theorem2_factor, theorem3_factor
from .errors import ArgumentError, RankDeficiencyError, RankFailureError
from .kmeans import (
    Clustering,
    _require_enumerable,
    brute_force_optimal,
    indicator,
    lloyd_best,
    objective,
)
from .linalg import _as_2d, _minus_product, approx_svd_z, svd_top_k
from .sparsify import (
    SamplingPlan,
    _identity,
    apply_plan,
    deterministic_sampling_one,
    deterministic_sampling_two,
    identity_plan,
    randomized_sampling,
)

STAGE1_RETRIES = 3


@dataclass(frozen=True, eq=False)
class FeatureSelection:
    """Result of one pipeline run.

    ``reduced`` is exactly ``apply_plan(a, plan)``; ``seed`` is None for the
    deterministic methods and ``stage1_size`` is the width of the first
    sampling stage (randomized method only).  ``basis`` is the orthonormal
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


def _validate_window(k: int, r: int, n: int) -> None:
    if not k < r < n:
        raise ArgumentError(f"need k < r < n, got k={k}, r={r}, n={n}")


def _stacked_residual(a: np.ndarray, v: np.ndarray, given: Clustering) -> np.ndarray:
    # [a - a v v.T ; a - x x.T a], x the indicator of *given*: the 2m x n
    # second set of supervised selection, each half written in place
    m = a.shape[0]
    stacked = np.empty((2 * m, a.shape[1]))
    _minus_product(a, a @ v, v.T, stacked[:m])
    x = indicator(given)
    _minus_product(a, x, x.T @ a, stacked[m:])
    return stacked


def supervised_select(a, given: Clustering, k: int, r: int) -> FeatureSelection:
    """Deterministically select r columns that preserve a given clustering.

    Stacks the low-rank residual of *a* on top of the clustering residual
    of *given* and runs the Frobenius-capped dual-set sampler against the
    top-k right singular subspace.  Identical inputs give an identical
    plan.  Beyond the top-k solve, the call holds the 2m x n stacked
    residual, built in place, and O(n) scratch for the sampler's charges.
    """
    a = _as_2d(a)
    m, n = a.shape
    _validate_window(k, r, n)
    if given.num_points != m:
        raise ArgumentError(
            f"clustering covers {given.num_points} points but the matrix has {m} rows"
        )
    if given.num_clusters != k:
        raise ArgumentError(
            f"clustering has {given.num_clusters} clusters, expected k={k}"
        )
    top = svd_top_k(a, k)
    plan = deterministic_sampling_one(top.v.T, _stacked_residual(a, top.v, given), r)
    return FeatureSelection(
        plan=plan, reduced=apply_plan(a, plan), method="supervised", k=k, r=r,
        basis=top.v,
    )


def unsupervised_select(a, k: int, r: int) -> FeatureSelection:
    """Deterministically select r columns without any label information.

    Runs the spectrally-capped dual-set sampler against the top-k right
    singular subspace with the identity as the second set, held in O(n)
    memory and run on the sampler's diagonal path.  Identical inputs give
    an identical plan.
    """
    a = _as_2d(a)
    _, n = a.shape
    _validate_window(k, r, n)
    top = svd_top_k(a, k)
    plan = deterministic_sampling_two(top.v.T, _identity(n), r)
    return FeatureSelection(
        plan=plan, reduced=apply_plan(a, plan), method="unsupervised", k=k, r=r,
        basis=top.v,
    )


def _child_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence(seed).generate_state(index + 1)[index])


def _compose(stage1: SamplingPlan, stage2: SamplingPlan) -> SamplingPlan:
    indices = tuple(stage1.indices[j - 1] for j in stage2.indices)
    weights = tuple(
        stage1.weights[j - 1] * w for j, w in zip(stage2.indices, stage2.weights)
    )
    return SamplingPlan(
        source_dim=stage1.source_dim,
        target_dim=stage2.target_dim,
        indices=indices,
        weights=weights,
    )


def stage1_width(k: int, r: int) -> int:
    """First-stage sample count ``max(r, ceil(16 k ln(20 k)))``."""
    return max(r, math.ceil(16.0 * k * math.log(20.0 * k)))


def randomized_select(a, k: int, r: int, seed: int) -> FeatureSelection:
    """Two-stage randomized selection of r columns.

    Sketches the top-k right singular subspace, leverage-samples a first
    stage of ``max(r, ceil(16 k ln(20 k)))`` columns, then deterministically
    narrows to r with the spectrally-capped sampler.  The composed plan
    multiplies the stage weights and routes stage-2 picks through stage-1
    indices.  Reproducible for a fixed seed.  The first-stage sample is
    kept when :func:`~kmselect.linalg.svd_top_k` finds rank k in the sampled
    sketch; the same decomposition then drives the second stage.  A
    rank-deficient draw (probability at most 0.1) is retried up to three
    times before :class:`RankFailureError` surfaces.  Needs ``k >= 2``, as
    :func:`~kmselect.linalg.approx_svd_z` does, and ``r > k``.
    """
    a = _as_2d(a)
    _, n = a.shape
    if r <= k:
        raise ArgumentError(f"need r > k, got r={r}, k={k}")
    z = approx_svd_z(a, k, _child_seed(seed, 0))
    c = stage1_width(k, r)
    if c >= n:
        # the first stage would keep everything: use the identity plan and
        # run the deterministic stage on the sketch directly
        stage1 = identity_plan(n)
        stage2 = deterministic_sampling_two(z.T, _identity(n), r)
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
        stage2 = deterministic_sampling_two(narrowed.v.T, _identity(c), r)
    plan = _compose(stage1, stage2)
    return FeatureSelection(
        plan=plan,
        reduced=apply_plan(a, plan),
        method="randomized",
        k=k,
        r=r,
        seed=seed,
        stage1_size=stage1.target_dim,
        basis=z,
    )


METHODS = ("supervised", "unsupervised", "randomized")
BACKENDS = ("lloyd", "brute")


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
    it.
    """
    a = _as_2d(a)
    m, n = a.shape
    if method not in METHODS:
        raise ArgumentError(f"unknown method {method!r}, expected one of {METHODS}")
    if backend not in BACKENDS:
        raise ArgumentError(f"unknown backend {backend!r}, expected one of {BACKENDS}")
    if backend == "brute":
        _require_enumerable(m)
    if method == "supervised":
        if given is None:
            raise ArgumentError("supervised selection requires an input clustering")
        fs = supervised_select(a, given, k, r)
    elif method == "unsupervised":
        fs = unsupervised_select(a, k, r)
    else:
        fs = randomized_select(a, k, r, 0 if seed is None else seed)
    if backend == "brute":
        out = brute_force_optimal(fs.reduced, k)
        gamma = 1.0
    else:
        out = lloyd_best(fs.reduced, k, restarts=restarts, seed=seed)
        gamma = None
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
        if method == "supervised":
            reference = report["objective_input"]
            factor = theorem1_factor(k, r, gamma)
            name = "supervised-selection-bound"
        else:
            reference = objective(a, brute_force_optimal(a, k))
            if method == "unsupervised":
                factor = theorem2_factor(n, k, r, gamma)
                name = "unsupervised-selection-bound"
            else:
                factor = theorem3_factor(k, r, gamma)
                name = "randomized-selection-bound"
        bound = bound_report(name, obj_original, factor * reference, factor, context)
        report["bound"] = bound.to_dict()
        report["bound_holds"] = bound.holds
    return report
