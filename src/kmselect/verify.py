"""Named property suites checking every guarantee on concrete instances.

Each suite draws random instances from per-trial seeds (``seed + trial``),
evaluates one guarantee, and reports pass counts with reproducer seeds.
Deterministic guarantees require every trial to pass; probabilistic ones
carry the fraction their statement promises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import theorem1_factor, theorem2_factor, theorem3_factor, structural_check
from .errors import ArgumentError
from .kmeans import Clustering, brute_force_optimal, indicator, lloyd_best, objective
from .linalg import approx_svd_z, frobenius_norm, residual, sigma_k, spectral_norm, svd_top_k
from .pipelines import randomized_select, supervised_select, unsupervised_select
from .sparsify import (
    apply_plan,
    deterministic_sampling_one,
    deterministic_sampling_two,
    randomized_sampling,
)

CHECK_SLACK = 1e-9
MAX_REPORTED_FAILURES = 20


@dataclass(frozen=True)
class Suite:
    name: str
    description: str
    default_trials: int
    required_fraction: float
    runner: Callable


def _orthonormal_rows(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return q.T


def _summarize(
    name: str,
    seed: int,
    results: list[dict],
    required_fraction: float,
    aggregates: dict | None = None,
    aggregate_ok: bool = True,
) -> dict:
    trials = len(results)
    flags = [all(bool(v) for v in r.values()) for r in results]
    passed = sum(flags)
    fraction = passed / trials if trials else 0.0
    failures = [
        {"trial": t, "seed": seed + t, "checks": {k: bool(v) for k, v in results[t].items()}}
        for t, ok in enumerate(flags)
        if not ok
    ][:MAX_REPORTED_FAILURES]
    summary = {
        "suite": name,
        "trials": trials,
        "seed": seed,
        "passed": passed,
        "failed": trials - passed,
        "pass_fraction": fraction,
        "required_fraction": required_fraction,
        "suite_passed": bool(fraction >= required_fraction - 1e-12 and aggregate_ok),
        "failures": failures,
    }
    if aggregates is not None:
        summary["aggregates"] = aggregates
    return summary


# ---------------------------------------------------------------------------
# sampler suites
# ---------------------------------------------------------------------------


def sampler_one_trial(seed: int, m=100, n=200, k=5, r=20) -> dict:
    """Both deterministic Frobenius-capped sampler guarantees on one instance."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    top = svd_top_k(a, k)
    low_rank_residual = residual(a, top.v)
    given = lloyd_best(a, k, restarts=2, seed=seed)
    x = indicator(given)
    cluster_residual = a - x @ (x.T @ a)
    b = np.vstack([low_rank_residual, cluster_residual])
    plan = deterministic_sampling_one(top.v.T, b, r)
    sig = sigma_k(apply_plan(top.v.T, plan), k)
    fro_in = frobenius_norm(b)
    fro_out = frobenius_norm(apply_plan(b, plan))
    b1_out = float(np.square(apply_plan(low_rank_residual, plan)).sum())
    b2_out = float(np.square(apply_plan(cluster_residual, plan)).sum())
    b1_in = float(np.square(low_rank_residual).sum())
    b2_in = float(np.square(cluster_residual).sum())
    return {
        "spectral": sig >= 1.0 - math.sqrt(k / r) - CHECK_SLACK,
        "frobenius": fro_out <= fro_in + CHECK_SLACK,
        "stacked_blocks": b1_out + b2_out <= b1_in + b2_in + CHECK_SLACK,
    }


def _suite_sampler_one(trials: int, seed: int) -> dict:
    results = [sampler_one_trial(seed + t) for t in range(trials)]
    return _summarize("sampler-one-bounds", seed, results, 1.0)


def sampler_two_trial(seed: int, m=50, n=100, k=4, r=16) -> dict:
    """Both deterministic spectrally-capped sampler guarantees on one instance."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    top = svd_top_k(a, k)
    plan = deterministic_sampling_two(top.v.T, np.eye(n), r)
    sig = sigma_k(apply_plan(top.v.T, plan), k)
    spec = spectral_norm(apply_plan(np.eye(n), plan))
    return {
        "spectral_floor": sig >= 1.0 - math.sqrt(k / r) - CHECK_SLACK,
        "spectral_cap": spec <= 1.0 + math.sqrt(n / r) + CHECK_SLACK,
    }


def _suite_sampler_two(trials: int, seed: int) -> dict:
    results = [sampler_two_trial(seed + t) for t in range(trials)]
    return _summarize("sampler-two-bounds", seed, results, 1.0)


def _suite_randomized_expectation(trials: int, seed: int) -> dict:
    """Unbiasedness of the leverage-score sampler's squared Frobenius norm."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((10, 200))
    v_rows = _orthonormal_rows(rng, 5, 200)
    fro2 = float(np.square(b).sum())
    total = 0.0
    for t in range(trials):
        plan = randomized_sampling(v_rows, 50, seed + t)
        total += float(np.square(apply_plan(b, plan)).sum())
    mean_ratio = total / trials / fro2
    ok = abs(mean_ratio - 1.0) <= 0.05
    # no per-trial criterion here: the claim is about the mean over seeds
    results = [{"completed": True} for _ in range(trials)]
    return _summarize(
        "randomized-expectation",
        seed,
        results,
        1.0,
        aggregates={"mean_ratio": mean_ratio, "tolerance": 0.05},
        aggregate_ok=ok,
    )


def randomized_tail_trial(seed: int, v_rows: np.ndarray, r=240) -> dict:
    k = v_rows.shape[0]
    plan = randomized_sampling(v_rows, r, seed)
    sig = sigma_k(apply_plan(v_rows, plan), k)
    floor = 1.0 - math.sqrt(4.0 * k * math.log(20.0 * k) / r)
    return {"tail": sig * sig >= floor}


def _suite_randomized_tail(trials: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    v_rows = _orthonormal_rows(rng, 2, 200)
    results = [randomized_tail_trial(seed + t, v_rows) for t in range(trials)]
    return _summarize("randomized-sampling-tail", seed, results, 0.85)


# ---------------------------------------------------------------------------
# end-to-end pipeline suites (exhaustive backend, gamma = 1)
# ---------------------------------------------------------------------------


def theorem1_trial(seed: int, m=10, n=8, k=2, r=4) -> dict:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    given = brute_force_optimal(a, k)
    fs = supervised_select(a, given, k, r)
    out = brute_force_optimal(fs.reduced, k)
    lhs = objective(a, out)
    rhs = theorem1_factor(k, r, 1.0) * objective(a, given)
    return {"bound": lhs <= rhs + CHECK_SLACK}


def _suite_theorem1(trials: int, seed: int) -> dict:
    results = [theorem1_trial(seed + t) for t in range(trials)]
    return _summarize("theorem1-end-to-end", seed, results, 1.0)


def theorem2_trial(seed: int, m=10, n=8, k=2, r=4) -> dict:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    fs = unsupervised_select(a, k, r)
    out = brute_force_optimal(fs.reduced, k)
    lhs = objective(a, out)
    rhs = theorem2_factor(n, k, r, 1.0) * objective(a, brute_force_optimal(a, k))
    return {"bound": lhs <= rhs + CHECK_SLACK}


def _suite_theorem2(trials: int, seed: int) -> dict:
    results = [theorem2_trial(seed + t) for t in range(trials)]
    return _summarize("theorem2-end-to-end", seed, results, 1.0)


def theorem3_trial(seed: int, m=12, n=300, k=2, r=6) -> dict:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    fs = randomized_select(a, k, r, seed)
    out = brute_force_optimal(fs.reduced, k)
    lhs = objective(a, out)
    rhs = theorem3_factor(k, r, 1.0) * objective(a, brute_force_optimal(a, k))
    return {"bound": lhs <= rhs + CHECK_SLACK}


def _suite_theorem3(trials: int, seed: int) -> dict:
    results = [theorem3_trial(seed + t) for t in range(trials)]
    return _summarize("theorem3-end-to-end", seed, results, 0.40)


def structural_trial(seed: int, m=10, n=8, k=2, r=4) -> dict:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    opt = brute_force_optimal(a, k)
    method = ("unsupervised", "supervised", "randomized")[seed % 3]
    if method == "supervised":
        fs = supervised_select(a, opt, k, r)
    elif method == "unsupervised":
        fs = unsupervised_select(a, k, r)
    else:
        fs = randomized_select(a, k, r, seed)
    out = brute_force_optimal(fs.reduced, k)
    report = structural_check(a, fs.basis, opt, out, fs.plan, 1.0)
    return {"applicable": report.context.get("applicable", False), "holds": report.holds}


def _suite_structural(trials: int, seed: int) -> dict:
    results = [structural_trial(seed + t) for t in range(trials)]
    return _summarize("structural-lemma", seed, results, 1.0)


# ---------------------------------------------------------------------------
# clustering and decomposition suites
# ---------------------------------------------------------------------------


def kmeans_oracle_trial(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    m = int(rng.integers(6, 11))
    k = int(rng.integers(2, 4))
    a = rng.standard_normal((m, 3))
    best = lloyd_best(a, k, restarts=50, seed=seed)
    lloyd_obj = objective(a, best)
    brute_obj = objective(a, brute_force_optimal(a, k))
    return {
        "matches_optimum": abs(lloyd_obj - brute_obj) <= 1e-9 * max(1.0, brute_obj),
        "never_below": lloyd_obj >= brute_obj - 1e-9,
    }


def _suite_kmeans_oracle(trials: int, seed: int) -> dict:
    results = [kmeans_oracle_trial(seed + t) for t in range(trials)]
    # the optimum may be missed on a few instances, but must never be beaten
    below = sum(0 if r["never_below"] else 1 for r in results)
    return _summarize(
        "kmeans-oracle",
        seed,
        [{"matches_optimum": r["matches_optimum"]} for r in results],
        0.95,
        aggregates={"beaten_optimum": below},
        aggregate_ok=below == 0,
    )


def _random_clustering(rng: np.random.Generator, m: int, k: int) -> Clustering:
    labels = rng.integers(1, k + 1, size=m)
    labels[rng.permutation(m)[:k]] = np.arange(1, k + 1)
    return Clustering(m, k, tuple(int(x) for x in labels))


def objective_identity_trial(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 13))
    n = int(rng.integers(1, 7))
    k = int(rng.integers(1, m + 1))
    a = rng.standard_normal((m, n)) * float(rng.uniform(0.1, 10.0))
    c = _random_clustering(rng, m, k)
    x = indicator(c)
    matrix_form = float(np.square(a - x @ (x.T @ a)).sum())
    # independent centroid-sum evaluation
    centroid_form = 0.0
    labels = c.labels0()
    for j in range(k):
        pts = a[labels == j]
        centroid_form += float(np.square(pts - pts.mean(axis=0)).sum())
    return {"identity": abs(matrix_form - centroid_form) <= 1e-9 * max(1.0, matrix_form)}


def _suite_objective_identity(trials: int, seed: int) -> dict:
    results = [objective_identity_trial(seed + t) for t in range(trials)]
    return _summarize("objective-identity", seed, results, 1.0)


def _suite_approx_svd(trials: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((50, 40))
    k = 5
    exact = np.linalg.svd(a, compute_uv=False)
    tail2 = float(np.square(exact[k:]).sum())
    results = []
    total = 0.0
    for t in range(trials):
        z = approx_svd_z(a, k, 0.5, seed + t)
        ortho = float(np.abs(z.T @ z - np.eye(k)).max())
        e = a - (a @ z) @ z.T
        ez = float(np.abs(e @ z).max())
        total += float(np.square(e).sum())
        results.append({"orthonormal": ortho <= 1e-9, "residual_in_null_space": ez <= 1e-9})
    mean_ratio = total / trials / tail2
    return _summarize(
        "approx-svd-contract",
        seed,
        results,
        1.0,
        aggregates={"mean_residual_ratio": mean_ratio, "bound": 1.6},
        aggregate_ok=mean_ratio <= 1.6,
    )


SUITES: dict[str, Suite] = {
    s.name: s
    for s in [
        Suite(
            "sampler-one-bounds",
            "spectral floor and Frobenius cap of the deterministic dual-set sampler",
            50,
            1.0,
            _suite_sampler_one,
        ),
        Suite(
            "sampler-two-bounds",
            "spectral floor and spectral cap of the deterministic dual-set sampler",
            50,
            1.0,
            _suite_sampler_two,
        ),
        Suite(
            "randomized-expectation",
            "unbiasedness of the leverage-score sampler's squared Frobenius norm",
            2000,
            1.0,
            _suite_randomized_expectation,
        ),
        Suite(
            "randomized-sampling-tail",
            "high-probability spectral floor of the leverage-score sampler",
            100,
            0.85,
            _suite_randomized_tail,
        ),
        Suite(
            "theorem1-end-to-end",
            "supervised selection guarantee with the exhaustive backend",
            100,
            1.0,
            _suite_theorem1,
        ),
        Suite(
            "theorem2-end-to-end",
            "unsupervised selection guarantee with the exhaustive backend",
            100,
            1.0,
            _suite_theorem2,
        ),
        Suite(
            "theorem3-end-to-end",
            "randomized selection guarantee (promised with probability 0.4)",
            200,
            0.40,
            _suite_theorem3,
        ),
        Suite(
            "structural-lemma",
            "structural inequality on pipeline-produced plans",
            100,
            1.0,
            _suite_structural,
        ),
        Suite(
            "kmeans-oracle",
            "Lloyd with restarts against the exhaustive optimum",
            100,
            0.95,
            _suite_kmeans_oracle,
        ),
        Suite(
            "objective-identity",
            "matrix and centroid forms of the clustering objective agree",
            1000,
            1.0,
            _suite_objective_identity,
        ),
        Suite(
            "approx-svd-contract",
            "orthonormality, null-space, and expected-residual contracts of the sketch",
            200,
            1.0,
            _suite_approx_svd,
        ),
    ]
}


def run_suite(name: str, trials: int | None = None, seed: int = 0) -> dict:
    """Run the named suite and return its JSON-ready summary."""
    if name not in SUITES:
        raise ArgumentError(
            f"unknown suite {name!r}; known suites: {', '.join(sorted(SUITES))}"
        )
    suite = SUITES[name]
    n = suite.default_trials if trials is None else int(trials)
    if n < 1:
        raise ArgumentError(f"need at least one trial, got {n}")
    summary = suite.runner(n, seed)
    summary["description"] = suite.description
    return summary
