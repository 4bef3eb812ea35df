"""Named property suites checking every guarantee on concrete instances.

Each suite draws random instances from per-trial seeds (``seed + trial``),
evaluates one guarantee, and reports pass counts with reproducer seeds.
Deterministic guarantees require every trial to pass; probabilistic ones
carry the fraction their statement promises.

Where each verdict comes from:

* the sampler suites take their plans from the deterministic pipelines
  and compare the sampled spectrum and norms, from
  :mod:`~kmselect.linalg`, with the sampler's stated floors and caps;
* the three theorem suites judge the bound in the report of
  :func:`~kmselect.pipelines.select_then_cluster` with the exhaustive
  backend, its own factor times its own reference cost, against this
  module's absolute slack ``CHECK_SLACK``;
* the structural suite runs :func:`~kmselect.bounds.structural_check` on
  the plan and basis of the pipeline the one dispatch picks;
* the clustering and sketch suites compare Lloyd with the exhaustive
  optimum, the package's objective (:func:`~kmselect.kmeans.objective`)
  with the matrix form ``||a - x x.T a||_F^2``, and the sketch with the
  exact singular values.

Every trial works on one fixed instance shape; ``run_suite`` takes only a
trial count and a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import structural_check
from .errors import ArgumentError
from .kmeans import Clustering, brute_force_optimal, from_labels, indicator, lloyd_best, objective
from .linalg import _orth, _valid_int, approx_svd_z, frobenius_norm, residual, sigma_k
from .pipelines import (
    _needs_given,
    _select,
    select_then_cluster,
    supervised_select,
    unsupervised_select,
)
from .sparsify import _columns, apply_plan, randomized_sampling

CHECK_SLACK = 1e-9
MAX_REPORTED_FAILURES = 20
# the fixed instances (m, n, k, r) of the per-seed trials: theorem 3's is
# wide enough that its first stage samples 119 of the 300 columns
_SAMPLER_ONE = (100, 200, 5, 20)
_SAMPLER_TWO = (50, 100, 4, 16)
_SMALL = (10, 8, 2, 4)
_WIDE = (12, 300, 2, 6)
# columns the leverage-score tail trial samples
_TAIL_R = 240


@dataclass(frozen=True)
class Suite:
    """A named property check.

    ``runner(trials, seed)`` returns ``(results, aggregates, aggregate_ok)``:
    one check dict per trial, plus the suite-wide statistics (None for a
    per-seed suite) and whether they hold.  The suite passes when at least
    ``required_fraction`` of the trials pass all their checks and
    ``aggregate_ok`` holds.
    """

    name: str
    description: str
    default_trials: int
    required_fraction: float
    runner: Callable


def _per_seed(trial: Callable[[int], dict]) -> Callable:
    # the runner of a suite whose trial t is trial(seed + t)
    def runner(trials: int, seed: int):
        return [trial(seed + t) for t in range(trials)], None, True

    return runner


def _summarize(
    suite: Suite, seed: int, results: list[dict], aggregates: dict | None, aggregate_ok: bool
) -> dict:
    required_fraction = suite.required_fraction
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
        "suite": suite.name,
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
    summary["description"] = suite.description
    return summary


# ---------------------------------------------------------------------------
# sampler suites
# ---------------------------------------------------------------------------


def sampler_one_trial(seed: int) -> dict:
    """Both deterministic Frobenius-capped sampler guarantees on one instance."""
    m, n, k, r = _SAMPLER_ONE
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    given = lloyd_best(a, k, restarts=2, seed=seed)
    fs = supervised_select(a, given, k, r)
    plan = fs.plan
    # the second set that plan sampled, here whole: the pipeline sums its
    # column norms over blocks of rows
    x = indicator(given)
    low_rank_residual, cluster_residual = residual(a, fs.basis), a - x @ (x.T @ a)
    b = np.vstack([low_rank_residual, cluster_residual])
    sig = sigma_k(apply_plan(fs.basis.T, plan), k)
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


def sampler_two_trial(seed: int) -> dict:
    """Both deterministic spectrally-capped sampler guarantees on one instance."""
    m, n, k, r = _SAMPLER_TWO
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    fs = unsupervised_select(a, k, r)
    sig = sigma_k(apply_plan(fs.basis.T, fs.plan), k)
    # the columns of the sampled identity are weighted unit vectors,
    # orthogonal across distinct indices: its Gram matrix is diagonal with
    # the summed squared weights of each index
    idx, weights = _columns(fs.plan)
    spec = math.sqrt(float(np.bincount(idx, weights=np.square(weights)).max()))
    return {
        "spectral_floor": sig >= 1.0 - math.sqrt(k / r) - CHECK_SLACK,
        "spectral_cap": spec <= 1.0 + math.sqrt(n / r) + CHECK_SLACK,
    }


def _suite_randomized_expectation(trials: int, seed: int) -> tuple:
    """Unbiasedness of the leverage-score sampler's squared Frobenius norm."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((10, 200))
    v_rows = _orth(rng.standard_normal((200, 5))).T
    fro2 = float(np.square(b).sum())
    total = 0.0
    for t in range(trials):
        plan = randomized_sampling(v_rows, 50, seed + t)
        total += float(np.square(apply_plan(b, plan)).sum())
    mean_ratio = total / trials / fro2
    ok = abs(mean_ratio - 1.0) <= 0.05
    # no per-trial criterion here: the claim is about the mean over seeds
    results = [{"completed": True} for _ in range(trials)]
    return results, {"mean_ratio": mean_ratio, "tolerance": 0.05}, ok


def randomized_tail_trial(seed: int, v_rows: np.ndarray) -> dict:
    k = v_rows.shape[0]
    plan = randomized_sampling(v_rows, _TAIL_R, seed)
    sig = sigma_k(apply_plan(v_rows, plan), k)
    floor = 1.0 - math.sqrt(4.0 * k * math.log(20.0 * k) / _TAIL_R)
    return {"tail": sig * sig >= floor}


def _suite_randomized_tail(trials: int, seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    v_rows = _orth(rng.standard_normal((200, 2))).T
    return [randomized_tail_trial(seed + t, v_rows) for t in range(trials)], None, True


# ---------------------------------------------------------------------------
# end-to-end pipeline suites (exhaustive backend, gamma = 1)
# ---------------------------------------------------------------------------


def _theorem_trial(seed: int, method: str, shape: tuple) -> dict:
    # select_then_cluster's own bound on one instance of *shape*, judged
    # with this module's absolute slack; a method that selects around an
    # input clustering is given the optimum
    m, n, k, r = shape
    a = np.random.default_rng(seed).standard_normal((m, n))
    given = brute_force_optimal(a, k) if _needs_given(method) else None
    bound = select_then_cluster(a, k, r, method, "brute", seed=seed, given=given)["bound"]
    return {"bound": bound["lhs"] <= bound["rhs"] + CHECK_SLACK}


def theorem1_trial(seed: int) -> dict:
    return _theorem_trial(seed, "supervised", _SMALL)


def theorem2_trial(seed: int) -> dict:
    return _theorem_trial(seed, "unsupervised", _SMALL)


def theorem3_trial(seed: int) -> dict:
    return _theorem_trial(seed, "randomized", _WIDE)


def structural_trial(seed: int) -> dict:
    m, n, k, r = _SMALL
    a = np.random.default_rng(seed).standard_normal((m, n))
    opt = brute_force_optimal(a, k)
    fs = _select(a, k, r, ("unsupervised", "supervised", "randomized")[seed % 3], seed, opt)
    out = brute_force_optimal(fs.reduced, k)
    report = structural_check(a, fs.basis, opt, out, fs.plan, 1.0)
    return {"applicable": report.context.get("applicable", False), "holds": report.holds}


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


def _suite_kmeans_oracle(trials: int, seed: int) -> tuple:
    results = [kmeans_oracle_trial(seed + t) for t in range(trials)]
    # the optimum may be missed on a few instances, but must never be beaten
    below = sum(0 if r["never_below"] else 1 for r in results)
    scored = [{"matches_optimum": r["matches_optimum"]} for r in results]
    return scored, {"beaten_optimum": below}, below == 0


def _random_clustering(rng: np.random.Generator, m: int, k: int) -> Clustering:
    labels = rng.integers(1, k + 1, size=m)
    labels[rng.permutation(m)[:k]] = np.arange(1, k + 1)
    return from_labels(labels, k)


def objective_identity_trial(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 13))
    n = int(rng.integers(1, 7))
    k = int(rng.integers(1, m + 1))
    a = rng.standard_normal((m, n)) * float(rng.uniform(0.1, 10.0))
    c = _random_clustering(rng, m, k)
    x = indicator(c)
    matrix_form = float(np.square(a - x @ (x.T @ a)).sum())
    return {"identity": abs(matrix_form - objective(a, c)) <= 1e-9 * max(1.0, matrix_form)}


def _suite_approx_svd(trials: int, seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((50, 40))
    k = 5
    exact = np.linalg.svd(a, compute_uv=False)
    tail2 = float(np.square(exact[k:]).sum())
    results = []
    total = 0.0
    for t in range(trials):
        z = approx_svd_z(a, k, seed + t)
        ortho = float(np.abs(z.T @ z - np.eye(k)).max())
        e = a - (a @ z) @ z.T
        ez = float(np.abs(e @ z).max())
        total += float(np.square(e).sum())
        results.append({"orthonormal": ortho <= 1e-9, "residual_in_null_space": ez <= 1e-9})
    mean_ratio = total / trials / tail2
    return results, {"mean_residual_ratio": mean_ratio, "bound": 1.6}, mean_ratio <= 1.6


SUITES: dict[str, Suite] = {
    s.name: s
    for s in [
        Suite(
            "sampler-one-bounds",
            "spectral floor and Frobenius cap of the deterministic dual-set sampler",
            50,
            1.0,
            _per_seed(sampler_one_trial),
        ),
        Suite(
            "sampler-two-bounds",
            "spectral floor and spectral cap of the deterministic dual-set sampler",
            50,
            1.0,
            _per_seed(sampler_two_trial),
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
            _per_seed(theorem1_trial),
        ),
        Suite(
            "theorem2-end-to-end",
            "unsupervised selection guarantee with the exhaustive backend",
            100,
            1.0,
            _per_seed(theorem2_trial),
        ),
        Suite(
            "theorem3-end-to-end",
            "randomized selection guarantee (promised with probability 0.4)",
            200,
            0.40,
            _per_seed(theorem3_trial),
        ),
        Suite(
            "structural-lemma",
            "structural inequality on pipeline-produced plans",
            100,
            1.0,
            _per_seed(structural_trial),
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
            _per_seed(objective_identity_trial),
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
    n = suite.default_trials if trials is None else _valid_int(trials, "trials", 1)
    _valid_int(seed, "seed", 0)
    return _summarize(suite, seed, *suite.runner(n, seed))
