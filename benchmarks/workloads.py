"""The benchmark's workloads: seeded inputs, fixed call lists, correctness gates.

Each workload is a closed loop over a fixed list of calls into the
package's public functions.  Inputs are generated from the workload seed
before any call is timed, and every call's output passes a correctness
gate that runs outside the timed region.  A gate returns ``(ok, value)``;
``value`` feeds the workload's quality metric, if it has one.  A gate
that cannot run raises, which stops the benchmark instead of counting
as a pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import kmselect
from kmselect import cli, pipelines, verify

CHECK_SLACK = verify.CHECK_SLACK


@dataclass
class Call:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, float | None]]


@dataclass
class Workload:
    name: str
    calls: list[Call]
    # name of the mean of the gates' values, e.g. "cost_ratio"
    quality: str | None = None
    # untimed consistency check run after the passes; it gets each pass's
    # gate values, one per call (None where the gate gave none)
    final_check: Callable[[list[list[float | None]]], bool] = lambda passes: True


# ---------------------------------------------------------------------------
# wide-select: selection only, n >> m
# ---------------------------------------------------------------------------

# (method, m, n, k, r)
WIDE_CALLS = (
    ("unsupervised", 2000, 5000, 10, 100),
    ("randomized", 2000, 5000, 10, 100),
    ("unsupervised", 300, 6000, 5, 40),
)


def planted(rng: np.random.Generator, m: int, n: int, k: int, separation: float = 10.0) -> np.ndarray:
    """m points around k centres on the first k coordinate axes, unit noise."""
    centers = np.zeros((k, n))
    centers[np.arange(k), np.arange(k)] = separation
    return centers[np.arange(m) % k] + rng.standard_normal((m, n))


def selection_ok(a: np.ndarray, fs, k: int, r: int, spectral: bool) -> bool:
    """Check a selection against the guarantees of its sampler.

    The reduced matrix must be the plan applied to *a*.  With *spectral*
    (deterministic sampler, identity second set) the sampled basis keeps
    ``sigma_k >= 1 - sqrt(k/r)`` and the sampled identity keeps
    ``||Omega S||_2 <= 1 + sqrt(n/r)``; otherwise the sampled basis only
    has to keep rank k.
    """
    n = a.shape[1]
    plan = fs.plan
    idx = np.asarray(plan.indices, dtype=int) - 1
    w = np.asarray(plan.weights, dtype=float)
    if plan.source_dim != n or plan.target_dim != r or idx.size != r:
        return False
    if not np.array_equal(fs.reduced, a[:, idx] * w):
        return False
    sv = np.linalg.svd(fs.basis.T[:, idx] * w, compute_uv=False)
    if not spectral:
        return bool(sv[k - 1] > 1e-12 * sv[0])
    # columns of the sampled identity are weighted unit vectors, so its
    # Gram matrix is diagonal with the summed squared weights per index
    norm = math.sqrt(float(np.bincount(idx, weights=w * w, minlength=n).max()))
    return bool(
        sv[k - 1] >= 1.0 - math.sqrt(k / r) - CHECK_SLACK
        and norm <= 1.0 + math.sqrt(n / r) + CHECK_SLACK
    )


def wide_select(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 0])
    shapes = {(m, n, k) for _, m, n, k, _ in WIDE_CALLS}
    data = {shape: planted(rng, *shape) for shape in sorted(shapes)}
    calls = []
    for method, m, n, k, r in WIDE_CALLS:
        a = data[(m, n, k)]
        if method == "unsupervised":
            run = lambda a=a, k=k, r=r: pipelines.unsupervised_select(a, k, r)
        else:
            run = lambda a=a, k=k, r=r: pipelines.randomized_select(a, k, r, seed)
        spectral = method == "unsupervised"
        check = lambda fs, a=a, k=k, r=r, s=spectral: (selection_ok(a, fs, k, r, s), None)
        calls.append(Call(f"{method}_select.{m}x{n}", run, check))
    return Workload("wide-select", calls)


# ---------------------------------------------------------------------------
# tall-cluster: the command line on a CSV with m >> r
# ---------------------------------------------------------------------------

TALL_M, TALL_N, TALL_K, TALL_R, TALL_RESTARTS = 2000, 500, 10, 50, 20


def report_ok(code: int, report_path: Path, a: np.ndarray, k: int, reference: float) -> tuple[bool, float | None]:
    """Exit code 0 and an ``objective_original`` that recomputes to 1e-9.

    The value is the reported cost over the *reference* cost.
    """
    if code != 0:
        return False, None
    report = json.loads(report_path.read_text())
    clustering = kmselect.from_labels(report["clustering"]["assignment"], k)
    claimed = float(report["objective_original"])
    recomputed = kmselect.objective(a, clustering)
    ok = abs(claimed - recomputed) <= 1e-9 * max(1.0, abs(recomputed))
    return ok, claimed / reference


def tall_cluster(seed: int, workdir: Path) -> Workload:
    csv_path = workdir / "points.csv"
    labels_path = workdir / "points.labels"
    code = cli.main([
        "synth", "--m", str(TALL_M), "--n", str(TALL_N), "--k", str(TALL_K),
        "--seed", str(seed), "--output", str(csv_path), "--labels-output", str(labels_path),
    ])
    if code != 0:
        raise RuntimeError(f"synth exited with {code}")
    a = np.loadtxt(csv_path, delimiter=",", ndmin=2)
    planted_labels = np.loadtxt(labels_path, dtype=int, ndmin=1)
    reference = kmselect.objective(a, kmselect.from_labels(planted_labels, TALL_K))
    calls = []
    for method in ("supervised", "unsupervised", "randomized"):
        report_path = workdir / f"report-{method}.json"
        argv = [
            "select", "--input", str(csv_path), "--method", method,
            "--k", str(TALL_K), "--r", str(TALL_R), "--seed", str(seed),
            "--backend", "lloyd", "--restarts", str(TALL_RESTARTS),
            "--output", str(report_path),
        ]
        if method == "supervised":
            argv += ["--labels", str(labels_path)]
        run = lambda argv=argv: cli.main(argv)
        check = lambda code, p=report_path: report_ok(code, p, a, TALL_K, reference)
        calls.append(Call(f"cli.select.{method}", run, check))
    return Workload("tall-cluster", calls, quality="cost_ratio")


# ---------------------------------------------------------------------------
# certify-small: the exhaustive-certified paper checks
# ---------------------------------------------------------------------------

# trial function name -> (the verify suite that runs it, the checks that
# suite scores per trial; None means every check)
CERTIFY_TRIALS = {
    "theorem1_trial": ("theorem1-end-to-end", None),
    "theorem2_trial": ("theorem2-end-to-end", None),
    "theorem3_trial": ("theorem3-end-to-end", None),
    "structural_trial": ("structural-lemma", None),
    "kmeans_oracle_trial": ("kmeans-oracle", ("matches_optimum",)),
}
# Enough seeds per pass that the pass time barely depends on the workload
# seed, and a multiple of three, so structural_trial covers its three
# methods equally.
CERTIFY_SEEDS = 36


def trial_ok(checks, keys=None) -> tuple[bool, float]:
    """A trial passes the gate if it returns its check dict.

    The value is 1.0 if the checks named in *keys* (all of them if None)
    hold, else 0.0, which is how the trial's verify suite scores it.
    """
    if not isinstance(checks, dict) or not checks:
        return False, 0.0
    if keys is not None and not set(keys) <= set(checks):
        return False, 0.0
    scored = checks.values() if keys is None else [checks[key] for key in keys]
    return True, float(all(bool(v) for v in scored))


def suites_agree(seed: int, seeds: int, calls, passes) -> bool:
    """Each verify suite reports the hold count its trials scored in every pass."""
    expected = {
        fname: verify.run_suite(suite, trials=seeds, seed=seed)["passed"]
        for fname, (suite, _) in CERTIFY_TRIALS.items()
    }
    for values in passes:
        held = dict.fromkeys(expected, 0)
        for call, value in zip(calls, values, strict=True):
            held[call.name.removeprefix("verify.")] += int(value or 0)
        if held != expected:
            return False
    return True


def certify_small(seed: int, workdir: Path, seeds: int = CERTIFY_SEEDS) -> Workload:
    calls = []
    for s in range(seed, seed + seeds):
        for fname, (_, keys) in CERTIFY_TRIALS.items():
            run = lambda fname=fname, s=s: getattr(verify, fname)(s)
            check = lambda checks, keys=keys: trial_ok(checks, keys)
            calls.append(Call(f"verify.{fname}", run, check))
    return Workload(
        "certify-small", calls, quality="bound_hold_rate",
        final_check=lambda passes: suites_agree(seed, seeds, calls, passes),
    )


BUILDERS = {
    "wide-select": wide_select,
    "tall-cluster": tall_cluster,
    "certify-small": certify_small,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of workload *name* from *seed* inside *workdir*."""
    return BUILDERS[name](seed, workdir)
