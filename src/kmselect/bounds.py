"""Closed-form approximation factors and instance-level bound checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ArgumentError
from .kmeans import Clustering, _require_covers, objective
from .linalg import (
    _as_2d,
    _at_scale,
    _require_basis_rows,
    _rescaled,
    _window,
    as_matrix,
    residual,
    singular_values,
)
from .sparsify import (
    SamplingPlan,
    _columns,
    _gather,
    _require_orthonormal_rows,
    _require_source_dim,
    apply_plan,
)

# Proofs are exact; floating-point evaluation is not.  A bound "holds" when
# lhs <= rhs + COMPARISON_SLACK * max(1, rhs).
COMPARISON_SLACK = 1e-9


@dataclass(frozen=True)
class BoundReport:
    """One inequality evaluated on one instance.

    ``holds`` follows the slack rule above; ``context`` records the instance
    parameters (m, n, k, r, gamma, seed, ...) so a report is reproducible.
    """

    name: str
    lhs: float
    rhs: float
    factor: float
    holds: bool
    context: dict

    def to_dict(self) -> dict:
        # the fields as they are, with a copy of the context:
        # dataclasses.asdict's recursive deep copy took 19 us per report
        return {**vars(self), "context": dict(self.context)}


def bound_report(name: str, lhs: float, rhs: float, factor: float, context: dict) -> BoundReport:
    """Assemble a report, deriving ``holds`` from the comparison rule."""
    holds = bool(lhs <= rhs + COMPARISON_SLACK * max(1.0, rhs))
    return BoundReport(name=name, lhs=float(lhs), rhs=float(rhs),
                       factor=float(factor), holds=holds, context=dict(context))


def _check_gamma(gamma: float) -> None:
    if not gamma >= 1.0:
        raise ArgumentError(f"gamma must be at least 1, got {gamma}")


def _check_k(k: int) -> None:
    # k counts singular vectors; at k <= 0 sqrt(k/r) or ln(20 k) is
    # undefined, and NaN fails the comparison too
    if not k >= 1:
        raise ArgumentError(f"k must be at least 1, got {k}")


def _leverage_width(k: int) -> float:
    # 16 k ln(20 k), Theorem 3's first-stage sample count before rounding
    # up; theorem3_factor and pipelines.stage1_width both read it here
    _check_k(k)
    return 16.0 * k * math.log(20.0 * k)


def theorem1_factor(k: int, r: int, gamma: float) -> float:
    """Guarantee for supervised selection: ``1 + 4*gamma / (1 - sqrt(k/r))^2``.

    The clustering found on the r selected features is at most this factor
    worse (in the original space) than the input clustering.
    """
    _check_gamma(gamma)
    _check_k(k)
    _window(k, r)
    return 1.0 + 4.0 * gamma / (1.0 - math.sqrt(k / r)) ** 2


def theorem2_factor(n: int, k: int, r: int, gamma: float) -> float:
    """Guarantee for deterministic unsupervised selection.

    ``1 + 4*gamma * (1 + sqrt(n/r))^2 / (1 - sqrt(k/r))^2`` relative to the
    optimal clustering cost of the full data.
    """
    _check_gamma(gamma)
    _check_k(k)
    _window(k, r, n)
    return 1.0 + 4.0 * gamma * (1.0 + math.sqrt(n / r)) ** 2 / (1.0 - math.sqrt(k / r)) ** 2


def theorem3_factor(k: int, r: int, gamma: float) -> float:
    """Guarantee for randomized selection (holds with probability 0.4).

    ``15 + 320*gamma * ((1 + sqrt(16*k*log(20k)/r)) / (1 - sqrt(k/r)))^2``
    with the natural logarithm.
    """
    _check_gamma(gamma)
    _window(k, r)
    num = 1.0 + math.sqrt(_leverage_width(k) / r)
    den = 1.0 - math.sqrt(k / r)
    return 15.0 + 320.0 * gamma * (num / den) ** 2


def structural_check(
    a,
    z,
    in_clust: Clustering,
    out_clust: Clustering,
    plan: SamplingPlan,
    gamma: float,
) -> BoundReport:
    """Check the structural inequality behind every selection guarantee.

    With residual ``e = a - a z z.T`` and a column plan realizing
    ``omega s``, verifies

        ||a - x_out x_out.T a||_F^2
            <= ||e||_F^2 + 2*gamma * (||(a - x_in x_in.T a) omega s||_F^2
                                      + ||e omega s||_F^2) / sigma_k(z.T omega s)^2

    for any indicator matrices ``x_in``, ``x_out`` where ``x_out`` came from
    a gamma-approximate clustering of the reduced matrix.  Requires
    ``z.T omega s`` to have full rank k; otherwise the report is marked
    inapplicable (``context["applicable"] = False``, ``holds = False``).

    Both clustering costs come from :func:`~kmselect.kmeans.objective`:
    the left side is ``objective(a, out_clust)``, and the sampled term is
    ``objective(apply_plan(a, plan), in_clust)``, since projecting the rows
    commutes with sampling the columns.  Beyond the input, the check holds
    one m x n array at a time: the residual ``e``, sampled and then squared
    in place, or a cost's scratch.  It reads the extremes of an m x n array
    three times: its own rescale, the left side's and the residual's.

    Both sides are homogeneous of degree 2 in *a*: the verdict is taken on
    *a* rescaled by the package's one scaling rule, and the sides are
    reported at the caller's scale, or raise :class:`ContractViolationError`
    beyond the float64 range.
    """
    _check_gamma(gamma)
    a = _as_2d(a)
    z = as_matrix(z)
    m, n = a.shape
    k = z.shape[1]
    # every argument is checked before the entries of a are read, with the
    # messages of the calls below
    _require_orthonormal_rows(z.T, "z.T")
    _require_covers(out_clust, m)
    _require_basis_rows(z, n)
    _require_source_dim(plan, n)
    _require_covers(in_clust, m)
    a, scale = _rescaled(a)
    lhs = objective(a, out_clust)
    e = residual(a, z)
    context = {"m": m, "n": n, "k": k, "r": plan.target_dim, "gamma": float(gamma)}
    sig = singular_values(apply_plan(z.T, plan))
    applicable = bool(sig.size >= k and sig[k - 1] > 0.0)
    rhs = float("nan")  # fails every comparison, so an inapplicable report never holds
    if applicable:
        # apply_plan(z.T, plan) has checked the plan against the n columns
        # of a and e, and both are finite: gather without another read
        columns = _columns(plan)
        sampled = objective(_gather(a, *columns), in_clust) + np.square(_gather(e, *columns)).sum()
        rhs = float(np.square(e, out=e).sum() + 2.0 * gamma * sampled / sig[k - 1] ** 2)
    context["applicable"] = applicable
    report = bound_report("structural-bound", lhs, rhs, gamma, context)
    what = "structural bound"
    return replace(report, lhs=_at_scale(lhs, 2 * scale, what), rhs=_at_scale(rhs, 2 * scale, what))
