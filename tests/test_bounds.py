import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from kmselect import linalg
from kmselect.bounds import (
    bound_report,
    structural_check,
    theorem1_factor,
    theorem2_factor,
    theorem3_factor,
)
from kmselect.errors import ArgumentError, ContractViolationError
from kmselect.kmeans import Clustering, brute_force_optimal, from_labels, objective
from kmselect.linalg import svd_top_k
from kmselect.sparsify import SamplingPlan, apply_plan, identity_plan
from kmselect.pipelines import unsupervised_select


# ---------------------------------------------------------------------------
# closed-form factors
# ---------------------------------------------------------------------------


def test_theorem1_factor_values():
    assert theorem1_factor(5, 20, 1.0) == pytest.approx(17.0, abs=1e-12)
    assert theorem1_factor(2, 4, 1.0) == pytest.approx(47.62741699796952, abs=1e-9)


def test_theorem1_factor_limit_and_monotonicity():
    assert theorem1_factor(3, 10**12, 2.0) == pytest.approx(1.0 + 8.0, rel=1e-5)
    grid = [theorem1_factor(3, r, 1.0) for r in range(4, 200)]
    assert all(a > b for a, b in zip(grid, grid[1:]))


def test_theorem1_factor_errors():
    with pytest.raises(ArgumentError):
        theorem1_factor(4, 4, 1.0)
    with pytest.raises(ArgumentError):
        theorem1_factor(2, 8, 0.5)


def test_theorem2_factor_values():
    assert theorem2_factor(8, 2, 4, 1.0) == pytest.approx(272.7645019878172, abs=1e-9)
    expected = 1.0 + 4.0 * (1.0 + math.sqrt(100.0)) ** 2 / (1.0 - math.sqrt(0.1)) ** 2
    assert theorem2_factor(5000, 5, 50, 1.0) == pytest.approx(expected, abs=1e-9)


def test_theorem2_factor_monotone_in_n():
    vals = [theorem2_factor(n, 2, 8, 1.0) for n in range(9, 100)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_theorem2_factor_errors():
    with pytest.raises(ArgumentError):
        theorem2_factor(8, 2, 8, 1.0)
    with pytest.raises(ArgumentError):
        theorem2_factor(8, 4, 4, 1.0)


def test_theorem3_factor_value():
    # 15 + 320 * ((1 + sqrt(32 ln 40 / 30)) / (1 - sqrt(2/30)))^2, natural log
    assert theorem3_factor(2, 30, 1.0) == pytest.approx(5191.857156119694, abs=1e-6)
    # and bit for bit the closed form, however the sum is shared
    for k, r, gamma in [(2, 30, 1.0), (3, 7, 1.5), (10, 400, 2.0), (1, 2, 1.0)]:
        num = 1.0 + math.sqrt(16.0 * k * math.log(20.0 * k) / r)
        den = 1.0 - math.sqrt(k / r)
        assert theorem3_factor(k, r, gamma) == 15.0 + 320.0 * gamma * (num / den) ** 2


def test_theorem3_factor_errors():
    for k, r, gamma in [(4, 4, 1.0), (5, 3, 1.0), (2, 8, 0.5)]:
        with pytest.raises(ArgumentError):
            theorem3_factor(k, r, gamma)


def test_theorem_factors_refuse_k_below_one():
    # at k <= 0 sqrt(k/r) or ln(20 k) is undefined: k < 1 is an argument
    # error, not a bare "math domain error"
    calls = [
        lambda: theorem1_factor(-1, 5, 1.0),
        lambda: theorem1_factor(0, 5, 1.0),
        lambda: theorem2_factor(8, -1, 4, 1.0),
        lambda: theorem2_factor(8, 0, 4, 1.0),
        lambda: theorem3_factor(0, 5, 1.0),
        lambda: theorem3_factor(0.5, 5, 1.0),
    ]
    for call in calls:
        with pytest.raises(ArgumentError, match="k must be at least 1"):
            call()
    # the numbers accepted before are accepted as they were
    assert theorem1_factor(2.0, 8, 1.0) == theorem1_factor(2, 8, 1.0)
    assert theorem2_factor(8, np.int64(2), 4, 1.0) == theorem2_factor(8, 2, 4, 1.0)


def test_theorem3_factor_limit():
    assert theorem3_factor(2, 10**14, 1.0) == pytest.approx(335.0, rel=1e-4)


def test_theorem3_factor_monotone_decreasing_in_r():
    k = 6
    upper = math.ceil(4 * k * math.log(k))
    grid = [theorem3_factor(k, r, 1.0) for r in range(k + 1, upper + 1)]
    assert all(a > b for a, b in zip(grid, grid[1:]))


@pytest.mark.parametrize("call", [
    lambda: theorem1_factor(math.nan, 5, 1.0),
    lambda: theorem1_factor(2, math.nan, 1.0),
    lambda: theorem2_factor(math.nan, 2, 5, 1.0),
    lambda: theorem2_factor(8, math.nan, 5, 1.0),
    lambda: theorem2_factor(8, 2, math.nan, 1.0),
    lambda: theorem3_factor(math.nan, 5, 1.0),
    lambda: theorem3_factor(2, math.nan, 1.0),
], ids=["t1-k", "t1-r", "t2-n", "t2-k", "t2-r", "t3-k", "t3-r"])
def test_theorem_factors_refuse_a_nan_count(call):
    # every range test is False on NaN, so each is written to fail on it:
    # a NaN factor would make bound_report say the bound fails, with no error
    with pytest.raises(ArgumentError, match="got .*nan"):
        call()


def test_supervision_always_helps():
    for n in (10, 50, 300):
        for k in (2, 3, 5):
            for r in range(k + 1, n):
                for gamma in (1.0, 2.5):
                    assert theorem1_factor(k, r, gamma) < theorem2_factor(n, k, r, gamma)


# ---------------------------------------------------------------------------
# BoundReport
# ---------------------------------------------------------------------------


def test_bound_report_holds_rule():
    assert bound_report("x", 1.0, 1.0, 1.0, {}).holds
    assert bound_report("x", 1.0 + 5e-10, 1.0, 1.0, {}).holds  # inside slack
    assert not bound_report("x", 1.1, 1.0, 1.0, {}).holds


def test_bound_report_json():
    rep = bound_report("demo", 1.0, 2.0, 3.0, {"m": 4})
    data = json.loads(json.dumps(rep.to_dict()))
    assert data == {
        "name": "demo",
        "lhs": 1.0,
        "rhs": 2.0,
        "factor": 3.0,
        "holds": True,
        "context": {"m": 4},
    }


def test_bound_report_dict_is_asdict_with_its_own_context():
    rep = bound_report("demo", 1.0, 2.0, 3.0, {"m": 4, "gamma": 1.0, "seed": None})
    data = rep.to_dict()
    assert data == dataclasses.asdict(rep)
    assert list(data) == [field.name for field in dataclasses.fields(rep)]
    data["context"]["m"] = 5
    data["context"]["extra"] = True
    assert rep.context == {"m": 4, "gamma": 1.0, "seed": None}


# ---------------------------------------------------------------------------
# structural inequality
# ---------------------------------------------------------------------------


def test_structural_identity_plan(rng):
    a = rng.standard_normal((9, 6))
    k = 2
    top = svd_top_k(a, k)
    opt = brute_force_optimal(a, k)
    rep = structural_check(a, top.v, opt, opt, identity_plan(6), 1.0)
    assert rep.context["applicable"]
    assert rep.holds
    assert rep.lhs <= rep.rhs


def test_structural_zero_error_dataset(rng):
    base = rng.standard_normal((2, 5))
    a = np.vstack([base, base, base])  # two distinct rows repeated
    c = Clustering(6, 2, (1, 2, 1, 2, 1, 2))
    top = svd_top_k(a, 2)
    rep = structural_check(a, top.v, c, c, identity_plan(5), 1.0)
    assert rep.lhs == pytest.approx(0.0, abs=1e-18)
    assert rep.holds


def test_structural_pipeline_produced_plans(rng):
    for t in range(20):
        local = np.random.default_rng(900 + t)
        a = local.standard_normal((10, 8))
        fs = unsupervised_select(a, 2, 4)
        opt = brute_force_optimal(a, 2)
        out = brute_force_optimal(fs.reduced, 2)
        rep = structural_check(a, fs.basis, opt, out, fs.plan, 1.0)
        assert rep.context["applicable"] and rep.holds


def test_structural_matches_special_case_evaluation(rng):
    # with the exact top-k right singular basis, the general evaluation and
    # a directly coded specialization agree term by term
    a = rng.standard_normal((10, 7))
    k, r = 2, 4
    fs = unsupervised_select(a, k, r)
    opt = brute_force_optimal(a, k)
    out = brute_force_optimal(fs.reduced, k)
    top = svd_top_k(a, k)
    rep = structural_check(a, top.v, opt, out, fs.plan, 1.0)

    from kmselect.kmeans import indicator
    from kmselect.linalg import sigma_k

    e = a - (a @ top.v) @ top.v.T
    x_in = indicator(opt)
    x_out = indicator(out)
    lhs = float(np.square(a - x_out @ (x_out.T @ a)).sum())
    sig = sigma_k(apply_plan(top.v.T, fs.plan), k)
    rhs = float(
        np.square(e).sum()
        + 2.0
        * (
            np.square(apply_plan(a - x_in @ (x_in.T @ a), fs.plan)).sum()
            + np.square(apply_plan(e, fs.plan)).sum()
        )
        / sig**2
    )
    assert rep.lhs == pytest.approx(lhs, rel=1e-12)
    assert rep.rhs == pytest.approx(rhs, rel=1e-12)


def test_structural_inapplicable_when_rank_drops(rng):
    a = rng.standard_normal((8, 6))
    k = 2
    top = svd_top_k(a, k)
    opt = brute_force_optimal(a, k)
    degenerate = SamplingPlan(6, 3, (2, 2, 2), (1.0, 1.0, 1.0))
    rep = structural_check(a, top.v, opt, opt, degenerate, 1.0)
    assert rep.context["applicable"] is False
    assert not rep.holds
    assert math.isnan(rep.rhs)


@pytest.mark.parametrize("seed", [0, 7])
def test_structural_verdict_is_invariant_to_power_of_two_scaling(seed):
    # out interleaves the two blobs, so it is no gamma-approximate clustering
    # of the reduced matrix: at seed 7 the inequality fails, at seed 0 it holds
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((10, 8))
    a[:5] += 4.0
    fs = unsupervised_select(a, 2, 4)
    opt = brute_force_optimal(a, 2)
    out = Clustering(10, 2, (1, 2) * 5)
    ref = structural_check(a, fs.basis, opt, out, fs.plan, 1.0)
    assert ref.holds == (seed == 0)
    for j in (-600, -300, 300):
        rep = structural_check(np.ldexp(a, j), fs.basis, opt, out, fs.plan, 1.0)
        assert rep.holds == ref.holds
        # reported at the caller's scale, rounded once (to 0 at 2**-1200)
        assert rep.lhs == math.ldexp(ref.lhs, 2 * j)
        assert rep.rhs == math.ldexp(ref.rhs, 2 * j)
    with pytest.raises(ContractViolationError, match="float64 range"):
        structural_check(np.ldexp(a, 600), fs.basis, opt, out, fs.plan, 1.0)


def test_structural_rejects_bad_basis(rng):
    a = rng.standard_normal((8, 6))
    opt = brute_force_optimal(a, 2)
    with pytest.raises(ArgumentError):
        structural_check(a, rng.standard_normal((6, 2)), opt, opt, identity_plan(6), 1.0)
    with pytest.raises(ArgumentError):
        structural_check(a, svd_top_k(a, 2).v, opt, opt, identity_plan(6), 0.5)


def _structural_instance(rng, m, n, k, r):
    a = rng.standard_normal((m, n))
    fs = unsupervised_select(a, k, r)
    labels = np.arange(m) % k + 1
    given = from_labels(labels, k)
    out = from_labels(rng.permutation(labels), k)
    return a, fs, given, out


def test_structural_lhs_is_the_objective(rng):
    # the left side is the package's clustering cost, bit for bit
    for m, n in ((12, 9), (60, 40)):
        a, fs, given, out = _structural_instance(rng, m, n, 3, 6)
        rep = structural_check(a, fs.basis, given, out, fs.plan, 1.0)
        assert rep.lhs == objective(a, out)


def test_structural_check_reads_its_matrix_three_times(rng, monkeypatch):
    # its own rescale, the left side's objective and the residual read the
    # extremes of an m x n array; the sampled terms gather the columns of a
    # and e without another read
    a, fs, given, out = _structural_instance(rng, 400, 300, 5, 40)
    reads, read = [], linalg._scale_exponent

    def counted(x):
        if x.shape == a.shape:
            reads.append(x.shape)
        return read(x)

    monkeypatch.setattr(linalg, "_scale_exponent", counted)
    structural_check(a, fs.basis, given, out, fs.plan, 1.0)
    assert len(reads) == 3


def test_structural_check_holds_one_scratch_array(rng):
    # one m x n array at a time beyond the input: the residual, or a cost's
    # scratch, plus r-column samples
    a, fs, given, out = _structural_instance(rng, 400, 300, 5, 40)
    tracemalloc.start()
    try:
        structural_check(a, fs.basis, given, out, fs.plan, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * a.nbytes
