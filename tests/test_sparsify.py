import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from kmselect import sparsify
from kmselect.errors import ArgumentError, ContractViolationError, NumericalSearchError
from kmselect.linalg import _rescaled, _scale_exponent, sigma_k, spectral_norm
from kmselect.sparsify import (
    SamplingPlan,
    apply_plan,
    deterministic_sampling_one,
    deterministic_sampling_two,
    identity_plan,
    leverage_scores,
    randomized_sampling,
)

from conftest import orthonormal_rows


# ---------------------------------------------------------------------------
# SamplingPlan
# ---------------------------------------------------------------------------


def test_plan_validation():
    with pytest.raises(ArgumentError):
        SamplingPlan(3, 2, (1,), (1.0, 1.0))  # wrong index count
    with pytest.raises(ArgumentError):
        SamplingPlan(3, 2, (0, 1), (1.0, 1.0))  # index below 1
    with pytest.raises(ArgumentError):
        SamplingPlan(3, 2, (1, 4), (1.0, 1.0))  # index above source_dim
    with pytest.raises(ArgumentError):
        SamplingPlan(3, 2, (1, 2), (1.0, 0.0))  # non-positive weight


def _tupled(plan):
    # a plan built from JSON holds lists; equality compares its tuples
    return dataclasses.replace(plan, indices=tuple(plan.indices), weights=tuple(plan.weights))


def test_plan_json_round_trip():
    plan = SamplingPlan(5, 3, (2, 2, 5), (0.5, 1.5, 2.0))
    text = json.dumps(plan.to_dict())
    again = SamplingPlan(**json.loads(text))
    assert _tupled(again) == plan
    assert json.loads(text) == {
        "source_dim": 5,
        "target_dim": 3,
        "indices": [2, 2, 5],
        "weights": [0.5, 1.5, 2.0],
    }


@pytest.mark.parametrize("args, match", [
    ((4, 1, (1.7,), (1.0,)), "plan index must be an integer"),
    ((4, 1, ("2",), (1.0,)), "plan index must be an integer"),
    ((4, 1, (np.float64(2.0),), (1.0,)), "plan index must be an integer"),
    ((4.5, 1, (1,), (1.0,)), "source_dim must be an integer"),
    ((4, 1.0, (1,), (1.0,)), "target_dim must be an integer"),
    ((4, 1, (1,), (math.inf,)), "finite and positive"),
    ((4, 1, (1,), (np.float64(np.inf),)), "finite and positive"),
    ((4, 2, (1, 2), (1.0, 1e309)), "finite and positive"),
    ((0, 0, (), ()), "source_dim must be at least 1, got 0"),
    ((4, 1, (2,), ("0.5",)), "finite and positive"),
    ((4, 1, (2,), (True,)), "finite and positive"),
    ((4, 1, (2,), (np.True_,)), "finite and positive"),
    ((4, 1, (2,), (None,)), "finite and positive"),
    ((True, True, (True,), (1.0,)), "source_dim must be an integer, got True"),
    ((4, 1, (True,), (1.0,)), "plan index must be an integer, got True"),
    # the first bad pick is named, whichever rule it breaks
    ((4, 3, (2, 7, 1.5), (1.0,) * 3), "plan index must be at least 1 and at most 4, got 7"),
    ((4, 3, (2, 1.5, 7), (1.0,) * 3), "plan index must be an integer, got 1.5"),
    ((4, 3, (2, 0, True), (1.0,) * 3), "plan index must be at least 1 and at most 4, got 0"),
    ((4, 3, (2, 3, 4), (1.0, math.nan, 1.0)), "finite and positive"),
    ((4, 3, (2, 3, 4), (1.0, 2.0, 0.0)), "finite and positive"),
], ids=["float-index", "str-index", "numpy-float-index", "float-source-dim",
        "float-target-dim", "inf-weight", "numpy-inf-weight", "overflowed-weight",
        "zero-dims", "str-weight", "bool-weight", "numpy-bool-weight", "none-weight",
        "bool-dims", "bool-index", "range-before-type", "type-before-range",
        "zero-before-bool", "nan-weight", "zero-weight"])
def test_plan_refuses_non_integer_positions_and_infinite_weights(args, match):
    with pytest.raises(ArgumentError, match=match):
        SamplingPlan(*args)


@pytest.mark.parametrize("text, match", [
    ('{"source_dim": 4, "target_dim": 1, "indices": [2.9], "weights": [1.0]}',
     "plan index must be an integer"),
    ('{"source_dim": 4.0, "target_dim": 1, "indices": [2], "weights": [1.0]}',
     "source_dim must be an integer"),
    ('{"source_dim": "4", "target_dim": 1, "indices": [2], "weights": [1.0]}',
     "source_dim must be an integer"),
    ('{"source_dim": 4, "target_dim": 1, "indices": [2], "weights": [Infinity]}',
     "finite and positive"),
    ('{"source_dim": 4, "target_dim": 1, "indices": [2], "weights": ["0.5"]}',
     "finite and positive"),
    ('{"source_dim": 4, "target_dim": 1, "indices": [2], "weights": [true]}',
     "finite and positive"),
], ids=["float-index", "float-dim", "str-dim", "infinite-weight", "str-weight", "bool-weight"])
def test_plan_from_json_refuses_rather_than_truncates(text, match):
    with pytest.raises(ArgumentError, match=match):
        SamplingPlan(**json.loads(text))


def test_plan_takes_numpy_integers_and_floats():
    plan = SamplingPlan(np.int64(4), np.int32(2), (np.int64(4), 1), (np.float64(0.5), 2))
    assert _tupled(SamplingPlan(**json.loads(json.dumps(plan.to_dict())))) == plan
    np.testing.assert_array_equal(
        apply_plan(np.arange(8.0).reshape(2, 4), plan), [[1.5, 0.0], [3.5, 8.0]]
    )


def test_plan_checks_its_picks_without_a_call_per_pick(monkeypatch):
    rng = np.random.default_rng(0)
    idx, w = rng.integers(0, 300, 120), rng.random(120) + 0.5
    calls, check = [], sparsify._valid_int

    def counted(*args):
        calls.append(args[1])
        return check(*args)

    monkeypatch.setattr(sparsify, "_valid_int", counted)
    plan = sparsify._plan(300, idx, w)
    assert len(calls) <= 3
    assert plan.indices == tuple(int(i) + 1 for i in idx)
    assert plan.weights == tuple(float(x) for x in w)
    assert all(type(i) is int for i in plan.indices)
    assert all(type(x) is float for x in plan.weights)


@pytest.mark.parametrize("n, match", [
    (2.5, "n must be an integer, got 2.5"),
    ("3", "n must be an integer, got '3'"),
    (None, "n must be an integer, got None"),
    (True, "n must be an integer, got True"),
    (0, "n must be at least 1, got 0"),
    (-2, "n must be at least 1, got -2"),
], ids=["float", "str", "none", "bool", "zero", "negative"])
def test_identity_plan_refuses_a_non_integer_or_empty_width(n, match):
    with pytest.raises(ArgumentError, match=match):
        identity_plan(n)


def test_identity_plan_takes_a_numpy_integer():
    plan = identity_plan(np.int64(3))
    assert plan == identity_plan(3)
    assert type(plan.target_dim) is int


def test_apply_plan_direct_construction():
    a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    plan = SamplingPlan(3, 2, (3, 1), (0.5, 1.0))
    np.testing.assert_allclose(apply_plan(a, plan), [[1.5, 1.0], [3.0, 4.0]])


def test_apply_identity_plan(rng):
    a = rng.standard_normal((4, 6))
    np.testing.assert_array_equal(apply_plan(a, identity_plan(6)), a)


def test_apply_plan_matches_gather_and_scale_oracle(rng):
    a = rng.standard_normal((5, 7))
    idx = tuple(int(i) for i in rng.integers(1, 8, size=4))
    w = tuple(float(x) for x in rng.uniform(0.1, 2.0, size=4))
    plan = SamplingPlan(7, 4, idx, w)
    got = apply_plan(a, plan)
    for j in range(4):
        np.testing.assert_array_equal(got[:, j], a[:, idx[j] - 1] * w[j])


def test_apply_plan_beyond_the_float64_range_is_a_contract_violation():
    a = np.array([[1e308, 1.0], [-1e308, 2.0]])
    with pytest.raises(ContractViolationError, match="exceeds the float64 range"):
        apply_plan(a, SamplingPlan(2, 2, (2, 1), (1.0, 2.0)))
    np.testing.assert_array_equal(apply_plan(a, SamplingPlan(2, 1, (1,), (0.5,))), a[:, :1] / 2)


def test_apply_plan_dimension_mismatch(rng):
    with pytest.raises(ArgumentError):
        apply_plan(rng.standard_normal((3, 4)), identity_plan(5))


def _pairwise_sq_dists(x):
    return np.square(x[:, None, :] - x[None, :, :]).sum(axis=2)


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
def test_merged_columns_keep_every_pairwise_squared_distance(rng, scale):
    # the merged weights are root-sum-squares, so each distance is the sum
    # of the same positive terms, grouped and rounded otherwise: 1e-12
    # relative covers that rounding many times over
    for _ in range(20):
        a = rng.standard_normal((9, 12)) * scale
        r = int(rng.integers(2, 30))
        plan = SamplingPlan(12, r, tuple(int(i) for i in rng.integers(1, 6, size=r)),
                            tuple(float(w) for w in rng.uniform(0.1, 3.0, size=r)))
        merged = sparsify._merged(a, plan)
        assert merged.shape == (9, len(set(plan.indices)))
        np.testing.assert_allclose(_pairwise_sq_dists(merged / scale),
                                   _pairwise_sq_dists(apply_plan(a, plan) / scale), rtol=1e-12)


def test_merged_columns_of_a_plan_without_repeats_are_apply_plans_bit_for_bit(rng):
    for scale in (1.0, 1e200, 1e-200):
        a = rng.standard_normal((7, 10)) * scale
        picks = rng.permutation(10)[:6] + 1
        w = rng.uniform(1e-3, 1e3, size=6)
        plan = SamplingPlan(10, 6, tuple(int(i) for i in picks), tuple(float(x) for x in w))
        got = sparsify._merged(a, plan)
        np.testing.assert_array_equal(got, apply_plan(a, plan))
        assert got.dtype == np.float64 and got.shape == (7, 6)


def test_merged_columns_come_in_first_occurrence_order():
    a = np.arange(1.0, 13.0).reshape(3, 4)
    plan = SamplingPlan(4, 6, (3, 1, 3, 4, 1, 3), (2.0, 1.0, 1.0, 0.5, 1.0, 2.0))
    np.testing.assert_array_equal(
        sparsify._merged(a, plan), a[:, [2, 0, 3]] * np.array([3.0, math.sqrt(2.0), 0.5]))


def test_merged_weights_do_not_overflow_but_a_merged_column_beyond_float64_raises():
    a = np.array([[1.0, 2.0], [3.0, -4.0]])
    plan = SamplingPlan(2, 3, (2, 2, 1), (1e200, 1e200, 1e200))
    np.testing.assert_array_equal(sparsify._merged(a, plan),
                                  a[:, [1, 0]] * np.array([math.hypot(1e200, 1e200), 1e200]))
    # each pick of column 1 alone stays finite, their merge does not
    a = np.array([[1.5e108, 1.0], [-1.0, 1.0]])
    plan = SamplingPlan(2, 3, (1, 1, 2), (1e200, 1e200, 1.0))
    assert np.isfinite(apply_plan(a, plan)).all()
    with pytest.raises(ContractViolationError, match="exceeds the float64 range"):
        sparsify._merged(a, plan)


# ---------------------------------------------------------------------------
# barrier gains and barrier checks
# ---------------------------------------------------------------------------


def _inverse_oracle(m, g, barrier, shifted):
    # g.T (M - s I)^{-2} g / dphi  -  g.T (M - s I)^{-1} g with explicit inverses
    lam = np.linalg.eigvalsh(m)
    inv = np.linalg.inv(m - shifted * np.eye(m.shape[0]))
    dphi = float(np.sum(1.0 / (lam - shifted)) - np.sum(1.0 / (lam - barrier)))
    return float(g @ inv @ inv @ g) / dphi - float(g @ inv @ g)


def _eigen_g2(m, g):
    # squared coordinates of the columns of g in the eigenbasis of m
    lam, vecs = np.linalg.eigh(m)
    return lam, np.square(vecs.T @ g)


def test_lower_gain_scalar_closed_form():
    # c=3, barrier 0, shift 1: 1/4 / (1/2 - 1/3) - 1/2 = 1.0
    for g2 in (np.array([[1.0]]), None):
        got = sparsify._gains(np.array([3.0]), g2, 0.0, 1.0, 0)
        np.testing.assert_allclose(got, [1.0], atol=1e-12)


def test_lower_gain_zero_vector():
    got = sparsify._gains(np.array([3.0, 4.0]), np.zeros((2, 1)), 0.0, 1.0, 0)
    np.testing.assert_allclose(got, [0.0], atol=1e-15)


def test_lower_gain_matches_explicit_inverse_oracle(rng):
    g = rng.standard_normal((3, 3))
    m = g @ g.T + 3.0 * np.eye(3)
    v = rng.standard_normal((3, 4))
    barrier, shifted = 0.5, 1.5
    expected = [_inverse_oracle(m, v[:, j], barrier, shifted) for j in range(4)]
    lam, g2 = _eigen_g2(m, v)
    np.testing.assert_allclose(sparsify._gains(lam, g2, barrier, shifted, 0), expected, atol=1e-8)


def test_upper_gain_spec_scalar_closed_form():
    # 0 below barrier 2, shift 1: 1/9 / (1/2 - 1/3) + 1/3 = 1.0
    for g2 in (np.array([[1.0]]), None):
        got = sparsify._gains(np.array([0.0]), g2, 2.0, 3.0, 0)
        np.testing.assert_allclose(got, [1.0], atol=1e-12)


def test_upper_gain_spec_zero_vector():
    got = sparsify._gains(np.zeros(2), np.zeros((2, 1)), 2.0, 3.0, 0)
    np.testing.assert_allclose(got, [0.0], atol=1e-15)


def test_upper_gain_spec_matches_explicit_inverse_oracle(rng):
    g = rng.standard_normal((3, 3))
    m = g @ g.T
    q = rng.standard_normal((3, 4))
    barrier = float(np.linalg.eigvalsh(m)[-1]) + 0.5
    shifted = barrier + 1.0
    expected = [_inverse_oracle(m, q[:, j], barrier, shifted) for j in range(4)]
    lam, g2 = _eigen_g2(m, q)
    np.testing.assert_allclose(sparsify._gains(lam, g2, barrier, shifted, 0), expected, atol=1e-8)


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_gains_identity_form_matches_explicit_inverse_oracle(side):
    # g2=None scores the standard basis vectors against an unsorted diagonal
    lam = np.array([2.5, 0.75, 1.5, 0.0, 3.0])
    barrier, shifted = (-1.0, -0.5) if side == "lower" else (3.5, 4.25)
    m = np.diag(lam)
    eye = np.eye(lam.size)
    expected = [_inverse_oracle(m, eye[:, j], barrier, shifted) for j in range(lam.size)]
    got = sparsify._gains(lam, None, barrier, shifted, 0)
    np.testing.assert_allclose(got, expected, rtol=1e-12)
    np.testing.assert_allclose(sparsify._gains(lam, eye, barrier, shifted, 0), got, rtol=1e-12)


def test_gains_report_a_vanished_potential_difference_per_side():
    # a barrier step lost to rounding leaves the potential difference at 0
    with pytest.raises(NumericalSearchError, match="lower potential difference vanished") as err:
        sparsify._gains(np.array([1e20]), None, 0.0, 1.0, 4)
    assert err.value.step == 4
    assert err.value.diagnostics == {"barrier": 0.0, "lambda_min": 1e20}
    with pytest.raises(NumericalSearchError, match="upper potential difference vanished") as err:
        sparsify._gains(np.array([0.0]), np.ones((1, 2)), 1e20, 1e20 + 1.0, 4)
    assert err.value.step == 4
    assert err.value.diagnostics == {"barrier": 1e20, "lambda_max": 0.0}


def test_lower_potential_barrier_violation():
    # the lower potential is undefined once the spectrum reaches the barrier
    with pytest.raises(NumericalSearchError, match="lower barrier crossed") as err:
        sparsify._check_lower_barrier(2.0, 2.5, 3)
    assert err.value.step == 3
    assert err.value.diagnostics == {"barrier": 2.5, "lambda_min": 2.0}
    sparsify._check_lower_barrier(2.5 * (1.0 - 1e-12), 2.5, 3)  # roundoff is tolerated


def test_upper_potential_barrier_violation():
    # strict: a spectrum touching the upper barrier already violates it
    with pytest.raises(NumericalSearchError, match="upper barrier crossed"):
        sparsify._check_upper_barrier(3.0, 3.0, 0)
    sparsify._check_upper_barrier(3.0 * (1.0 - 1e-12), 3.0, 0)


def test_lower_gain_barrier_violation(rng):
    # with r = k = 1 the shifted lower barrier starts at lambda_min = 0
    v_rows = orthonormal_rows(rng, 1, 5)
    with pytest.raises(NumericalSearchError, match="shifted lower barrier") as err:
        sparsify._dual_set_loop(v_rows, 1, lambda tau, w: np.zeros(5))
    assert err.value.step == 0
    assert err.value.diagnostics == {"barrier": -1.0, "lambda_min": 0.0}


def test_upper_gain_spec_barrier_violation():
    # the spectral upper side reports the crossing with lambda_max
    n, k, r = 4, 1, 2
    delta = (1.0 + math.sqrt(n / r)) / (1.0 - math.sqrt(k / r))
    w = np.zeros(n)
    w[2] = 1e6
    with pytest.raises(NumericalSearchError, match="upper barrier crossed") as err:
        sparsify._identity_upper(n, k, r)(0, w)
    assert err.value.step == 0
    assert err.value.diagnostics["lambda_max"] == 1e6
    assert err.value.diagnostics["barrier"] == delta * math.sqrt(n * r)


def test_no_admissible_column_reports_diagnostics(rng):
    v_rows = orthonormal_rows(rng, 3, 20)
    charges = np.full(20, 1e300)
    with pytest.raises(NumericalSearchError, match="no admissible column") as err:
        sparsify._dual_set_loop(v_rows, 6, lambda tau, w: charges)
    diagnostics = err.value.diagnostics
    assert err.value.step == 0
    assert set(diagnostics) == {"barrier", "lambda_min", "max_gap"}
    assert diagnostics["barrier"] == -math.sqrt(18.0)
    assert diagnostics["lambda_min"] == 0.0
    assert diagnostics["max_gap"] < 0.0


def _full_scan_loop(v_rows, r, upper):
    # the reference loop: every column scored on both sides at every step,
    # then the first admissible one taken
    sparsify._require_orthonormal_rows(v_rows, "v_rows")
    k, n = v_rows.shape
    sqrt_rk = math.sqrt(r * k)
    accum = np.zeros((k, k))
    w = np.zeros(n)
    picked, t_vals = [], []
    for tau in range(r):
        ell = tau - sqrt_rk
        lam, vecs = np.linalg.eigh(accum)
        sparsify._check_lower_barrier(float(lam[0]), ell, tau)
        if lam[0] <= ell + 1.0:
            raise NumericalSearchError("shifted lower barrier reached the spectrum", step=tau,
                                       diagnostics={"barrier": ell, "lambda_min": float(lam[0])})
        lower_vals = sparsify._gains(lam, np.square(vecs.T @ v_rows), ell, ell + 1.0, tau)
        upper_vals = upper(tau, w)
        hits = np.flatnonzero((upper_vals <= lower_vals) & (upper_vals + lower_vals > 0.0))
        if hits.size == 0:
            raise NumericalSearchError("no admissible column", step=tau, diagnostics={
                "barrier": ell, "lambda_min": float(lam[0]),
                "max_gap": float((lower_vals - upper_vals).max())})
        i = int(hits[0])
        t = 2.0 / (upper_vals[i] + lower_vals[i])
        accum += t * np.outer(v_rows[:, i], v_rows[:, i])
        w[i] += t
        picked.append(i)
        t_vals.append(t)
    return sparsify._plan(n, picked, np.sqrt(np.array(t_vals) * ((1.0 - math.sqrt(k / r)) / r)))


def _frobenius_upper(rng, n, k, r, heavy):
    # static charges summing to 1 - sqrt(k/r), with the first *heavy*
    # columns charged 1e300, beyond every lower score
    charges = rng.random(n)
    charges *= (1.0 - math.sqrt(k / r)) / charges.sum()
    charges[:heavy] = 1e300
    return lambda tau, w: charges


def _outcome(loop, v_rows, r, upper):
    # the plan, or the step, message and diagnostics of the search's error
    try:
        return loop(v_rows, r, upper)
    except NumericalSearchError as err:
        return err.step, str(err), err.diagnostics


@pytest.mark.parametrize("k, n, r, side, heavy, picks_from", [
    (3, 600, 24, "identity", 0, 2),
    (3, 600, 24, "frobenius", 300, 301),  # the first pick falls in the second block
    (3, 600, 24, "frobenius", 600, None),  # no block has an admissible column
    # the scan reaches the last block's last few columns, which BLAS rounds
    # in an edge kernel within the whole product at this size
    (40, 700, 60, "frobenius", 697, None),
])
def test_first_hit_scan_gives_the_full_scan_outcome_bit_for_bit(k, n, r, side, heavy, picks_from):
    rng = np.random.default_rng(n + heavy)
    v_rows = orthonormal_rows(rng, k, n)
    upper = (sparsify._identity_upper(n, k, r) if side == "identity"
             else _frobenius_upper(rng, n, k, r, heavy))
    got = _outcome(sparsify._dual_set_loop, v_rows, r, upper)
    assert got == _outcome(_full_scan_loop, v_rows, r, upper)
    if picks_from is None:
        assert got[1] == "no admissible column"
    else:
        assert got.indices[0] == picks_from


# ---------------------------------------------------------------------------
# deterministic sampler, Frobenius cap
# ---------------------------------------------------------------------------


def _check_sampler_one(v_rows, b, r):
    k = v_rows.shape[0]
    plan = deterministic_sampling_one(v_rows, b, r)
    sig = sigma_k(apply_plan(v_rows, plan), k)
    assert sig >= 1.0 - math.sqrt(k / r) - 1e-9
    got = float(np.linalg.norm(apply_plan(b, plan)))
    assert got <= float(np.linalg.norm(b)) + 1e-9
    return plan


def test_sampler_one_bounds_random_instance(rng):
    v_rows = orthonormal_rows(rng, 5, 200)
    b = rng.standard_normal((7, 200))
    _check_sampler_one(v_rows, b, 20)


def test_sampler_one_zero_b(rng):
    v_rows = orthonormal_rows(rng, 3, 40)
    _check_sampler_one(v_rows, np.zeros((2, 40)), 9)


def test_sampler_one_deterministic(rng):
    v_rows = orthonormal_rows(rng, 3, 50)
    b = rng.standard_normal((4, 50))
    assert deterministic_sampling_one(v_rows, b, 12) == deterministic_sampling_one(
        v_rows, b, 12
    )


def test_sampler_one_stacked_blocks(rng):
    v_rows = orthonormal_rows(rng, 3, 60)
    b1 = rng.standard_normal((5, 60))
    b2 = rng.standard_normal((8, 60))
    plan = deterministic_sampling_one(v_rows, np.vstack([b1, b2]), 10)
    lhs = float(np.square(apply_plan(b1, plan)).sum() + np.square(apply_plan(b2, plan)).sum())
    rhs = float(np.square(b1).sum() + np.square(b2).sum())
    assert lhs <= rhs + 1e-9


def test_sampler_one_invariant_under_b_row_permutation(rng):
    # the cap only sees per-column squared norms, so row order cannot matter
    # beyond summation roundoff
    v_rows = orthonormal_rows(rng, 3, 30)
    b = rng.standard_normal((6, 30))
    shuffled = b[rng.permutation(6)]
    plan = deterministic_sampling_one(v_rows, b, 8)
    other = deterministic_sampling_one(v_rows, shuffled, 8)
    assert plan.indices == other.indices
    np.testing.assert_allclose(plan.weights, other.weights, rtol=1e-12)


def test_sampler_one_argument_errors(rng):
    v_rows = orthonormal_rows(rng, 3, 20)
    b = rng.standard_normal((2, 20))
    with pytest.raises(ArgumentError):
        deterministic_sampling_one(v_rows, b, 3)  # r must exceed k
    with pytest.raises(ArgumentError):
        deterministic_sampling_one(v_rows, rng.standard_normal((2, 19)), 6)
    with pytest.raises(ArgumentError):
        deterministic_sampling_one(rng.standard_normal((3, 20)), b, 6)


# ---------------------------------------------------------------------------
# deterministic sampler, spectral cap
# ---------------------------------------------------------------------------


def _check_sampler_two(v_rows, q, r):
    k, n = v_rows.shape
    plan = deterministic_sampling_two(v_rows, q, r)
    sig = sigma_k(apply_plan(v_rows, plan), k)
    assert sig >= 1.0 - math.sqrt(k / r) - 1e-9
    assert spectral_norm(apply_plan(q, plan)) <= 1.0 + math.sqrt(n / r) + 1e-9
    return plan


def test_sampler_two_identity_bounds(rng):
    n = 100
    v_rows = orthonormal_rows(rng, 4, n)
    _check_sampler_two(v_rows, np.eye(n), 16)


def test_sampler_two_smallest_admissible_r(rng):
    n = 8
    v_rows = orthonormal_rows(rng, 2, n)
    plan = _check_sampler_two(v_rows, np.eye(n), 3)
    assert sigma_k(apply_plan(v_rows, plan), 2) >= 1.0 - math.sqrt(2.0 / 3.0) - 1e-9


def test_sampler_two_deterministic(rng):
    n = 40
    v_rows = orthonormal_rows(rng, 3, n)
    assert deterministic_sampling_two(v_rows, np.eye(n), 9) == deterministic_sampling_two(
        v_rows, np.eye(n), 9
    )


class _DenseSpectralUpper:
    # the upper side on an explicit second set q: the ell2 x ell2
    # accumulator q diag(w) q.T built from the loop's column weights, and
    # candidates scored in its eigenbasis at each step
    def __init__(self, q, k, r):
        ell2 = q.shape[0]
        self.q = q
        self.delta = (1.0 + math.sqrt(ell2 / r)) / (1.0 - math.sqrt(k / r))
        self._offset = math.sqrt(ell2 * r)

    def __call__(self, tau, w):
        u = self.delta * (tau + self._offset)
        lam, vecs = np.linalg.eigh((self.q * w) @ self.q.T)
        sparsify._check_upper_barrier(float(lam.max()), u, tau)
        return sparsify._gains(lam, np.square(vecs.T @ self.q), u, u + self.delta, tau)


def test_sampler_two_identity_fast_path_matches_dense(rng):
    # same instance through the diagonal accumulator and a dense oracle
    n = 30
    v_rows = orthonormal_rows(rng, 3, n)
    fast = deterministic_sampling_two(v_rows, np.eye(n), 8)
    dense = sparsify._dual_set_loop(v_rows, 8, _DenseSpectralUpper(np.eye(n), 3, 8))
    assert fast.indices == dense.indices
    np.testing.assert_allclose(fast.weights, dense.weights, rtol=1e-9)


@pytest.mark.parametrize(
    "shape", [(1, 7), (2, 1), (500, 1), (500, 2), (1, 2), (64, 9), (65, 9), (1000, 37)]
)
def test_streamed_charges_equal_the_whole_matrix_sum_bit_for_bit(rng, shape):
    # the sampler-one charges are scaled and summed over blocks of rows;
    # every layout, at every scale, must give the bits of its C-ordered
    # copy, and those are the bits of the squares of the whole rescaled
    # matrix when it has two or more columns
    for scale in (1.0, 1e200, 1e-200):
        b = rng.standard_normal(shape) * np.logspace(-6, 6, shape[1]) * scale
        for c in (b, np.asfortranarray(b), np.ascontiguousarray(b.T).T,
                  np.vstack([b, b])[::2], np.hstack([b, b])[:, ::2]):
            ref, e = np.ascontiguousarray(c), _scale_exponent(c)
            whole = np.square(_rescaled(ref)[0]).sum(axis=0)
            got = sparsify._column_sq_norms(sparsify._row_blocks(c), shape[1], e)
            assert got.tobytes() == sparsify._column_sq_norms(sparsify._row_blocks(ref), shape[1], e).tobytes()
            if shape[1] >= 2:
                assert got.tobytes() == whole.tobytes()
            np.testing.assert_allclose(got, whole, rtol=1e-12)


def test_sampler_one_charges_take_no_copy_of_the_second_set(rng):
    # beyond the k x n loop state, the charges need O(n) scratch: no
    # squared copy of b
    n = 300
    v_rows = orthonormal_rows(rng, 4, n)
    b = rng.standard_normal((2000, n))
    tracemalloc.start()
    try:
        deterministic_sampling_one(v_rows, b, 30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * b.nbytes


@pytest.mark.parametrize("layout", [
    lambda b: b, np.asfortranarray, lambda b: np.ascontiguousarray(b.T).T,
], ids=["c-order", "fortran", "transposed"])
@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
def test_sampler_one_charges_take_no_mask_or_scaled_copy_of_the_second_set(rng, scale, layout):
    # the charges are scaled block by block from row views of b, in any
    # layout, and finiteness is read off b's extremes, so at every scale
    # the scratch is one 65 x n buffer beside the k x n loop state: 1/30
    # of b C-ordered, 1/22 in the other layouts, which numpy buffers
    n = 300
    v_rows = orthonormal_rows(rng, 4, n)
    b = layout(rng.standard_normal((2000, n)) * scale)
    tracemalloc.start()
    try:
        deterministic_sampling_one(v_rows, b, 30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * b.nbytes


def test_sampler_one_checks_the_second_set_width_before_its_entries(rng):
    # an argument check comes before the matrix is read: a wrong-width b
    # is refused for its width, not for a NaN it also holds
    b = rng.standard_normal((20, 31))
    b[7, 11] = np.nan
    with pytest.raises(ArgumentError, match=r"^second set has 31 columns, expected 30$"):
        deterministic_sampling_one(orthonormal_rows(rng, 3, 30), b, 6)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_sampler_one_nonfinite_second_set_is_rejected(rng, value):
    n = 30
    b = rng.standard_normal((20, n))
    b[7, 11] = value
    with pytest.raises(ContractViolationError, match="finite"):
        deterministic_sampling_one(orthonormal_rows(rng, 3, n), b, 6)


def test_identity_is_a_read_only_eye_over_linear_memory():
    for n in (1, 2, 7, 300):
        eye = sparsify._identity(n)
        np.testing.assert_array_equal(eye, np.eye(n))
        assert eye.dtype == np.float64 and eye.nbytes == n * n * 8
        with pytest.raises(ValueError):
            eye[0, -1] = 1.0
    tracemalloc.start()
    try:
        eye = sparsify._identity(4000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 * 4000 * 8


def test_sampler_two_identity_takes_no_quadratic_memory(rng):
    # recognising the identity needs no n x n temporary, not even a
    # finiteness mask: the peak is linear in n (3.4 x v_rows measured, and
    # 1/238 of q)
    n = 4000
    v_rows = orthonormal_rows(rng, 5, n)
    q = np.eye(n)
    tracemalloc.start()
    try:
        deterministic_sampling_two(v_rows, q, 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * v_rows.nbytes


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_sampler_two_nonfinite_second_set_is_rejected(rng, value, where):
    # a non-finite entry on or off the diagonal is never taken for the
    # identity, so input validation still sees it
    n = 30
    q = np.eye(n)
    q[where] = value
    with pytest.raises(ContractViolationError, match="finite"):
        deterministic_sampling_two(orthonormal_rows(rng, 3, n), q, 6)


def test_sampler_two_almost_identity_is_validated(rng):
    # only the exact identity is taken for the identity
    n = 30
    q = np.eye(n)
    q[0, 1] = 1e-3
    with pytest.raises(ArgumentError, match="q must be the n x n identity"):
        deterministic_sampling_two(orthonormal_rows(rng, 3, n), q, 6)


def test_sampler_two_refuses_every_second_set_but_the_identity(rng):
    # orthonormal rows are not enough: the identity is the one second set
    n = 12
    v_rows = orthonormal_rows(rng, 2, n)
    for q in (orthonormal_rows(rng, 3, n), np.eye(n)[rng.permutation(n)], np.eye(n - 1)):
        with pytest.raises(ArgumentError, match="q must be the n x n identity"):
            deterministic_sampling_two(v_rows, q, 6)


def _toeplitz(spike):
    # the layout of sparsify._identity over a given buffer of 2n - 1 floats:
    # strides (-8, 8), q[i, j] = spike[n - 1 - i + j]
    n = (len(spike) + 1) // 2
    return np.lib.stride_tricks.sliding_window_view(np.asarray(spike, dtype=float), n)[::-1]


def _spike(n, entries):
    # the identity's buffer, with the entries at offsets j - i set as given
    spike = np.zeros(2 * n - 1)
    spike[n - 1] = 1.0
    for offset, value in entries.items():
        spike[n - 1 + offset] = value
    return spike


def test_sampler_two_reads_the_identity_view_in_linear_time(rng, monkeypatch):
    # the view stores 2n - 1 entries, and the check reads each once rather
    # than scanning its n^2 logical entries
    n = 5000
    v_rows = orthonormal_rows(rng, 3, n)
    q = sparsify._identity(n)
    sizes = []
    count_nonzero = np.count_nonzero

    def recording(a, *args, **kwargs):
        sizes.append(np.size(a))
        return count_nonzero(a, *args, **kwargs)

    monkeypatch.setattr(np, "count_nonzero", recording)
    deterministic_sampling_two(v_rows, q, 6)
    assert sum(sizes) <= 2 * n


@pytest.mark.parametrize("spike, error", [
    (_spike(6, {1: 1e-3}), ArgumentError),  # a second nonzero at offset +1
    (_spike(6, {-1: 1e-3}), ArgumentError),  # a second nonzero at offset -1
    (_spike(6, {5: -1.0}), ArgumentError),  # in the corner q[0, n - 1]
    (_spike(6, {0: 2.0}), ArgumentError),
    (_spike(6, {0: 0.0}), ArgumentError),
    (_spike(6, {5: np.nan}), ContractViolationError),
    (_spike(6, {-5: np.nan}), ContractViolationError),
    (_spike(6, {0: np.nan}), ContractViolationError),
    (_spike(6, {2: np.inf}), ContractViolationError),
    (_spike(6, {-3: -np.inf}), ContractViolationError),
], ids=["plus-1", "minus-1", "corner", "two", "zero", "nan-last", "nan-first", "nan-diag",
        "inf", "minus-inf"])
def test_sampler_two_refuses_a_toeplitz_view_that_is_not_the_identity(rng, spike, error):
    q = _toeplitz(spike)
    assert q.strides == (-8, 8)
    match = "finite" if error is ContractViolationError else "q must be the n x n identity"
    with pytest.raises(error, match=match):
        deterministic_sampling_two(orthonormal_rows(rng, 2, 6), q, 4)


def test_sampler_two_refuses_a_broadcast_one(rng):
    # zero strides are opposite strides too: every entry is the one stored
    q = np.broadcast_to(1.0, (6, 6))
    with pytest.raises(ArgumentError, match="q must be the n x n identity"):
        deterministic_sampling_two(orthonormal_rows(rng, 2, 6), q, 4)


def test_sampler_two_takes_the_one_by_one_identity():
    v_rows = np.ones((1, 1))
    expected = deterministic_sampling_two(v_rows, np.eye(1), 2)
    for q in (sparsify._identity(1), np.broadcast_to(1.0, (1, 1))):
        assert deterministic_sampling_two(v_rows, q, 2) == expected


@pytest.mark.parametrize("k, n, r", [(1, 2, 2), (2, 7, 5), (3, 40, 12), (5, 300, 60), (4, 9, 9)])
def test_sampler_two_plans_from_the_identity_view_equal_those_from_a_dense_eye(k, n, r):
    v_rows = orthonormal_rows(np.random.default_rng(n), k, n)
    assert (deterministic_sampling_two(v_rows, sparsify._identity(n), r)
            == deterministic_sampling_two(v_rows, np.eye(n), r))


@pytest.mark.parametrize("trial", range(12))
def test_samplers_hold_on_varied_shapes(trial):
    # sizes well away from the standard test family: r near k+1, r near n,
    # tall and wide second sets for sampler one
    local = np.random.default_rng(7000 + trial)
    n = int(local.integers(6, 80))
    k = int(local.integers(1, min(6, n - 1)))
    r = int(local.integers(k + 1, n))
    v_rows = orthonormal_rows(local, k, n)
    if trial % 2 == 0:
        b = local.standard_normal((int(local.integers(1, 10)), n)) * 7.0
        _check_sampler_one(v_rows, b, r)
    else:
        _check_sampler_two(v_rows, np.eye(n), r)


def test_sampler_two_argument_errors(rng):
    v_rows = orthonormal_rows(rng, 3, 20)
    with pytest.raises(ArgumentError):
        deterministic_sampling_two(v_rows, np.eye(20), 3)
    with pytest.raises(ArgumentError):
        deterministic_sampling_two(v_rows, np.eye(19), 6)
    with pytest.raises(ArgumentError):
        deterministic_sampling_two(v_rows, rng.standard_normal((3, 20)), 6)


# ---------------------------------------------------------------------------
# randomized sampler
# ---------------------------------------------------------------------------


def test_leverage_scores_symmetric_case():
    v_rows = np.array([[1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)]])
    np.testing.assert_allclose(leverage_scores(v_rows), [0.5, 0.5], atol=1e-15)


def test_leverage_scores_sum_to_one(rng):
    for k, n in [(1, 5), (3, 40), (6, 100)]:
        p = leverage_scores(orthonormal_rows(rng, k, n))
        assert float(p.sum()) == pytest.approx(1.0, abs=1e-12)
        assert np.all(p >= 0)


def test_randomized_sampling_reproducible(rng):
    v_rows = orthonormal_rows(rng, 3, 50)
    assert randomized_sampling(v_rows, 10, seed=42) == randomized_sampling(
        v_rows, 10, seed=42
    )
    assert randomized_sampling(v_rows, 10, seed=42) != randomized_sampling(
        v_rows, 10, seed=43
    )


def test_randomized_sampling_weights_follow_probabilities(rng):
    v_rows = orthonormal_rows(rng, 2, 30)
    p = leverage_scores(v_rows)
    r = 12
    plan = randomized_sampling(v_rows, r, seed=5)
    for idx, w in zip(plan.indices, plan.weights):
        assert w == pytest.approx(1.0 / math.sqrt(p[idx - 1] * r), rel=1e-12)


def test_randomized_sampling_unbiased_frobenius(rng):
    b = rng.standard_normal((10, 200))
    v_rows = orthonormal_rows(rng, 5, 200)
    fro2 = float(np.square(b).sum())
    total = 0.0
    trials = 300
    for t in range(trials):
        total += float(np.square(apply_plan(b, randomized_sampling(v_rows, 50, seed=t))).sum())
    assert total / trials / fro2 == pytest.approx(1.0, abs=0.05)


def test_randomized_sampling_argument_errors(rng):
    with pytest.raises(ArgumentError):
        randomized_sampling(orthonormal_rows(rng, 2, 10), 0, seed=0)
    with pytest.raises(ArgumentError):
        randomized_sampling(np.ones((2, 10)), 5, seed=0)
