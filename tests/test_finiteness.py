"""The one finiteness rule.

Every public function that takes a data matrix rejects NaN and +-inf
entries with :class:`ContractViolationError`.  The check is the scaling
rule's read of the largest and smallest entries, so it builds no mask of
the matrix, and a function that rescales its input runs it after its own
argument checks.
"""

import tracemalloc

import numpy as np
import pytest

from kmselect import bounds, kmeans, linalg, pipelines, sparsify
from kmselect.errors import ArgumentError, ContractViolationError
from kmselect.kmeans import from_labels
from kmselect.sparsify import SamplingPlan

M, N, K, R = 8, 10, 2, 4
A = np.random.default_rng(7).standard_normal((M, N))
GIVEN = from_labels(np.arange(M) % K + 1, K)
Z = np.linalg.qr(np.random.default_rng(8).standard_normal((N, K)))[0]  # n x k, orthonormal
PLAN = SamplingPlan(N, R, (1, 3, 5, 7), (1.0, 0.5, 2.0, 1.5))
NON_FINITE = [np.nan, np.inf, -np.inf]


def spoiled(x, value):
    """A copy of *x* with one interior entry set to *value* (None: unchanged)."""
    y = np.array(x, dtype=float)
    if value is not None:
        y[y.shape[0] // 2, y.shape[1] // 2] = value
    return y


# each entry calls one public function with *bad* planted in the named
# matrix argument (None plants nothing); every other argument is valid
CALLS = {
    "as_matrix": lambda bad: linalg.as_matrix(spoiled(A, bad)),
    "singular_values": lambda bad: linalg.singular_values(spoiled(A, bad)),
    "numerical_rank": lambda bad: linalg.numerical_rank(spoiled(A, bad)),
    "spectral_norm": lambda bad: linalg.spectral_norm(spoiled(A, bad)),
    "sigma_k": lambda bad: linalg.sigma_k(spoiled(A, bad), K),
    "svd_top_k": lambda bad: linalg.svd_top_k(spoiled(A, bad), K),
    "svd_top_k.wide": lambda bad: linalg.svd_top_k(spoiled(A.T, bad), K),
    "sym_eig": lambda bad: linalg.sym_eig(spoiled(np.eye(4), bad)),
    "frobenius_norm": lambda bad: linalg.frobenius_norm(spoiled(A, bad)),
    "residual.a": lambda bad: linalg.residual(spoiled(A, bad), Z),
    "residual.z": lambda bad: linalg.residual(A, spoiled(Z, bad)),
    "approx_svd_z": lambda bad: linalg.approx_svd_z(spoiled(A, bad), K, 0),
    "apply_plan": lambda bad: sparsify.apply_plan(spoiled(A, bad), PLAN),
    "leverage_scores": lambda bad: sparsify.leverage_scores(spoiled(Z.T, bad)),
    "deterministic_sampling_one.v_rows": lambda bad: sparsify.deterministic_sampling_one(
        spoiled(Z.T, bad), A, R),
    "deterministic_sampling_one.b": lambda bad: sparsify.deterministic_sampling_one(
        Z.T, spoiled(A, bad), R),
    "deterministic_sampling_two.v_rows": lambda bad: sparsify.deterministic_sampling_two(
        spoiled(Z.T, bad), sparsify._identity(N), R),
    "deterministic_sampling_two.q": lambda bad: sparsify.deterministic_sampling_two(
        Z.T, spoiled(np.eye(N), bad), R),
    "randomized_sampling": lambda bad: sparsify.randomized_sampling(spoiled(Z.T, bad), R, 0),
    "objective": lambda bad: kmeans.objective(spoiled(A, bad), GIVEN),
    "kmeanspp_init": lambda bad: kmeans.kmeanspp_init(spoiled(A, bad), K, 0),
    "lloyd": lambda bad: kmeans.lloyd(spoiled(A, bad), K, 0),
    "lloyd_best": lambda bad: kmeans.lloyd_best(spoiled(A, bad), K, 2, 0),
    "brute_force_optimal": lambda bad: kmeans.brute_force_optimal(spoiled(A, bad), K),
    "structural_check.a": lambda bad: bounds.structural_check(
        spoiled(A, bad), Z, GIVEN, GIVEN, PLAN, 1.0),
    "structural_check.z": lambda bad: bounds.structural_check(
        A, spoiled(Z, bad), GIVEN, GIVEN, PLAN, 1.0),
    "supervised_select": lambda bad: pipelines.supervised_select(spoiled(A, bad), GIVEN, K, R),
    "unsupervised_select": lambda bad: pipelines.unsupervised_select(spoiled(A, bad), K, R),
    "randomized_select": lambda bad: pipelines.randomized_select(spoiled(A, bad), K, R, 0),
    **{
        f"select_then_cluster.{method}": (
            lambda bad, method=method: pipelines.select_then_cluster(
                spoiled(A, bad), K, R, method, "brute",
                given=GIVEN if method == "supervised" else None,
            )
        )
        for method in pipelines.METHODS
    },
}


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_every_public_function_rejects_non_finite_entries(name, bad):
    with pytest.raises(ContractViolationError, match="finite"):
        CALLS[name](bad)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_every_call_in_the_table_runs_on_unspoiled_input(name):
    # the table's other arguments are valid, so the rejections above are
    # about the planted entry alone
    CALLS[name](None)


# each entry pairs a non-finite matrix with one invalid argument, and must
# raise the ArgumentError it raises on a finite one
BAD_ARGUMENT = {
    "svd_top_k": lambda a: linalg.svd_top_k(a, 0),
    "approx_svd_z": lambda a: linalg.approx_svd_z(a, 1, 0),
    "randomized_sampling": lambda a: sparsify.randomized_sampling(a, 0, 0),
    "objective": lambda a: kmeans.objective(a, from_labels(np.arange(M + 1) % K + 1, K)),
    "lloyd_best": lambda a: kmeans.lloyd_best(a, M + 1, 2, 0),
    "lloyd_best.restarts": lambda a: kmeans.lloyd_best(a, K, 0, 0),
    "brute_force_optimal": lambda a: kmeans.brute_force_optimal(a, 0),
    "supervised_select": lambda a: pipelines.supervised_select(a, GIVEN, K, N),
    "unsupervised_select": lambda a: pipelines.unsupervised_select(a, K, K),
    "randomized_select": lambda a: pipelines.randomized_select(a, K, K, 0),
    "select_then_cluster": lambda a: pipelines.select_then_cluster(a, K, R, "bogus", "lloyd"),
    "structural_check.z": lambda a: bounds.structural_check(
        a, np.ones((N, K)), GIVEN, GIVEN, PLAN, 1.0),
    "structural_check.z_rows": lambda a: bounds.structural_check(
        a, np.linalg.qr(Z[1:])[0], GIVEN, GIVEN, PLAN, 1.0),
    "structural_check.plan": lambda a: bounds.structural_check(
        a, Z, GIVEN, GIVEN, SamplingPlan(N + 1, 1, (1,), (1.0,)), 1.0),
    "structural_check.in_clust": lambda a: bounds.structural_check(
        a, Z, from_labels(np.arange(M + 1) % K + 1, K), GIVEN, PLAN, 1.0),
    "structural_check.out_clust": lambda a: bounds.structural_check(
        a, Z, GIVEN, from_labels(np.arange(M - 1) % K + 1, K), PLAN, 1.0),
}


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("name", sorted(BAD_ARGUMENT))
def test_argument_checks_run_before_the_entries_are_read(name, bad):
    with pytest.raises(ArgumentError) as finite:
        BAD_ARGUMENT[name](A)
    with pytest.raises(ArgumentError) as err:
        BAD_ARGUMENT[name](spoiled(A, bad))
    assert str(err.value) == str(finite.value)


def test_as_matrix_builds_no_mask_of_its_input(rng):
    # the check reads two extremes: a boolean mask would be 1/8 of the input
    a = rng.standard_normal((1000, 1000))
    tracemalloc.start()
    try:
        linalg.as_matrix(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * a.nbytes


def test_extremes_of_the_float64_range_are_finite():
    big = np.finfo(float).max
    tiny = np.finfo(float).smallest_subnormal
    a = np.array([[big, -big], [tiny, -tiny]])
    assert linalg.as_matrix(a) is a
    assert linalg.singular_values(np.array([[tiny]]))[0] == tiny
