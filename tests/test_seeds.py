"""The one seed rule, and the one integer rule beside it.

Every public function that takes a seed accepts an integer >= 0 and
nothing else, not even a ``bool``, raising :class:`ArgumentError` before
its matrix is read.  Where the signature defaults to ``None``, ``None``
means 0; elsewhere ``None`` is refused, so no call draws fresh entropy.
The counts ``k``, ``r``, ``restarts`` and ``trials`` must be integers in
the same way, each in its range and ``r`` in the ``k < r < n`` window.
"""

import re

import numpy as np
import pytest

from kmselect import kmeans, linalg, pipelines, sparsify, verify
from kmselect.errors import ArgumentError
from kmselect.kmeans import Clustering, from_labels

M, N, K, R = 8, 10, 2, 4
A = np.random.default_rng(7).standard_normal((M, N))
Z = np.linalg.qr(np.random.default_rng(8).standard_normal((N, K)))[0]  # n x k, orthonormal

# each entry: a function's matrix argument, and a call of the function
# with that matrix and a seed; every other argument is valid
CALLS = {
    "approx_svd_z": (A, lambda a, seed: linalg.approx_svd_z(a, K, seed)),
    "randomized_sampling": (Z.T, lambda v, seed: sparsify.randomized_sampling(v, R, seed)),
    "kmeanspp_init": (A, lambda a, seed: kmeans.kmeanspp_init(a, K, seed)),
    "lloyd": (A, lambda a, seed: kmeans.lloyd(a, K, seed)),
    "lloyd_best": (A, lambda a, seed: kmeans.lloyd_best(a, K, 2, seed)),
    "randomized_select": (A, lambda a, seed: pipelines.randomized_select(a, K, R, seed)),
    "select_then_cluster": (A, lambda a, seed: pipelines.select_then_cluster(
        a, K, R, "randomized", "lloyd", seed=seed, restarts=2)),
    "run_suite": (None, lambda _, seed: verify.run_suite(
        "sampler-two-bounds", trials=1, seed=seed)),
}
# the functions whose seed defaults to None
NONE_IS_ZERO = {"lloyd", "lloyd_best", "select_then_cluster"}


def call(name, seed, spoil=False):
    matrix, fn = CALLS[name]
    if spoil and matrix is not None:
        matrix = matrix.copy()
        matrix[0, 0] = np.nan
    return fn(matrix, seed)


def comparable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, linalg.SvdTopK):
        return value.u.tolist(), value.s.tolist(), value.v.tolist()
    if isinstance(value, pipelines.FeatureSelection):
        return value.to_dict(), value.reduced.tolist()
    # a report, which also echoes the seed as given
    if isinstance(value, dict) and "clustering" in value:
        return value["selection"]["plan"], value["clustering"]
    return value


@pytest.mark.parametrize("seed, message", [
    (-1, "seed must be at least 0, got -1"),
    (1.5, "seed must be an integer, got 1.5"),
    (2.0, "seed must be an integer, got 2.0"),
    ("3", "seed must be an integer, got '3'"),
    (True, "seed must be an integer, got True"),
    (False, "seed must be an integer, got False"),
])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_bad_seed_is_an_argument_error_before_the_matrix_is_read(name, seed, message):
    # the matrix holds a NaN, which the finiteness check would report
    with pytest.raises(ArgumentError, match=re.escape(message)):
        call(name, seed, spoil=True)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_none_means_zero_only_where_it_is_the_default(name):
    if name in NONE_IS_ZERO:
        assert comparable(call(name, None)) == comparable(call(name, 0))
    else:
        with pytest.raises(ArgumentError, match="got None"):
            call(name, None)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_numpy_integer_seed_is_an_integer(name):
    assert comparable(call(name, np.int64(3))) == comparable(call(name, 3))


GIVEN = from_labels(np.arange(M) % K + 1, K)
# each entry: a function's matrix argument, and a call of the function
# with that matrix and one count argument; every other argument is valid
COUNTS = {
    "svd_top_k.k": (A, lambda a, x: linalg.svd_top_k(a, x)),
    "sigma_k.k": (A, lambda a, x: linalg.sigma_k(a, x)),
    "approx_svd_z.k": (A, lambda a, x: linalg.approx_svd_z(a, x, 0)),
    "deterministic_sampling_one.r": (Z.T, lambda v, x: sparsify.deterministic_sampling_one(
        v, A, x)),
    "deterministic_sampling_two.r": (Z.T, lambda v, x: sparsify.deterministic_sampling_two(
        v, np.eye(N), x)),
    "randomized_sampling.r": (Z.T, lambda v, x: sparsify.randomized_sampling(v, x, 0)),
    "kmeanspp_init.k": (A, lambda a, x: kmeans.kmeanspp_init(a, x, 0)),
    "lloyd_best.k": (A, lambda a, x: kmeans.lloyd_best(a, x, 2, 0)),
    "lloyd_best.restarts": (A, lambda a, x: kmeans.lloyd_best(a, K, x, 0)),
    "brute_force_optimal.k": (A, lambda a, x: kmeans.brute_force_optimal(a, x)),
    "supervised_select.r": (A, lambda a, x: pipelines.supervised_select(a, GIVEN, K, x)),
    "unsupervised_select.k": (A, lambda a, x: pipelines.unsupervised_select(a, x, R)),
    "unsupervised_select.r": (A, lambda a, x: pipelines.unsupervised_select(a, K, x)),
    "randomized_select.k": (A, lambda a, x: pipelines.randomized_select(a, x, R, 0)),
    "randomized_select.r": (A, lambda a, x: pipelines.randomized_select(a, K, x, 0)),
    "select_then_cluster.restarts": (A, lambda a, x: pipelines.select_then_cluster(
        a, K, R, "unsupervised", "lloyd", restarts=x)),
    "run_suite.trials": (None, lambda _, x: verify.run_suite(
        "sampler-two-bounds", trials=x, seed=0)),
}


@pytest.mark.parametrize("value", [2.5, 3.0, "3", True])
@pytest.mark.parametrize("name", sorted(COUNTS))
def test_a_non_integer_count_is_an_argument_error_before_the_matrix_is_read(name, value):
    matrix, fn = COUNTS[name]
    if matrix is not None:
        # a NaN, which the finiteness check would report
        matrix = matrix.copy()
        matrix[0, 0] = np.nan
    with pytest.raises(ArgumentError, match="must be an integer"):
        fn(matrix, value)


# each count's value below its floor and, where it has one, above its
# ceiling (k > min(m, n), r >= n), with the message of the one count rule
# or, for r, of the one k < r < n window rule; the samplers' floor is r = k
RANGES = {
    "svd_top_k.k": [(0, "k must be at least 1 and at most 8, got 0"),
                    (9, "k must be at least 1 and at most 8, got 9")],
    "sigma_k.k": [(0, "k must be at least 1 and at most 8, got 0"),
                  (9, "k must be at least 1 and at most 8, got 9")],
    "approx_svd_z.k": [(1, "k must be at least 2 and at most 8, got 1"),
                       (9, "k must be at least 2 and at most 8, got 9")],
    "deterministic_sampling_one.r": [(K, "need k < r < n, got k=2, r=2, n=inf")],
    "deterministic_sampling_two.r": [(K, "need k < r < n, got k=2, r=2, n=inf")],
    "randomized_sampling.r": [(0, "r must be at least 1, got 0")],
    "kmeanspp_init.k": [(0, "k must be at least 1 and at most 8, got 0"),
                        (9, "k must be at least 1 and at most 8, got 9")],
    "lloyd_best.k": [(0, "k must be at least 1 and at most 8, got 0"),
                     (9, "k must be at least 1 and at most 8, got 9")],
    "lloyd_best.restarts": [(0, "restarts must be at least 1, got 0")],
    "brute_force_optimal.k": [(0, "k must be at least 1 and at most 8, got 0"),
                              (9, "k must be at least 1 and at most 8, got 9")],
    "supervised_select.r": [(K, "need k < r < n, got k=2, r=2, n=10"),
                            (N, "need k < r < n, got k=2, r=10, n=10")],
    "unsupervised_select.k": [(0, "k must be at least 1 and at most 8, got 0"),
                              (9, "need k < r < n, got k=9, r=4, n=10")],
    "unsupervised_select.r": [(K, "need k < r < n, got k=2, r=2, n=10"),
                              (N, "need k < r < n, got k=2, r=10, n=10")],
    "randomized_select.k": [(1, "k must be at least 2 and at most 8, got 1"),
                            (9, "need k < r < n, got k=9, r=4, n=inf")],
    "randomized_select.r": [(K, "need k < r < n, got k=2, r=2, n=inf")],
    "select_then_cluster.restarts": [(0, "restarts must be at least 1, got 0")],
    "run_suite.trials": [(0, "trials must be at least 1, got 0")],
}


def test_every_count_has_its_range_cases():
    assert RANGES.keys() == COUNTS.keys()


@pytest.mark.parametrize("name, value, message", [
    pytest.param(name, value, message, id=f"{name}={value}")
    for name in sorted(RANGES) for value, message in RANGES[name]
])
def test_a_count_out_of_range_is_an_argument_error_before_the_matrix_is_read(
        name, value, message):
    matrix, fn = COUNTS[name]
    if matrix is not None:
        # a NaN, which the finiteness check would report
        matrix = matrix.copy()
        matrix[0, 0] = np.nan
    with pytest.raises(ArgumentError, match=re.escape(message)):
        fn(matrix, value)


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_a_numpy_integer_count_is_an_integer(name):
    matrix, fn = COUNTS[name]
    value = 1 if name == "run_suite.trials" else 3
    assert comparable(fn(matrix, np.int64(value))) == comparable(fn(matrix, value))


# each entry: labels and a cluster count, one of them not an integer
NON_INTEGER_LABELS = {
    "float label": ([1.9, 2.2, 1.0], 2),
    "whole float label": ([1.0, 2, 1], 2),
    "numpy float label": (np.array([1.0, 2.0, 1.0]), 2),
    "string label": (["1", "2", "1"], 2),
    "float count": ([1, 2, 1], 2.7),
    "whole float count": ([1, 2, 1], 2.0),
    "numpy float count": ([1, 2, 1], np.float64(2.0)),
    "string count": ([1, 2, 1], "2"),
    "both": ([1.9, 2.2, 1.0], 2.7),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_LABELS))
def test_from_labels_refuses_a_non_integer_label_or_count(name):
    labels, count = NON_INTEGER_LABELS[name]
    with pytest.raises(ArgumentError, match="must be an integer"):
        from_labels(labels, count)


def test_from_labels_refuses_no_labels():
    # a clustering shape error, before the count is read
    for count in (None, 2):
        with pytest.raises(ArgumentError, match="num_points must be at least 1, got 0"):
            from_labels([], count)


@pytest.mark.parametrize("labels, count", [
    ([1, 2, 1], 2),
    ([1, 2, 1], np.int64(2)),
    (np.array([1, 2, 1]), 2),
    (np.array([1, 2, 1], dtype=np.int32), np.int32(2)),
])
def test_from_labels_takes_python_and_numpy_integers(labels, count):
    c = from_labels(labels, count)
    assert (c.num_clusters, c.assignment) == (2, (1, 2, 1))
    assert all(type(x) is int for x in (c.num_clusters, *c.assignment))


# each entry: the arguments of a Clustering built directly, one of them
# not an integer
NON_INTEGER_CLUSTERINGS = {
    "float label": (3, 2, (1.5, 2, 1)),
    "bool label": (3, 2, (True, 2, 1)),
    "string label": (3, 2, ("1", 2, 1)),
    "float point count": (3.0, 2, (1, 2, 1)),
    "float cluster count": (3, 2.0, (1, 2, 1)),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_CLUSTERINGS))
def test_clustering_refuses_a_non_integer_count_or_label(name):
    with pytest.raises(ArgumentError, match="must be an integer"):
        Clustering(*NON_INTEGER_CLUSTERINGS[name]).to_dict(0.0)


def test_clustering_keeps_python_integers():
    c = Clustering(np.int64(3), np.int32(2), np.array([1, 2, 1]))
    assert c == Clustering(3, 2, (1, 2, 1))
    assert all(type(x) is int for x in (c.num_points, c.num_clusters, *c.assignment))
    assert c.to_dict(0.0) == {"k": 2, "assignment": [1, 2, 1], "objective": 0.0}
