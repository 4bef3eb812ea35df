import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmselect.errors import ArgumentError, ContractViolationError, ResourceLimitError
from kmselect.kmeans import (
    _PARTITION_BATCH,
    Clustering,
    _batch_objectives,
    _centred_gram,
    _partition_batches,
    _rescaled,
    brute_force_optimal,
    from_labels,
    indicator,
    kmeanspp_init,
    lloyd,
    lloyd_best,
    objective,
)

RECT = np.array([[0.0, 0.0], [0.0, 2.0], [10.0, 0.0], [10.0, 2.0]])
RECT_SPLIT = Clustering(4, 2, (1, 1, 2, 2))


def random_clustering(rng, m, k):
    labels = rng.integers(1, k + 1, size=m)
    labels[rng.permutation(m)[:k]] = np.arange(1, k + 1)
    return Clustering(m, k, tuple(int(x) for x in labels))


# ---------------------------------------------------------------------------
# Clustering and indicator
# ---------------------------------------------------------------------------


def test_clustering_rejects_empty_cluster():
    with pytest.raises(ContractViolationError):
        Clustering(3, 2, (1, 1, 1))


def test_clustering_rejects_out_of_range_label():
    with pytest.raises(ContractViolationError):
        Clustering(3, 2, (1, 2, 3))


def test_clustering_rejects_wrong_length():
    with pytest.raises(ArgumentError):
        Clustering(3, 2, (1, 2))


def test_from_labels_infers_k():
    c = from_labels([1, 2, 1, 3])
    assert c.num_clusters == 3


def test_indicator_direct_construction():
    x = indicator(Clustering(3, 2, (1, 1, 2)))
    s = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(x, [[s, 0.0], [s, 0.0], [0.0, 1.0]], atol=1e-15)


def test_indicator_singletons_is_permutation():
    x = indicator(Clustering(3, 3, (2, 3, 1)))
    np.testing.assert_allclose(x, [[0, 1, 0], [0, 0, 1], [1, 0, 0]], atol=1e-15)


def test_indicator_orthonormal_columns(rng):
    c = random_clustering(rng, 20, 4)
    x = indicator(c)
    np.testing.assert_allclose(x.T @ x, np.eye(4), atol=1e-12)
    assert np.all((x != 0).sum(axis=1) == 1)


def test_indicator_round_trip(rng):
    c = random_clustering(rng, 15, 3)
    x = indicator(c)
    recovered = tuple(int(j) + 1 for j in x.argmax(axis=1))
    assert recovered == c.assignment


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


def test_objective_zero_at_centroids():
    a = np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
    assert objective(a, Clustering(3, 2, (1, 1, 2))) == pytest.approx(0.0, abs=1e-15)


def test_objective_rectangle():
    assert objective(RECT, RECT_SPLIT) == pytest.approx(4.0, abs=1e-12)


def test_objective_matrix_form_agrees(rng):
    cases = []
    for _ in range(20):
        m = int(rng.integers(3, 15))
        k = int(rng.integers(1, m + 1))
        cases.append((rng.standard_normal((m, 4)), random_clustering(rng, m, k)))
    cases.append((rng.standard_normal((2000, 50)), random_clustering(rng, 2000, 10)))
    scaled = rng.standard_normal((2000, 50)) * np.logspace(-6, 6, 50)
    cases.append((scaled, random_clustering(rng, 2000, 10)))
    for a, c in cases:
        x = indicator(c)
        matrix_form = float(np.square(a - x @ (x.T @ a)).sum())
        assert objective(a, c) == pytest.approx(matrix_form, rel=1e-9, abs=1e-12)


def test_objective_dimension_mismatch(rng):
    with pytest.raises(ArgumentError):
        objective(rng.standard_normal((5, 2)), Clustering(4, 2, (1, 1, 2, 2)))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=1, max_value=4), st.integers(0, 2**31))
def test_objective_nonnegative_property(m, k, seed):
    rng = np.random.default_rng(seed)
    k = min(k, m)
    a = rng.standard_normal((m, 3))
    c = random_clustering(rng, m, k)
    assert objective(a, c) >= 0.0


# ---------------------------------------------------------------------------
# k-means++ seeding
# ---------------------------------------------------------------------------


def test_kmeanspp_selects_every_point_when_k_equals_m(rng):
    a = rng.standard_normal((6, 2))
    centers = kmeanspp_init(a, 6, seed=0)
    matched = {int(np.argmin(np.square(a - c).sum(axis=1))) for c in centers}
    assert len(matched) == 6
    np.testing.assert_allclose(np.sort(centers, axis=0), np.sort(a, axis=0), atol=1e-12)


def test_kmeanspp_duplicate_points():
    a = np.array([[2.0, 2.0], [2.0, 2.0], [2.0, 2.0]])
    centers = kmeanspp_init(a, 1, seed=3)
    np.testing.assert_allclose(centers, [[2.0, 2.0]], atol=1e-15)
    # k == m with duplicates still selects each point exactly once
    centers = kmeanspp_init(a, 3, seed=3)
    np.testing.assert_allclose(centers, a, atol=1e-15)


def test_kmeanspp_covers_separated_blobs():
    rng = np.random.default_rng(7)
    blob1 = rng.normal(0.0, 0.5, size=(20, 2))
    blob2 = rng.normal(20.0, 0.5, size=(20, 2))
    a = np.vstack([blob1, blob2])
    hits = 0
    trials = 500
    for seed in range(trials):
        centers = kmeanspp_init(a, 2, seed=seed)
        sides = {int(c[0] > 10.0) for c in centers}
        hits += len(sides) == 2
    assert hits >= 0.95 * trials


def test_kmeanspp_argument_error(rng):
    with pytest.raises(ArgumentError):
        kmeanspp_init(rng.standard_normal((3, 2)), 4, seed=0)


# ---------------------------------------------------------------------------
# Lloyd refinement
# ---------------------------------------------------------------------------


def test_lloyd_fixed_point_distinct_points(rng):
    a = rng.standard_normal((4, 3)) * 10.0
    c = lloyd(a, 4, seed=0)
    assert objective(a, c) == pytest.approx(0.0, abs=1e-18)


def test_lloyd_rectangle_with_correct_init():
    init = np.array([[0.0, 1.0], [10.0, 1.0]])
    c = lloyd(RECT, 2, init=init)
    assert objective(RECT, c) == pytest.approx(4.0, abs=1e-12)


def test_lloyd_repairs_empty_clusters():
    # both centroids far on one side: every point first lands in cluster 1
    a = np.array([[0.0], [1.0], [10.0]])
    c = lloyd(a, 2, init=np.array([[-100.0], [-200.0]]))
    assert c.num_clusters == 2
    assert len(set(c.assignment)) == 2


def test_lloyd_matches_brute_force_on_small_instances(rng):
    hits = 0
    for t in range(20):
        m = int(rng.integers(5, 9))
        a = rng.standard_normal((m, 2))
        best = lloyd_best(a, 2, restarts=50, seed=t)
        brute = brute_force_optimal(a, 2)
        lo, bo = objective(a, best), objective(a, brute)
        assert lo >= bo - 1e-9
        hits += abs(lo - bo) <= 1e-9 * max(1.0, bo)
    assert hits >= 19


def test_lloyd_best_clusters_data_whose_squares_overflow():
    c = lloyd_best([[1e200], [1.1e200], [-1e200]], 2)
    assert c.num_clusters == 2
    assert c.assignment[0] == c.assignment[1] != c.assignment[2]
    c = lloyd([[1e200], [1.1e200], [-1e200]], 2, init=[[-1e200], [1.05e200]])
    assert c.assignment == (2, 2, 1)


def test_lloyd_decisions_are_invariant_to_power_of_two_scaling(rng):
    # a tol that stops runs early must scale with the squared distances
    for t in range(5):
        a = rng.standard_normal((60, 3)) + rng.integers(0, 3, size=(60, 1))
        ref = lloyd(a, 4, seed=t, tol=3.0)
        for j in (-300, -40, 40, 300):
            assert lloyd(np.ldexp(a, j), 4, seed=t, tol=np.ldexp(3.0, 2 * j)) == ref


def test_lloyd_argument_errors(rng):
    a = rng.standard_normal((3, 2))
    with pytest.raises(ArgumentError):
        lloyd(a, 4)
    with pytest.raises(ArgumentError):
        lloyd(a, 2, init=np.zeros((3, 2)))
    with pytest.raises(ArgumentError):
        lloyd_best(a, 2, restarts=0)


# ---------------------------------------------------------------------------
# exhaustive optimum
# ---------------------------------------------------------------------------


def test_brute_force_single_cluster(rng):
    a = rng.standard_normal((6, 3))
    c = brute_force_optimal(a, 1)
    expected = float(np.square(a - a.mean(axis=0)).sum())
    assert objective(a, c) == pytest.approx(expected, rel=1e-12)


def test_brute_force_singletons(rng):
    a = rng.standard_normal((5, 2))
    c = brute_force_optimal(a, 5)
    assert objective(a, c) == pytest.approx(0.0, abs=1e-18)


def test_brute_force_rectangle():
    c = brute_force_optimal(RECT, 2)
    assert objective(RECT, c) == pytest.approx(4.0, abs=1e-12)
    # x-split partition: points 0,1 together and 2,3 together
    assert c.assignment[0] == c.assignment[1]
    assert c.assignment[2] == c.assignment[3]
    assert c.assignment[0] != c.assignment[2]


def test_brute_force_beats_random_clusterings(rng):
    a = rng.standard_normal((8, 3))
    best = objective(a, brute_force_optimal(a, 3))
    for _ in range(50):
        c = random_clustering(rng, 8, 3)
        assert best <= objective(a, c) + 1e-9


def test_partition_batches_enumerate_restricted_growth_strings_in_order():
    for m in range(1, 8):
        # position i of a restricted-growth string holds at most i
        strings = [
            s for s in itertools.product(*(range(i + 1) for i in range(m)))
            if all(s[i] <= max(s[:i], default=-1) + 1 for i in range(m))
        ]
        for k in range(1, m + 1):
            expected = [s for s in strings if max(s) == k - 1]
            batches = list(_partition_batches(m, k))
            assert all(b.shape[0] <= _PARTITION_BATCH for b in batches)
            assert np.array_equal(np.vstack(batches), np.array(expected)), (m, k)


def test_partition_batches_cut_full_batches_first():
    # S(10, 4) = 34105 rows: eight full batches, then the remainder
    sizes = [b.shape[0] for b in _partition_batches(10, 4)]
    assert sizes == [_PARTITION_BATCH] * 8 + [34105 - 8 * _PARTITION_BATCH]


def test_brute_force_tie_keeps_first_partition_in_enumeration_order():
    # unit square listed as (0,0), (1,1), (0,1), (1,0): the two side splits
    # tie exactly at cost 1; "0101" precedes "0110" in restricted-growth order
    a = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    first, second = Clustering(4, 2, (1, 2, 1, 2)), Clustering(4, 2, (1, 2, 2, 1))
    assert objective(a, first) == objective(a, second) == 1.0
    assert brute_force_optimal(a, 2).assignment == first.assignment


@pytest.mark.parametrize(
    "points, expected",
    [
        # offset: x**2 of 1e9 + x swamps the spread in uncentred sums
        ((1e9 + np.array([0.0, 1.0, 10.0, 11.0]))[:, None], (1, 1, 2, 2)),
        # tiny scale: the squares underflow to zero
        (np.array([[1e-200], [1.1e-200], [-1e-200], [5e-201]]), (1, 1, 2, 1)),
        # huge scale: the squares overflow to inf
        (np.array([[1e160, 0.0], [1e160, 1.0], [0.0, 1e160], [3.0, 1e160]]), (1, 1, 2, 2)),
        (np.array([[1e200], [1.1e200], [-1e200]]), (1, 1, 2)),
    ],
    ids=["offset", "tiny", "huge-2d", "huge-1d"],
)
def test_brute_force_exact_partition_on_offset_tiny_and_huge_data(points, expected):
    # assignments only: objective itself overflows on the huge inputs
    assert brute_force_optimal(points, max(expected)).assignment == expected


def test_gram_scores_equal_objective_for_every_labelling(rng):
    for m in range(1, 8):
        plain = rng.standard_normal((m, 3))
        inputs = [plain, plain + 1e8, rng.standard_normal((m, 7)) * np.logspace(-6, 6, 7)]
        for a in inputs:
            g, e = _centred_gram(a), _rescaled(a)[1]
            total = objective(a, Clustering(m, 1, (1,) * m))
            for k in range(1, m + 1):
                for batch in _partition_batches(m, k):
                    scores = np.ldexp(_batch_objectives(g, batch, k), 2 * e)
                    exact = [objective(a, Clustering(m, k, tuple(row + 1))) for row in batch]
                    np.testing.assert_allclose(scores, exact, rtol=0, atol=1e-12 * total)


def _brute_force_peak_bytes(a, k):
    tracemalloc.start()
    try:
        brute_force_optimal(a, k)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_brute_force_memory_does_not_grow_with_columns(rng):
    narrow = _brute_force_peak_bytes(rng.standard_normal((12, 30)), 4)
    wide = _brute_force_peak_bytes(rng.standard_normal((12, 3000)), 4)
    assert wide < 2 * narrow


def test_brute_force_enumeration_guard(rng):
    with pytest.raises(ResourceLimitError):
        brute_force_optimal(rng.standard_normal((13, 2)), 2)


def test_low_rank_energy_below_optimal_cost(rng):
    # || a - a_k ||_F^2 <= optimal clustering cost, for every small instance
    from kmselect.linalg import svd_top_k

    for t in range(10):
        a = np.random.default_rng(t).standard_normal((7, 5))
        k = 2
        top = svd_top_k(a, k)
        tail = float(np.square(a - (a @ top.v) @ top.v.T).sum())
        assert tail <= objective(a, brute_force_optimal(a, k)) + 1e-9
