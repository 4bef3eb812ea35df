import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmselect import kmeans, verify
from kmselect.errors import (
    ArgumentError,
    ContractViolationError,
    NumericalSearchError,
    ResourceLimitError,
)
from kmselect.kmeans import (
    _ONE_BATCH,
    _PARTITION_BATCH,
    Clustering,
    _batch_objectives,
    _centred_gram,
    _lloyd,
    _partition_batches,
    _rescaled,
    _scored_batches,
    _sq_dists,
    _weighted_draw,
    brute_force_optimal,
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


def test_objective_identity_suite_checks_the_package_objective(monkeypatch):
    # the suite compares the matrix form with objective itself: a cost
    # kernel off by one part in a million fails its trial
    assert verify.objective_identity_trial(0) == {"identity": True}
    real = kmeans._cost
    monkeypatch.setattr(kmeans, "_cost", lambda *args: real(*args) * (1 + 1e-6))
    assert verify.objective_identity_trial(0) == {"identity": False}


def test_cost_kernels_take_one_labelling_with_the_bits_of_a_stack_of_one(rng):
    # objective hands the kernels one labelling, no stack around it
    for (m, n), k in (((12, 60), 3), ((2000, 50), 10), ((7, 1), 2), ((5, 3), 5)):
        for b in (rng.standard_normal((m, n)), np.asfortranarray(rng.standard_normal((m, n)))):
            labels = random_clustering(rng, m, k).labels0()
            sizes = np.bincount(labels, minlength=k)
            one = kmeans._centroids(b, labels, sizes)
            stack = kmeans._centroids(b, labels[None], sizes[None])
            assert one.shape == (k, n) and np.array_equal(one, stack[0])
            cost = kmeans._cost(b, one, labels)
            assert cost.shape == () and cost == kmeans._cost(b, stack, labels[None])[0]
            assert cost == np.square(np.ascontiguousarray(b) - one[labels]).sum()


def test_objective_dimension_mismatch(rng):
    with pytest.raises(ArgumentError):
        objective(rng.standard_normal((5, 2)), Clustering(4, 2, (1, 1, 2, 2)))


def test_objective_beyond_float64_range_raises():
    # the squares overflow but the cost is finite, zero, or truly too large
    huge = [[1e200], [1.1e200], [-1e200]]
    with pytest.raises(ContractViolationError, match="float64 range"):
        objective(huge, Clustering(3, 2, (1, 1, 2)))
    assert objective(huge, Clustering(3, 3, (1, 2, 3))) == 0.0
    assert objective([[1e308], [1e308], [-1e308]], Clustering(3, 2, (1, 1, 2))) == 0.0
    cost = objective([[1e150], [1.1e150], [-1e150]], Clustering(3, 2, (1, 1, 2)))
    assert cost == pytest.approx(2 * 0.05e150**2, rel=1e-12)


def test_objective_is_invariant_to_power_of_two_scaling(rng):
    a = rng.standard_normal((30, 4)) * np.logspace(-3, 3, 4)
    c = random_clustering(rng, 30, 3)
    ref = objective(a, c)
    for j in (-300, -40, 40, 300):
        assert objective(np.ldexp(a, j), c) == np.ldexp(ref, 2 * j)


@pytest.mark.parametrize("m", [2000, 1999])
def test_objective_over_row_blocks_matches_the_matrix_form(m):
    # 131 rows of 500 columns to a block, so m = 1999 ends in a short one
    rng = np.random.default_rng(m)
    a = rng.standard_normal((m, 500)) + 3.0 * (np.arange(m) % 7)[:, None]
    c = Clustering(m, 7, tuple(np.arange(m) % 7 + 1))
    x = indicator(c)
    ref = np.square(a - x @ (x.T @ a)).sum()
    assert objective(a, c) == pytest.approx(ref, rel=1e-13)
    assert objective(np.asfortranarray(a), c) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("scale", [1.0, 2.0**-300, 2.0**300])
@pytest.mark.parametrize("order", ["C", "F"])
def test_objective_of_one_block_keeps_the_whole_matrix_bits(rng, scale, order):
    a = np.asarray(rng.standard_normal((40, 30)) * scale, order=order)
    c = random_clustering(rng, 40, 4)
    labels = c.labels0()
    b, e = _rescaled(a)
    centroids = kmeans._centroids(b, labels, np.bincount(labels, minlength=4))
    assert objective(a, c) == np.ldexp(float(kmeans._cost(b, centroids, labels)), 2 * e)


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
def test_objective_holds_no_full_size_temporary(rng, scale):
    # blocks of rows, each scaled into one buffer away from scale 1; at
    # 1e200 the cost itself exceeds the float64 range, after the sums
    a = rng.standard_normal((4000, 500)) * scale
    c = Clustering(4000, 10, tuple(np.arange(4000) % 10 + 1))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        if scale > 1.0:
            with pytest.raises(ContractViolationError, match="float64 range"):
                objective(a, c)
        else:
            objective(a, c)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * a.nbytes


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


def test_kmeanspp_draws_on_data_whose_squares_overflow():
    a = np.array([[1e200], [1.1e200], [-1e200]])
    _, e = _rescaled(a)
    for seed in range(10):
        centers = kmeanspp_init(a, 2, seed=seed)
        # rows of the caller's matrix, the same draws as on the scaled data
        assert {float(c) for c in centers[:, 0]} <= {1e200, 1.1e200, -1e200}
        scaled = kmeanspp_init(np.ldexp(a, -e), 2, seed)
        np.testing.assert_array_equal(centers, np.ldexp(scaled, e))


def test_weighted_draw_is_numpys_choice_on_the_same_stream():
    # the k-means++ draw repeats Generator.choice(m, p=p) by its algorithm;
    # a numpy whose choice draws otherwise must fail here, not change plans
    draws = 0
    for m in (1, 2, 3, 7, 50, 1000):
        for trial in range(6):
            source = np.random.default_rng([m, trial])
            # integer weights tie exactly, and about a third of them are zero
            weights = source.integers(0, 3, size=m).astype(float)
            if trial % 2:
                weights *= source.random(m)
            weights[source.integers(m)] += 1.0  # at least one positive weight
            p = weights / float(weights.sum())
            ours, theirs = np.random.default_rng(trial), np.random.default_rng(trial)
            for _ in range(300):
                assert _weighted_draw(ours, p) == int(theirs.choice(m, p=p))
                assert ours.random() == theirs.random()
                draws += 1
    assert draws >= 10_000


def test_kmeanspp_argument_error(rng):
    with pytest.raises(ArgumentError):
        kmeanspp_init(rng.standard_normal((3, 2)), 4, seed=0)


def test_objective_takes_one_scratch_array(rng):
    # gather, difference and squares share one m x n array
    a = rng.standard_normal((400, 300))
    c = random_clustering(rng, 400, 5)
    tracemalloc.start()
    try:
        objective(a, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * a.nbytes


# ---------------------------------------------------------------------------
# Lloyd refinement
# ---------------------------------------------------------------------------


def _lloyd_from(a, init):
    # one run of lloyd_best's kernel from the given centroids, on the points
    # and centroids rescaled alike; it stops only when the labels repeat
    b, e = _rescaled(np.asarray(a, dtype=float))
    init = np.ldexp(np.asarray(init, dtype=float), -e)
    labels, _ = _lloyd(b, init[None], 0.0)
    return Clustering(b.shape[0], init.shape[0], tuple(int(x) + 1 for x in labels[0]))


def test_lloyd_fixed_point_distinct_points(rng):
    a = rng.standard_normal((4, 3)) * 10.0
    c = lloyd(a, 4, seed=0)
    assert objective(a, c) == pytest.approx(0.0, abs=1e-18)


def test_lloyd_rectangle_with_correct_init():
    init = np.array([[0.0, 1.0], [10.0, 1.0]])
    c = _lloyd_from(RECT, init)
    assert objective(RECT, c) == pytest.approx(4.0, abs=1e-12)


def test_lloyd_repairs_empty_clusters():
    # both centroids far on one side: every point first lands in cluster 1
    a = np.array([[0.0], [1.0], [10.0]])
    c = _lloyd_from(a, [[-100.0], [-200.0]])
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
    c = _lloyd_from([[1e200], [1.1e200], [-1e200]], [[-1e200], [1.05e200]])
    assert c.assignment == (2, 2, 1)


def _first_cheapest_restart(a, k, restarts, seed, shift):
    # the composition lloyd_best stands for: restart t is lloyd(seed + t), and
    # the first of the cheapest by objective wins; objective is taken on the
    # points times 2**shift, which ranks them alike and keeps 1e+-200 data
    # from overflowing or underflowing the cost
    runs = [lloyd(a, k, seed=seed + t) for t in range(restarts)]
    costs = [objective(np.ldexp(a, shift), c) for c in runs]
    return runs[int(np.argmin(costs))]


def test_lloyd_best_is_the_first_cheapest_lloyd_restart():
    cases = 0
    for t in range(240):
        local = np.random.default_rng(t)
        m = int(local.integers(2, 16))
        a = local.standard_normal((m, int(local.integers(1, 5))))
        if t % 4 == 1:
            a[m // 2:] = a[: m - m // 2]  # duplicate points
        if t % 4 == 2:
            a[:, :1] *= 1e-6
        power = (0, 664, -664)[t % 3]  # about 1, 1e200 and 1e-200
        k = m if t % 5 == 0 else int(local.integers(1, m + 1))
        b = np.ldexp(a, power)
        assert lloyd_best(b, k, restarts=4, seed=t) == _first_cheapest_restart(
            b, k, 4, t, -power
        )
        cases += 1
    assert cases >= 200


def test_lloyd_emits_no_overflow_warning_on_tiny_data(rng):
    # 2**-2e times the tolerance passes the float64 range at this scale; it
    # saturates, so every decrease counts as below it, as the overflow did
    a = (rng.standard_normal((30, 3)) + rng.integers(0, 3, size=(30, 1))) * 1e-160
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert lloyd(a, 3, seed=1).num_clusters == 3
        best = lloyd_best(a, 3, restarts=5, seed=2)
    assert best == _first_cheapest_restart(a, 3, 5, 2, 530)


# The per-restart k-means++ and Lloyd that lloyd_best ran before its
# restarts advanced in lockstep, kept as the reference the stacked kernel
# must match bit for bit: the same draws from each restart's own stream,
# the same 2-d products and sums, and the same stop rule.


def _reference_kmeanspp(b, k, seed):
    m = b.shape[0]
    rng = np.random.default_rng(seed)
    chosen = np.empty(k, dtype=int)
    chosen[0] = rng.integers(m)
    d2 = np.square(b - b[chosen[0]]).sum(axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            idx = _weighted_draw(rng, d2 / total)
        else:
            remaining = np.setdiff1d(np.arange(m), chosen[:j])
            idx = int(rng.choice(remaining))
        chosen[j] = idx
        d2 = np.minimum(d2, np.square(b - b[idx]).sum(axis=1))
    return chosen


def _reference_lloyd(b, k, centroids, tol):
    sq, twice = np.square(b).sum(axis=1), 2.0 * b
    prev_obj, prev_labels = np.inf, None
    for _ in range(kmeans._MAX_ITER):
        d2 = sq[:, None] - twice @ centroids.T + np.square(centroids).sum(axis=1)[None, :]
        labels = d2.argmin(axis=1)
        sizes = np.bincount(labels, minlength=k)
        for j in np.flatnonzero(sizes == 0):
            donors = np.flatnonzero(sizes[labels] >= 2)
            moved = donors[int(d2[donors, labels[donors]].argmax())]
            sizes[labels[moved]] -= 1
            labels[moved] = j
            sizes[j] = 1
        onehot = (labels[:, None] == np.arange(k)).astype(float)
        centroids = (onehot.T @ b) / np.bincount(labels, minlength=k)[:, None]
        gathered = np.empty(b.shape)  # C-ordered whatever the layout of b
        np.take(centroids, labels, axis=0, out=gathered)
        obj = float(np.square(b - gathered, out=gathered).sum())
        if prev_labels is not None:
            assert obj <= prev_obj + 1e-9 * max(1.0, prev_obj)
            if np.array_equal(labels, prev_labels) or prev_obj - obj < tol:
                break
        prev_obj, prev_labels = obj, labels
    return labels, obj


def _reference_runs(a, k, restarts, seed):
    # (restarts, m) labels and (restarts,) costs, one restart at a time, on
    # the rescaled points minus their column means
    b, e = _rescaled(a)
    b = b - b.mean(axis=0)
    with np.errstate(over="ignore"):
        tol = float(np.ldexp(kmeans._TOL, -2 * e))
    runs = [_reference_lloyd(b, k, b[_reference_kmeanspp(b, k, seed + t)], tol)
            for t in range(restarts)]
    return np.array([labels for labels, _ in runs]), np.array([cost for _, cost in runs])


def _laid_out(a, t):
    # a itself, or its values in column-major order, as a column-strided
    # view, or as a view with negative strides: the layout decides the order
    # in which numpy adds along a row, so the kernels must follow it
    if t % 4 == 1:
        return np.asfortranarray(a)
    if t % 4 == 2:
        return np.asfortranarray(np.repeat(a, 2, axis=1))[:, ::2]
    if t % 4 == 3:
        return np.ascontiguousarray(a[::-1])[::-1]
    return a


def _lockstep_corpus():
    # (a, k, restarts, seed): Gaussian, duplicate, constant, mixed-scale and
    # tied points at scales 1 and 2**+-664, in four memory layouts, k = 1
    # and k = m among the rest
    cases = []
    for t in range(800):
        local = np.random.default_rng([20, t])
        m, n = int(local.integers(1, 16)), int(local.integers(1, 6))
        a = local.standard_normal((m, n))
        kind = t % 5
        if kind == 1:
            a[m // 2:] = a[: m - m // 2]
        elif kind == 2:
            a[:] = a[0]
        elif kind == 3:
            a[:, :1] *= 1e-6
        elif kind == 4:
            a = np.round(a)
        k = (1, m, int(local.integers(1, m + 1)))[min(t % 7, 2)]
        restarts = (1, 2, 7, 13, 50)[t // 5 % 5]
        cases.append((_laid_out(np.ldexp(a, (0, 664, -664)[t % 3]), t), k, restarts, t))
    # the rescaled tolerance saturates at inf, so every decrease stops a run
    for t in range(10):
        local = np.random.default_rng([21, t])
        a = (local.standard_normal((30, 3)) + local.integers(0, 3, size=(30, 1))) * 1e-160
        cases.append((_laid_out(a, t), 3, 13, t))
    # stacks the default budget cuts into chunks, and one restart per chunk
    # on points column-major as a selection's reduced matrix is
    cases.append((np.random.default_rng(22).standard_normal((300, 20)), 5, 13, 4))
    tall = np.random.default_rng(23).standard_normal((2000, 50))
    cases.append((np.asfortranarray(tall), 10, 2, 7))
    return cases


def test_lloyd_best_restarts_are_the_per_restart_runs_bit_for_bit(monkeypatch):
    chunks = []
    real = kmeans._lloyd

    def recorded(b, centroids, tol):
        labels, costs = real(b, centroids, tol)
        chunks.append((labels.copy(), costs.copy()))
        return labels, costs

    monkeypatch.setattr(kmeans, "_lloyd", recorded)
    # one pass at the default budget, and one at a budget so small that
    # most stacks split into chunks of a few restarts
    budgets = {"default": kmeans._STACK_FLOATS, "small": 256}
    stacked = dict.fromkeys(budgets, 0)
    for a, k, restarts, seed in _lockstep_corpus():
        want_labels, want_costs = _reference_runs(a, k, restarts, seed)
        for name, budget in budgets.items():
            monkeypatch.setattr(kmeans, "_STACK_FLOATS", budget)
            chunks.clear()
            best = lloyd_best(a, k, restarts, seed)
            stacked[name] += len(chunks) > 1 and any(len(costs) > 1 for _, costs in chunks)
            got_labels = np.concatenate([labels for labels, _ in chunks])
            got_costs = np.concatenate([costs for _, costs in chunks])
            assert np.array_equal(got_labels, want_labels), (name, a.shape, k, restarts, seed)
            assert np.array_equal(got_costs, want_costs), (name, a.shape, k, restarts, seed)
            assert best.assignment == tuple(want_labels[int(np.argmin(want_costs))] + 1)
        assert lloyd(a, k, seed).assignment == tuple(want_labels[0] + 1)
        want_seeds = a[_reference_kmeanspp(_rescaled(a)[0], k, seed)]
        assert np.array_equal(kmeanspp_init(a, k, seed), want_seeds)
    # restarts crossed chunk boundaries with several restarts in a chunk
    assert stacked["default"] >= 1 and stacked["small"] >= 100, stacked


def test_lloyd_stops_on_an_unchanged_cost_when_the_tolerance_underflows(monkeypatch):
    # at 2**600 the rescaled tolerance is 0, so no decrease falls below it;
    # a run still stops at its first repeated labelling, whose cost is the
    # cost of the step before, bit for bit
    steps = []
    real = kmeans._centroids

    def counted(*args):
        steps.append(1)
        return real(*args)

    monkeypatch.setattr(kmeans, "_centroids", counted)
    a = np.random.default_rng(25).standard_normal((40, 3)) + np.repeat(np.eye(3) * 8, [14, 13, 13], 0)
    want = lloyd(a, 3, 0).assignment
    for scale in (1.0, 2.0**600):
        steps.clear()
        assert lloyd(a * scale, 3, 0).assignment == want
        assert 2 <= len(steps) < 10, (scale, len(steps))


def test_stacked_squared_distances_add_in_the_order_of_the_points_layout():
    # numpy sums a row of a column-major array term by term and a row of a
    # row-major one pairwise; with 50 columns the two round differently, so
    # k-means++ must lay its stack out as b - b[i] is, in every layout
    base = np.random.default_rng(24).standard_normal((400, 100)) * np.logspace(-3, 3, 100)
    wide = np.asfortranarray(base)
    layouts = [base[:, :50], np.ascontiguousarray(base[:, :50]), wide[:, :50], wide[:, ::2],
               base[::2, ::2], base[::-1, :50], wide[:, ::-2], np.ascontiguousarray(base.T)[:50].T,
               wide[::-1, ::-2]]
    picks = np.array([3, 17, 17, 150])
    for b in layouts:
        expected = [np.square(b - b[i]).sum(axis=1) for i in picks]
        stacked = _sq_dists(b, b[picks])
        assert np.array_equal(stacked, expected), b.strides


def _lloyd_best_peak_bytes(a, k, restarts):
    tracemalloc.start()
    try:
        lloyd_best(a, k, restarts, 0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lloyd_best_memory_does_not_grow_with_restarts(rng):
    # on 2000 x 50 each chunk holds one restart, so the peak is 2 b and one
    # m x n scratch however many restarts run; 3.3e6 bytes is what running
    # the restarts one after another took
    a = rng.standard_normal((2000, 50))
    lloyd_best(a, 10, 1, 0)  # numpy's one-time allocations, outside both peaks
    few, many = _lloyd_best_peak_bytes(a, 10, 5), _lloyd_best_peak_bytes(a, 10, 50)
    assert many <= 1.1 * few and many <= 3.3e6, (few, many)


def test_lloyd_argument_errors(rng):
    a = rng.standard_normal((3, 2))
    with pytest.raises(ArgumentError):
        lloyd_best(a, 4)
    with pytest.raises(ArgumentError):
        lloyd_best(a, 2, restarts=0)


def test_lloyd_clusters_points_whose_offset_dwarfs_their_spread():
    # uncentred, the expanded squared distances of these points cancel and a
    # Lloyd step raised the cost on every seed; centred, they cluster as
    # the points without the offset do
    for seed in range(100):
        points = np.random.default_rng(seed).standard_normal((30, 3)) * 0.01
        assert lloyd(points + 1e6, 4, seed).assignment == lloyd(points, 4, seed).assignment, seed


# two tight clusters far apart: centring leaves each cluster its offset
# from the common mean, so the expanded squared distances still cancel and
# a Lloyd step can raise the cost
FAR_CLUSTERS = np.random.default_rng(0).standard_normal((30, 3)) * 0.01
FAR_CLUSTERS[15:] += 1e6


def test_lloyd_cost_increase_is_a_numerical_search_error():
    with pytest.raises(NumericalSearchError, match="Lloyd step 2 raised the cost") as err:
        lloyd(FAR_CLUSTERS, 4, 0)
    assert err.value.step == 2
    d = err.value.diagnostics
    assert sorted(d) == ["cost", "previous_cost", "seed"] and d["seed"] == 0
    assert d["cost"] > d["previous_cost"] > 0.0
    # lloyd_best names the restart that failed by its seed, with the step
    # and costs that restart's own run fails with
    later = 0
    for seed in range(5):
        with pytest.raises(NumericalSearchError) as best:
            lloyd_best(FAR_CLUSTERS, 4, 7, seed)
        failed = best.value.diagnostics["seed"]
        assert seed <= failed < seed + 7
        later += failed > seed
        with pytest.raises(NumericalSearchError) as alone:
            lloyd(FAR_CLUSTERS, 4, failed)
        assert alone.value.step == best.value.step
        assert alone.value.diagnostics == best.value.diagnostics
    assert later >= 1  # a restart after the first in its stack failed first


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


def _stirling2(m, k):
    # S(m, k) = k S(m - 1, k) + S(m - 1, k - 1), apart from the enumerator
    row = [1] + [0] * k  # S(0, 0..k)
    for _ in range(m):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def test_partition_batches_list_every_larger_shape_in_strict_order():
    # the shapes the exhaustive search meets beyond the itertools check
    for m in range(8, 13):
        for k in range(1, m + 1):
            batches = list(_partition_batches(m, k))
            assert sum(b.shape[0] for b in batches) == _stirling2(m, k), (m, k)
            assert all(b.shape[0] == _PARTITION_BATCH for b in batches[:-1]), (m, k)
            previous = -1
            for b in batches:
                assert b.dtype == np.int8
                # restricted growth: each label at most one past those before it
                reach = np.maximum.accumulate(b, axis=1)
                assert (b[:, 0] == 0).all() and (b[:, 1:] <= reach[:, :-1] + 1).all(), (m, k)
                assert (reach[:, -1] == k - 1).all(), (m, k)
                # base-k digits: numeric order of the codes is lexicographic order
                codes = b.astype(np.int64) @ k ** np.arange(m - 1, -1, -1, dtype=np.int64)
                assert previous < codes[0] and (np.diff(codes) > 0).all(), (m, k)
                previous = codes[-1]


def test_partition_batches_hold_one_batch_at_a_time():
    # S(12, 5) = 1,379,400 labellings, 16.6 MB of int8 in all
    tracemalloc.start()
    try:
        for _ in _partition_batches(12, 5):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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
                for labels, onehot, inv_sizes, prod in _scored_batches(m, k):
                    scores = np.ldexp(_batch_objectives(g, onehot, inv_sizes, prod), 2 * e)
                    exact = [objective(a, Clustering(m, k, tuple(row + 1))) for row in labels]
                    np.testing.assert_allclose(scores, exact, rtol=0, atol=1e-12 * total)


def test_cached_and_streamed_feeds_agree(monkeypatch):
    # the same enumeration scored from the cache and streamed in several
    # batches: the same optimum, and every score within the tolerance above
    rng = np.random.default_rng(5)

    def search(a, g, k, batch):
        monkeypatch.setattr(kmeans, "_PARTITION_BATCH", batch)
        monkeypatch.setattr(kmeans, "_ONE_BATCH", {})
        first = brute_force_optimal(a, k).assignment  # caches a one-batch enumeration
        scores = np.concatenate([_batch_objectives(g, *feed[1:])
                                 for feed in _scored_batches(a.shape[0], k)])
        return first, brute_force_optimal(a, k).assignment, scores, (a.shape[0], k) in kmeans._ONE_BATCH

    for m in range(1, 10):
        for a in (rng.standard_normal((m, 3)), rng.standard_normal((m, 2)) * 1e-5 + 1e6):
            g = _centred_gram(a)
            total = float(np.trace(g))
            for k in range(1, m + 1):
                count = _stirling2(m, k)
                *cached, scores, kept = search(a, g, k, max(count, _PARTITION_BATCH))
                assert kept, (m, k)
                *streamed, streamed_scores, kept = search(a, g, k, -(-count // 3))
                assert kept == (count == 1), (m, k)
                assert cached[0] == cached[1] == streamed[0] == streamed[1], (m, k)
                np.testing.assert_allclose(streamed_scores, scores, rtol=0, atol=1e-12 * total)


def test_one_batch_enumerations_are_built_once_and_read_only(monkeypatch):
    rng = np.random.default_rng(3)
    searches = []
    for m in range(1, 10):
        a = rng.standard_normal((m, 2))
        for k in range(1, m + 1):
            expected = np.vstack(list(_partition_batches(m, k)))
            if expected.shape[0] <= _PARTITION_BATCH:
                searches.append((a, k, brute_force_optimal(a, k).assignment))
                labels, onehot, inv_sizes = _ONE_BATCH[m, k]
                assert np.array_equal(labels, expected), (m, k)
                # row t k + c marks cluster c of labelling t
                members = expected[:, None, :] == np.arange(k)[:, None]
                assert onehot.dtype == bool, (m, k)
                assert np.array_equal(onehot, members.reshape(-1, m)), (m, k)
                assert np.array_equal(inv_sizes, 1.0 / members.sum(axis=2)), (m, k)
                for array in (labels, onehot, inv_sizes):
                    with pytest.raises(ValueError):
                        array[0, 0] = 1

    def rebuilt(m, k):
        raise AssertionError(f"enumeration ({m}, {k}) built again")

    monkeypatch.setattr(kmeans, "_partition_batches", rebuilt)
    for a, k, assignment in searches:
        assert brute_force_optimal(a, k).assignment == assignment


def test_streamed_enumerations_are_not_kept(rng):
    brute_force_optimal(rng.standard_normal((12, 3)), 5)
    assert (12, 5) not in _ONE_BATCH


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


def test_brute_force_memory_is_bounded_by_the_batch(rng):
    # S(12, 5) = 1,379,400 labellings: the enumeration is streamed, so
    # memory is bounded by _PARTITION_BATCH, not by the Stirling number
    assert _brute_force_peak_bytes(rng.standard_normal((12, 3)), 5) < 16 * 2**20


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
