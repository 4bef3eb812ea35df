import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from kmselect import linalg, pipelines, sparsify
from kmselect.bounds import theorem1_factor, theorem2_factor, theorem3_factor
from kmselect.errors import (
    ArgumentError,
    ContractViolationError,
    RankDeficiencyError,
    RankFailureError,
)
from kmselect.kmeans import Clustering, brute_force_optimal, indicator, lloyd_best, objective
from kmselect.linalg import residual, sigma_k, spectral_norm, svd_top_k
from kmselect.pipelines import (
    STAGE1_RETRIES,
    randomized_select,
    select_then_cluster,
    stage1_width,
    supervised_select,
    unsupervised_select,
)
from kmselect.sparsify import SamplingPlan, apply_plan, deterministic_sampling_two


def zero_error_dataset(rng, k=2, copies=4, n=6):
    base = rng.standard_normal((k, n)) * 5.0
    a = np.vstack([base] * copies)
    labels = tuple((i % k) + 1 for i in range(k * copies))
    return a, Clustering(k * copies, k, labels)


# ---------------------------------------------------------------------------
# supervised pipeline
# ---------------------------------------------------------------------------


def test_streamed_residual_norms_are_those_of_the_stacked_residuals(rng):
    # m = 200 rows: four blocks per half, the last one partial
    a = rng.standard_normal((200, 25))
    given = lloyd_best(a, 3, restarts=2, seed=0)
    top = svd_top_k(a, 3)
    v = top.v
    x = indicator(given)
    stacked = np.vstack([residual(a, v), a - x @ (x.T @ a)])
    np.testing.assert_allclose(pipelines._residual_sq_norms(a, v, given, top.s[0]),
                               np.square(stacked).sum(axis=0), rtol=1e-14, atol=0.0)


def _peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_supervised_charges_hold_no_m_by_n_array(rng):
    # two m x k factors, one k x n product and two blocks of rows
    m, n, k = 4000, 200, 5
    a = rng.standard_normal((m, n))
    given = lloyd_best(a, k, restarts=1, seed=0)
    top = svd_top_k(a, k)
    v = top.v
    peak = _peak(lambda: pipelines._residual_sq_norms(a, v, given, top.s[0]))
    assert peak <= 8 * (2 * m * k + k * n + 2 * (sparsify._CHARGE_ROWS + 1) * n) + 65536
    assert peak < 0.1 * a.nbytes


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
def test_supervised_charges_form_each_block_once(rng, monkeypatch, scale):
    # m = 200 rows: four blocks per half, the last one partial, each formed
    # once, with no pass that only reads the blocks' extremes
    a = rng.standard_normal((200, 25)) * scale
    given = lloyd_best(a, 3, restarts=1, seed=0)
    calls, minus = [], pipelines._minus_product

    def counted(rows, *args):
        calls.append(rows.shape[0])
        return minus(rows, *args)

    monkeypatch.setattr(pipelines, "_minus_product", counted)
    supervised_select(a, given, 3, 8)
    assert calls == [64, 64, 64, 8] * 2


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
def test_supervised_select_peak_is_the_unsupervised_peak_at_every_scale(rng, scale):
    # the top-k solve sets both peaks: the supervised charges are summed
    # over blocks of rows, with no stacked residual or scaled copy
    a = rng.standard_normal((4000, 200)) * scale
    given = lloyd_best(a, 5, restarts=1, seed=0)
    supervised = _peak(lambda: supervised_select(a, given, 5, 40))
    unsupervised = _peak(lambda: unsupervised_select(a, 5, 40))
    assert supervised <= unsupervised + 0.05 * a.nbytes


def test_supervised_bound_with_exhaustive_backend(rng):
    a = rng.standard_normal((10, 8))
    k, r = 2, 4
    given = brute_force_optimal(a, k)
    fs = supervised_select(a, given, k, r)
    assert fs.reduced.shape == (10, 4)
    out = brute_force_optimal(fs.reduced, k)
    assert objective(a, out) <= theorem1_factor(k, r, 1.0) * objective(a, given) + 1e-9


def test_supervised_zero_error_dataset(rng):
    a, given = zero_error_dataset(rng)
    assert objective(a, given) == pytest.approx(0.0, abs=1e-18)
    fs = supervised_select(a, given, 2, 4)
    out = brute_force_optimal(fs.reduced, 2)
    assert objective(a, out) == pytest.approx(0.0, abs=1e-12)


def test_supervised_deterministic(rng):
    a = rng.standard_normal((9, 7))
    given = brute_force_optimal(a, 2)
    assert supervised_select(a, given, 2, 4).plan == supervised_select(a, given, 2, 4).plan


def test_supervised_plan_is_invariant_to_power_of_two_scaling():
    # the Frobenius charges are ratios of squares: unscaled, those squares
    # overflow beyond about 2**512 and lose bits below about 2**-512
    a = np.random.default_rng(0).standard_normal((40, 30))
    given = lloyd_best(a, 3)
    ref = supervised_select(a, given, 3, 10).plan
    for j in (-600, -540, -520, -400, 400, 520, 600):
        assert supervised_select(np.ldexp(a, j), given, 3, 10).plan == ref


def test_supervised_argument_errors(rng):
    a = rng.standard_normal((8, 6))
    given = brute_force_optimal(a, 2)
    with pytest.raises(ArgumentError):
        supervised_select(a, given, 2, 2)  # r must exceed k
    with pytest.raises(ArgumentError):
        supervised_select(a, given, 2, 6)  # r must stay below n
    with pytest.raises(ArgumentError):
        supervised_select(a, brute_force_optimal(a, 3), 2, 4)  # k mismatch
    with pytest.raises(ArgumentError):
        supervised_select(a[:6], given, 2, 4)  # m mismatch


def test_supervised_rank_error(rng):
    a = np.outer(rng.standard_normal(8), rng.standard_normal(6))
    given = brute_force_optimal(a, 2)
    with pytest.raises(RankDeficiencyError):
        supervised_select(a, given, 2, 4)


# ---------------------------------------------------------------------------
# unsupervised pipeline
# ---------------------------------------------------------------------------


def test_unsupervised_bound_with_exhaustive_backend(rng):
    a = rng.standard_normal((10, 8))
    k, r = 2, 4
    fs = unsupervised_select(a, k, r)
    out = brute_force_optimal(fs.reduced, k)
    f_opt = objective(a, brute_force_optimal(a, k))
    assert objective(a, out) <= theorem2_factor(8, k, r, 1.0) * f_opt + 1e-9


def test_unsupervised_orthogonal_equal_norm_columns(rng):
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    a = 3.0 * q[:, :5]  # orthogonal columns of equal norm
    k, r = 1, 2
    fs = unsupervised_select(a, k, r)
    sig = sigma_k(apply_plan(fs.basis.T, fs.plan), k)
    assert sig >= 1.0 - math.sqrt(k / r) - 1e-9
    assert spectral_norm(apply_plan(np.eye(5), fs.plan)) <= 1.0 + math.sqrt(5.0 / r) + 1e-9


def test_unsupervised_deterministic(rng):
    a = rng.standard_normal((9, 7))
    assert unsupervised_select(a, 2, 4).plan == unsupervised_select(a, 2, 4).plan


def test_unsupervised_select_holds_no_quadratic_second_set(rng):
    # the identity second set costs 2n - 1 floats: the peak is a fraction
    # of the input (np.eye(4000) alone would be 13x it)
    a = rng.standard_normal((300, 4000))
    tracemalloc.start()
    try:
        unsupervised_select(a, 5, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes


def test_unsupervised_plan_equals_an_explicit_identity_second_set():
    for seed in range(4):
        a = np.random.default_rng(seed).standard_normal((30, 60))
        plan = deterministic_sampling_two(svd_top_k(a, 3).v.T, np.eye(60), 12)
        assert unsupervised_select(a, 3, 12).plan == plan


def test_deterministic_pipelines_keep_full_rank(rng):
    for t in range(10):
        local = np.random.default_rng(400 + t)
        a = local.standard_normal((10, 8))
        k = 2
        for fs in (
            unsupervised_select(a, k, 4),
            supervised_select(a, brute_force_optimal(a, k), k, 4),
        ):
            assert sigma_k(apply_plan(fs.basis.T, fs.plan), k) > 0.0


@pytest.mark.parametrize("method", ["supervised", "unsupervised", "randomized"])
def test_each_pipeline_reads_its_matrix_once(rng, monkeypatch, method):
    # a pipeline leaves the finiteness check of a to its first public call,
    # and builds the reduced matrix without another read of a's extremes.
    # A read of a or of a.T counts; 200 columns keep the randomized first
    # stage below n, and 30 rows keep the sketch's q.T a smaller than a
    a = rng.standard_normal((30, 200))
    given = lloyd_best(a, 3, restarts=1, seed=0)
    reads, read = [], linalg._scale_exponent

    def counted(x):
        if x.shape in (a.shape, a.T.shape):
            reads.append(x.shape)
        return read(x)

    for module in (linalg, sparsify):
        monkeypatch.setattr(module, "_scale_exponent", counted)
    fs = pipelines._select(a, 3, 8, method, 0, given)
    assert len(reads) == 1
    np.testing.assert_array_equal(fs.reduced, apply_plan(a, fs.plan))


# ---------------------------------------------------------------------------
# randomized pipeline
# ---------------------------------------------------------------------------


def test_randomized_reproducible(rng):
    a = rng.standard_normal((12, 40))
    one = randomized_select(a, 2, 6, seed=11)
    two = randomized_select(a, 2, 6, seed=11)
    assert one.plan == two.plan
    np.testing.assert_array_equal(one.reduced, two.reduced)


def test_stage1_width_constant():
    assert stage1_width(2, 6) == max(6, 119)
    assert stage1_width(2, 300) == 300
    assert stage1_width(2, 6) == math.ceil(16 * 2 * math.log(40.0))
    assert type(stage1_width(np.int64(2), np.int64(500))) is int


def test_stage1_width_takes_k_by_the_integer_rule():
    # k is checked as r is: a float, a bool or a string is refused, and so
    # is k < 1, where ln(20 k) is undefined
    for k in (2.5, True, "2", 0, -3):
        with pytest.raises(ArgumentError, match="k"):
            stage1_width(k, 5)
    assert stage1_width(1, 5) == math.ceil(16 * math.log(20.0))


def test_randomized_degenerate_stage1_keeps_everything(rng):
    a = rng.standard_normal((10, 8))
    fs = randomized_select(a, 2, 4, seed=0)
    assert fs.stage1_size == 8  # identity first stage: c >= n
    assert fs.reduced.shape == (10, 4)


def test_randomized_full_first_stage_holds_no_quadratic_second_set(rng):
    a = rng.standard_normal((400, 800))
    tracemalloc.start()
    try:
        fs = randomized_select(a, 10, 40, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fs.stage1_size == 800  # c >= n: the sketch meets an 800 x 800 identity
    assert peak < a.nbytes


def test_randomized_two_stage_composition(rng):
    a = rng.standard_normal((12, 300))
    fs = randomized_select(a, 2, 6, seed=5)
    assert fs.stage1_size == 119
    assert fs.plan.source_dim == 300
    assert fs.plan.target_dim == 6
    np.testing.assert_array_equal(fs.reduced, apply_plan(a, fs.plan))
    assert all(w > 0 for w in fs.plan.weights)


def _count_stage1_work(monkeypatch, deficient_draws):
    # wrap the sampler so its first *deficient_draws* plans repeat one
    # column (rank 1 < k), and count the draws and the top-k decompositions
    sampling, svd = pipelines.randomized_sampling, pipelines.svd_top_k
    seen = {"draws": 0, "svds": 0}

    def fake_sampling(v_rows, c, seed):
        plan = sampling(v_rows, c, seed)
        seen["draws"] += 1
        if seen["draws"] <= deficient_draws:
            return SamplingPlan(plan.source_dim, c, (plan.indices[0],) * c, (1.0,) * c)
        return plan

    def counted_svd(a, k):
        seen["svds"] += 1
        return svd(a, k)

    monkeypatch.setattr(pipelines, "randomized_sampling", fake_sampling)
    monkeypatch.setattr(pipelines, "svd_top_k", counted_svd)
    return seen


def test_randomized_redraws_a_rank_deficient_first_stage(rng, monkeypatch):
    a = rng.standard_normal((12, 300))
    expected = randomized_select(a, 2, 6, seed=5)
    seen = _count_stage1_work(monkeypatch, deficient_draws=1)
    fs = randomized_select(a, 2, 6, seed=5)
    # one decomposition per attempt: the accepted one drives stage two
    assert seen == {"draws": 2, "svds": 2}
    assert fs.stage1_size == 119
    np.testing.assert_array_equal(fs.reduced, apply_plan(a, fs.plan))
    assert fs.plan != expected.plan  # the second draw uses its own seed


def test_randomized_rank_failure_after_all_retries(rng, monkeypatch):
    a = rng.standard_normal((12, 300))
    seen = _count_stage1_work(monkeypatch, deficient_draws=1 + STAGE1_RETRIES)
    with pytest.raises(RankFailureError, match=f"in {1 + STAGE1_RETRIES} attempts"):
        randomized_select(a, 2, 6, seed=5)
    assert seen == {"draws": 1 + STAGE1_RETRIES, "svds": 1 + STAGE1_RETRIES}


def test_randomized_bound_monte_carlo(rng):
    a = rng.standard_normal((12, 300))
    k, r = 2, 6
    f_opt = objective(a, brute_force_optimal(a, k))
    factor = theorem3_factor(k, r, 1.0)
    hits = 0
    trials = 20
    for seed in range(trials):
        fs = randomized_select(a, k, r, seed=seed)
        out = brute_force_optimal(fs.reduced, k)
        hits += objective(a, out) <= factor * f_opt + 1e-9
    assert hits >= 0.4 * trials


def test_randomized_argument_error(rng):
    with pytest.raises(ArgumentError):
        randomized_select(rng.standard_normal((8, 10)), 3, 3, seed=0)


# ---------------------------------------------------------------------------
# select_then_cluster reports
# ---------------------------------------------------------------------------


def test_report_zero_error_dataset_all_methods(rng):
    a, given = zero_error_dataset(rng)
    for method in ("supervised", "unsupervised", "randomized"):
        report = select_then_cluster(
            a, 2, 4, method=method, backend="brute", seed=1, given=given
        )
        assert report["objective_original"] == pytest.approx(0.0, abs=1e-12)


def test_report_supervised_bound_holds(rng):
    a = rng.standard_normal((10, 8))
    given = brute_force_optimal(a, 2)
    report = select_then_cluster(a, 2, 4, method="supervised", backend="brute", given=given)
    assert report["bound_holds"] is True
    assert report["gamma_certified"] is True
    assert report["bound"]["name"] == "supervised-selection-bound"
    assert report["bound"]["lhs"] == report["objective_original"]
    assert report["objective_reduced"] >= 0.0


def test_report_unsupervised_near_full_selection(rng):
    a = rng.standard_normal((10, 8))
    n, k = 8, 2
    r = n - 1
    report = select_then_cluster(a, k, r, method="unsupervised", backend="brute")
    f_opt = objective(a, brute_force_optimal(a, k))
    factor = theorem2_factor(n, k, r, 1.0)
    assert report["objective_original"] <= factor * f_opt + 1e-9
    assert report["bound_holds"] is True


def test_report_lloyd_backend_certifies_nothing(rng):
    a = rng.standard_normal((30, 10))
    report = select_then_cluster(a, 3, 5, method="unsupervised", backend="lloyd", seed=2)
    assert report["gamma_certified"] is False
    assert report["bound"] is None and report["bound_holds"] is None
    assert report["objective_reduced"] > 0.0


@pytest.mark.parametrize("method", ["supervised", "unsupervised", "randomized"])
def test_lloyd_report_clusters_the_distinct_picks_as_lloyd_clusters_reduced(method, monkeypatch):
    # planted blobs on the first k axes: every sampler repeats picks, and
    # 300 columns keep the randomized first stage (197 columns) sampled
    rng = np.random.default_rng(5)
    m, n, k, r = 120, 300, 3, 12
    centres = np.zeros((k, n))
    centres[np.arange(k), np.arange(k)] = 8.0
    a = centres[np.arange(m) % k] + rng.standard_normal((m, n))
    given = Clustering(m, k, tuple(np.arange(m) % k + 1)) if method == "supervised" else None
    widths = []

    def spy(points, *args, **kwargs):
        widths.append(points.shape[1])
        return lloyd_best(points, *args, **kwargs)

    monkeypatch.setattr(pipelines, "lloyd_best", spy)
    for seed in (0, 1, 2, 3):
        report = select_then_cluster(a, k, r, method, "lloyd", seed=seed, restarts=5, given=given)
        fs = pipelines._select(a, k, r, method, seed, given)
        assert report["selection"] == fs.to_dict()
        assert widths[-1] == len(set(fs.plan.indices)) < r
        expected = lloyd_best(fs.reduced, k, restarts=5, seed=seed)
        assert report["clustering"]["assignment"] == list(expected.assignment)
        assert report["objective_reduced"] == objective(fs.reduced, expected)
        assert report["clustering"]["objective"] == report["objective_reduced"]
    assert len(widths) == 4


@pytest.mark.parametrize("method", ["supervised", "unsupervised", "randomized"])
def test_brute_report_clusters_the_distinct_picks_as_the_search_on_reduced(method, monkeypatch):
    # the exhaustive search gets the merged picks, as Lloyd does, and finds
    # the optimum of reduced; the reference optimum is still taken on a
    rng = np.random.default_rng(5)
    m, n, k, r = 10, 40, 2, 8
    centres = np.zeros((k, n))
    centres[np.arange(k), np.arange(k)] = 8.0
    a = centres[np.arange(m) % k] + rng.standard_normal((m, n))
    given = Clustering(m, k, tuple(np.arange(m) % k + 1)) if method == "supervised" else None
    widths = []

    def spy(points, *args):
        widths.append(points.shape[1])
        return brute_force_optimal(points, *args)

    monkeypatch.setattr(pipelines, "brute_force_optimal", spy)
    report = select_then_cluster(a, k, r, method, "brute", seed=0, given=given)
    fs = pipelines._select(a, k, r, method, 0, given)
    assert report["selection"] == fs.to_dict()
    assert widths[0] == len(set(fs.plan.indices)) < r
    assert widths[1:] == ([] if method == "supervised" else [n])
    expected = brute_force_optimal(fs.reduced, k)
    assert report["clustering"]["assignment"] == list(expected.assignment)
    assert report["objective_reduced"] == objective(fs.reduced, expected)


@pytest.mark.parametrize("backend", ["lloyd", "brute"])
@pytest.mark.parametrize("method", ["supervised", "unsupervised", "randomized"])
def test_report_takes_numpy_integers_and_echoes_python_ints(rng, method, backend):
    # the integer rule accepts numpy integers; the report and its selection
    # echo them as Python ints, so the report is plain JSON.  150 columns
    # keep the randomized first stage (119 columns) narrower than the matrix
    a = rng.standard_normal((10, 150))
    given = lloyd_best(a, 2, restarts=2, seed=0) if method == "supervised" else None
    report = select_then_cluster(a, np.int64(2), np.int64(4), method, backend,
                                 seed=np.int64(3), restarts=np.int64(5), given=given)
    json.dumps(report)
    selection = report["selection"]
    echoed = [report[key] for key in ("k", "r", "seed", "restarts")]
    echoed += [selection[key] for key in ("k", "r", "seed", "stage1_size")]
    assert all(v is None or type(v) is int for v in echoed), echoed
    assert None not in echoed[:3] and selection["k"] == 2


def test_report_validation_errors(rng):
    a = rng.standard_normal((10, 8))
    with pytest.raises(ArgumentError):
        select_then_cluster(a, 2, 4, method="supervised", backend="brute")
    with pytest.raises(ArgumentError):
        select_then_cluster(a, 2, 4, method="nope", backend="brute")
    with pytest.raises(ArgumentError):
        select_then_cluster(a, 2, 4, method="unsupervised", backend="nope")


def test_report_checks_every_argument_before_any_selection_work(rng, monkeypatch):
    a = rng.standard_normal((10, 8))
    calls = []

    def recorded(name):
        original = getattr(pipelines, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for name in ("svd_top_k", "approx_svd_z"):
        monkeypatch.setattr(pipelines, name, recorded(name))
    given = brute_force_optimal(a, 2)
    for method in pipelines.METHODS:
        with pytest.raises(ArgumentError, match="restart"):
            select_then_cluster(a, 2, 4, method, "lloyd", restarts=0, given=given)
        with pytest.raises(ArgumentError, match="covers 10 points but the matrix has 9 rows"):
            select_then_cluster(a[:9], 2, 4, method, "brute", given=given)
    assert calls == []


@pytest.mark.parametrize("top", [1.2e308, 1.7e308])
def test_randomized_select_at_the_top_of_the_float64_range(top):
    # the sketch is taken of the rescaled input; the one product that can
    # still overflow, the weighted sample of the input, raises instead
    for shape in [(12, 40), (40, 12), (20, 300)]:
        a = np.random.default_rng(3).standard_normal(shape)
        a *= top / np.abs(a).max()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                fs = randomized_select(a, 2, 6, seed=0)
            except ContractViolationError as exc:
                assert "exceeds the float64 range" in str(exc)
            else:
                assert np.isfinite(fs.reduced).all()
