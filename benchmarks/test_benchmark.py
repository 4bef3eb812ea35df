"""Tests of the benchmark's own arithmetic, tracing and gates, on tiny inputs.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest -q benchmarks
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import kmselect
from kmselect import kmeans, linalg, pipelines

import workloads
from benchstats import spread, stirling2, tail, worsening
from spans import Span, Tracer, aggregate, covered, self_times


# ---------------------------------------------------------------------------
# percentile and sample-count rule
# ---------------------------------------------------------------------------


def test_tail_needs_ten_samples_beyond_the_median():
    assert tail(range(19)) is None
    t = tail(range(1, 21))
    assert (t["percentile"], t["value"], t["beyond"], t["samples"]) == (50.0, 10, 10, 20)


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [(100, 90.0, 10), (199, 90.0, 19), (200, 95.0, 10), (999, 95.0, 49),
     (1000, 99.0, 10), (10000, 99.9, 10)],
)
def test_tail_takes_the_highest_percentile_with_ten_beyond(n, percentile, beyond):
    samples = np.random.default_rng(n).permutation(n) + 1
    t = tail(samples.tolist())
    assert t["percentile"] == percentile
    assert t["beyond"] == beyond >= 10
    assert t["samples"] == n
    # nearest rank: exactly `beyond` samples lie above the reported value
    assert t["value"] == n - beyond


def test_spread_is_interquartile_distance_over_median():
    assert spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(3.0 / 10.0)


def test_worsening_is_signed_by_the_better_direction():
    assert worsening(10.0, 12.0, "lower") == pytest.approx(0.2)
    assert worsening(10.0, 8.0, "lower") == pytest.approx(-0.2)
    assert worsening(10.0, 8.0, "higher") == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------


def _span(sid, start, end, parent=None, name="x", layer="l"):
    return Span(sid, name, layer, start, end, parent, 0)


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(1, 4), (3, 6)]) == 5
    assert covered(0, 10, [(1, 2), (4, 5)]) == 2
    assert covered(2, 8, [(0, 3), (7, 12)]) == 2
    assert covered(0, 10, [(3, 4), (1, 6), (2, 3)]) == 5


def test_self_time_of_nested_and_overlapping_spans():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 3.0, 6.0, parent=0),  # overlaps its sibling
        _span(3, 2.0, 3.0, parent=1),  # grandchild: not subtracted from the root
        _span(4, 9.0, 11.0, parent=0),  # runs past its parent's end
    ]
    assert self_times(spans) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 2.0}


def test_aggregate_sums_per_name_and_layer_and_selects_operations():
    spans = [
        Span(0, "bench.a", "bench", 0.0, 10.0, None, 0),
        Span(1, "linalg.f", "linalg", 1.0, 4.0, 0, 0),
        Span(2, "sparsify.g", "sparsify", 2.0, 3.0, 1, 0),
        Span(3, "bench.b", "bench", 20.0, 30.0, None, 1),
        Span(4, "linalg.f", "linalg", 21.0, 22.0, 3, 1),
    ]
    counts = [(0, "sparsify.greedy_steps", 4), (1, "sparsify.greedy_steps", 6)]
    one = aggregate(spans, counts, [0])
    assert one["linalg.f.s"] == 3.0
    assert one["linalg.f.self_s"] == 2.0
    assert one["linalg.f.calls"] == 1
    assert one["linalg.self_s"] == 2.0
    assert one["sparsify.self_s"] == 1.0
    assert one["sparsify.greedy_steps"] == 4
    both = aggregate(spans, counts, [0, 1])
    assert both["linalg.f.calls"] == 2
    assert both["sparsify.greedy_steps"] == 10
    assert "pipelines.stage1_accept_ratio" not in both


def test_stage1_accept_ratio_counts_an_identity_first_stage_as_accepted():
    spans = [
        Span(0, "pipelines.randomized_select", "pipelines", 0.0, 5.0, None, 0),
        Span(1, "sparsify.randomized_sampling", "sparsify", 1.0, 2.0, 0, 0),
        Span(2, "sparsify.randomized_sampling", "sparsify", 2.0, 3.0, 0, 0),  # a redraw
        Span(3, "pipelines.randomized_select", "pipelines", 6.0, 8.0, None, 0),  # identity plan
        Span(4, "sparsify.randomized_sampling", "sparsify", 9.0, 9.5, None, 0),  # not stage 1
    ]
    totals = aggregate(spans, [], [0])
    assert totals["pipelines.stage1_draws"] == 2
    assert totals["pipelines.stage1_accept_ratio"] == pytest.approx(2 / 3)
    assert aggregate(spans[3:4], [], [0])["pipelines.stage1_accept_ratio"] == 1.0


# ---------------------------------------------------------------------------
# exact counts
# ---------------------------------------------------------------------------


def test_stirling_known_values():
    assert stirling2(0, 0) == 1
    assert stirling2(5, 0) == 0
    assert stirling2(3, 5) == 0
    assert stirling2(10, 2) == 511
    assert stirling2(12, 2) == 2047
    assert stirling2(10, 3) == 9330
    assert stirling2(12, 12) == 1


@pytest.mark.parametrize("m", range(1, 8))
def test_stirling_matches_the_partition_enumeration(m):
    for k in range(1, m + 1):
        enumerated = sum(batch.shape[0] for batch in kmeans._partition_batches(m, k))
        assert stirling2(m, k) == enumerated


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def test_tracer_wraps_import_sites_counts_work_and_restores():
    a = workloads.planted(np.random.default_rng(0), 12, 30, 2)
    original = linalg.svd_top_k
    tracer = Tracer()
    with tracer.installed():
        assert pipelines.svd_top_k is not original
        kmselect.unsupervised_select(a, 2, 6)  # outside an operation: not recorded
        assert tracer.spans == []
        with tracer.operation(7, "bench.call"):
            kmselect.unsupervised_select(a, 2, 6)
    assert pipelines.svd_top_k is original
    names = {s.name: s for s in tracer.spans}
    root = names["bench.call"]
    pipe = names["pipelines.unsupervised_select"]
    assert pipe.parent == root.id
    assert names["linalg.svd_top_k"].parent == pipe.id
    assert names["sparsify.deterministic_sampling_two"].parent == pipe.id
    assert {s.op for s in tracer.spans} == {7}
    totals = aggregate(tracer.spans, tracer.counts, [7])
    assert totals["sparsify.greedy_steps"] == 6
    assert totals["sparsify.second_set_bytes"] == 30 * 30 * 8


def test_memory_mode_peaks_cover_nested_spans():
    tracer = Tracer(memory=True)
    inner = tracer.wrap(lambda: np.ones(4 * 2**20 // 8).sum(), "inner")

    def outer_fn():
        keep = np.ones(2**20 // 8)
        inner()
        return keep.sum()

    outer = tracer.wrap(outer_fn, "outer")
    tracemalloc.start()
    try:
        with tracer.operation(0, "bench"):
            outer()
    finally:
        tracemalloc.stop()
    peaks = {s.layer: s.peak_bytes for s in tracer.spans}
    assert peaks["inner"] >= 4 * 2**20
    assert peaks["outer"] >= 5 * 2**20
    assert peaks["bench"] >= peaks["outer"]


# ---------------------------------------------------------------------------
# correctness gates
# ---------------------------------------------------------------------------


@pytest.fixture
def selection():
    a = workloads.planted(np.random.default_rng(1), 20, 60, 2)
    return a, kmselect.unsupervised_select(a, 2, 8)


def test_selection_gate_accepts_a_real_plan(selection):
    a, fs = selection
    assert workloads.selection_ok(a, fs, 2, 8, spectral=True)
    assert workloads.selection_ok(a, fs, 2, 8, spectral=False)


def test_selection_gate_rejects_a_corrupted_plan(selection):
    a, fs = selection
    plan = fs.plan
    shrunk = dataclasses.replace(plan, weights=tuple(0.1 * w for w in plan.weights))
    # reduced matrix no longer matches the plan
    assert not workloads.selection_ok(a, dataclasses.replace(fs, plan=shrunk), 2, 8, True)
    # consistent reduced matrix, but sigma_k falls below 1 - sqrt(k/r)
    consistent = dataclasses.replace(fs, plan=shrunk, reduced=kmselect.apply_plan(a, shrunk))
    assert not workloads.selection_ok(a, consistent, 2, 8, True)
    # one column repeated: the sampled basis loses rank k
    single = dataclasses.replace(plan, indices=(plan.indices[0],) * 8)
    collapsed = dataclasses.replace(fs, plan=single, reduced=kmselect.apply_plan(a, single))
    assert not workloads.selection_ok(a, collapsed, 2, 8, False)


def test_report_gate_recomputes_the_objective(tmp_path):
    a = workloads.planted(np.random.default_rng(2), 30, 5, 3)
    labels = [i % 3 + 1 for i in range(30)]
    value = kmselect.objective(a, kmselect.from_labels(labels, 3))
    path = tmp_path / "report.json"

    def write(objective):
        path.write_text(
            '{"clustering": {"assignment": %s}, "objective_original": %r}' % (labels, objective)
        )

    write(value)
    assert workloads.report_ok(0, path, a, 3, value / 2) == (True, pytest.approx(2.0))
    assert workloads.report_ok(1, path, a, 3, value)[0] is False
    write(value * (1 + 1e-6))
    assert workloads.report_ok(0, path, a, 3, value)[0] is False


def test_trial_gate_needs_a_check_dict():
    assert workloads.trial_ok({"bound": True}) == (True, 1.0)
    assert workloads.trial_ok({"a": True, "b": False}) == (True, 0.0)
    assert workloads.trial_ok(None)[0] is False


def test_trial_gate_scores_only_the_checks_its_suite_scores():
    checks = {"matches_optimum": True, "never_below": False}
    assert workloads.trial_ok(checks, ("matches_optimum",)) == (True, 1.0)
    assert workloads.trial_ok(checks) == (True, 0.0)
    assert workloads.trial_ok({"never_below": True}, ("matches_optimum",))[0] is False


def test_certify_hold_counts_match_the_verify_suites_per_suite(tmp_path):
    wl = workloads.certify_small(5, tmp_path, seeds=3)
    results = [call.check(call.run()) for call in wl.calls]
    assert all(ok for ok, _ in results)
    values = [value for _, value in results]
    assert wl.final_check([values, values])
    flipped = list(values)
    flipped[0] = 1.0 - flipped[0]
    assert not wl.final_check([values, flipped])


def test_certify_suites_are_compared_one_by_one(tmp_path, monkeypatch):
    wl = workloads.certify_small(5, tmp_path, seeds=3)
    # theorem1 held once less and structural once more than its suite says:
    # the total agrees, the suites do not
    reported = {suite: 3 for suite, _ in workloads.CERTIFY_TRIALS.values()}
    reported["theorem1-end-to-end"] = 2
    monkeypatch.setattr(
        workloads.verify, "run_suite", lambda suite, trials, seed: {"passed": reported[suite]}
    )
    values = [0.0 if call.name == "verify.structural_trial" and i < 5 else 1.0
              for i, call in enumerate(wl.calls)]
    assert sum(values) == sum(reported.values())
    assert not wl.final_check([values])
