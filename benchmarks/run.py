"""Benchmark of the kmselect package: three workloads, one command.

Usage, from the root of a checkout::

    python3 benchmarks/run.py                      # every workload, untraced
    python3 benchmarks/run.py --workload wide-select --seed 3 --seconds 30 --trace 0

One run measures one workload for ``--seconds`` seconds in a fresh
process.  It repeats the workload's fixed list of calls (a pass) in a
closed loop, checks every output outside the timed region, and prints
the metrics by name and unit.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The traced run
alternates untraced and traced passes, so the tracing overhead is the
difference of their medians, and adds one pass under ``tracemalloc``
for the per-layer memory peaks.

End-to-end metrics, with tracing off:

* ``setup_s`` — process start to inputs ready (importing kmselect and
  generating the inputs), median of five fresh processes.
* ``wall_s`` — median over passes of the summed call times of one pass.
* ``op_p50_ms`` — median latency of one call, over every call of the run.
* ``peak_rss_mb`` — peak resident memory of the measuring process over
  its first three passes; the process heap grows a little with each pass,
  so a later reading would depend on how many passes fit in the run.

Lines printed before the result add the metrics that are 0 or absent on
some workloads: ``op_tail_ms`` (the highest percentile with at least ten
samples beyond it, with that percentile and count), ``fail_rate``,
``cost_ratio`` (tall-cluster) and ``bound_hold_rate`` (certify-small).
The first line records the environment and the seed.

Every per-layer metric of ``BENCHMARK.json`` is in every traced result.
A layer or function that a workload never calls reads exactly 0 there
(0 calls, 0 s), so compare such a figure only on the workloads that
reach it.  The zeros are: on wide-select, the kmeans, bounds, verify and
cli layers, ``supervised_select``, ``select_then_cluster`` and
``deterministic_sampling_one``; on tall-cluster, the bounds and verify
layers, ``brute_force_optimal`` with ``kmeans.partitions_scored``, and
``randomized_sampling`` (its first stage would keep every column, so
``randomized_select`` uses the identity plan); on certify-small, the cli
layer and ``select_then_cluster``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from benchstats import tail

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("wide-select", "tall-cluster", "certify-small")
SETUP_REPEATS = 5
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _pin_blas_threads() -> int:
    """Size the BLAS pool to the usable cores; must run before numpy loads."""
    threads = _nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def _import_package() -> None:
    """Import kmselect from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "kmselect" / "__init__.py").is_file():
        raise SystemExit(f"error: no kmselect sources under {src}")
    sys.path.insert(0, str(src))
    import kmselect

    if Path(kmselect.__file__).resolve().parent != (src / "kmselect").resolve():
        raise SystemExit(f"error: kmselect was imported from {kmselect.__file__}")


def _environment(args, threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


class Pass:
    """Outcome of one pass over a workload's call list."""

    def __init__(self):
        self.times: list[float] = []
        self.ok: list[bool] = []
        # each call's gate value, None where its gate gives none
        self.values: list[float | None] = []

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_pass(workload, tracer=None, first_op: int = 0) -> Pass:
    """Time each call of *workload* once, then gate its output untimed."""
    out = Pass()
    for i, call in enumerate(workload.calls):
        result, error = None, None
        scope = nullcontext() if tracer is None else tracer.operation(first_op + i, call.name)
        t0 = time.perf_counter()
        try:
            with scope:
                result = call.run()
        except Exception as exc:
            error = exc
        elapsed = time.perf_counter() - t0
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
            ok, value = False, None
        else:
            ok, value = call.check(result)
        out.times.append(elapsed)
        out.ok.append(bool(ok))
        out.values.append(None if value is None else float(value))
    return out


def _more(passes, started: float, seconds: float, minimum: int, per_pass: int = 1) -> bool:
    """Whether another round of *per_pass* passes fits in the time left."""
    if len(passes) < minimum:
        return True
    estimate = statistics.median(p.wall for p in passes) * per_pass
    return time.perf_counter() - started + estimate <= seconds


def _quality(workload, passes) -> float | None:
    values = [v for p in passes for v in p.values if v is not None]
    return statistics.fmean(values) if workload.quality and values else None


def _outcome_counts(passes) -> tuple[int, int]:
    attempted = sum(len(p.ok) for p in passes)
    return attempted, attempted - sum(sum(p.ok) for p in passes)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def _workdir(name: str) -> Path:
    path = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def setup_only(args) -> int:
    """Generate the inputs, report readiness, clean up: one timed set-up."""
    import workloads

    workdir = _workdir(args.workload)
    try:
        workloads.build(args.workload, args.seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def time_setups(args, repeats: int) -> list[float]:
    """Process start to inputs ready, in fresh processes."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(repeats):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
            except BaseException:
                proc.kill()
                raise
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process exited with {proc.returncode}")
        times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _print_metrics(workload: str, metrics: dict) -> None:
    for name, m in metrics.items():
        value = m["value"]
        text = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"{workload:14s} {name:42s} {text} {m['unit']}")


def measure(args, workload) -> tuple[dict, dict, list]:
    """Untraced passes: end-to-end metrics, report-only extras, passes."""
    setups = time_setups(args, SETUP_REPEATS)
    passes: list[Pass] = []
    started = time.perf_counter()
    while _more(passes, started, args.seconds, MIN_PASSES):
        passes.append(run_pass(workload))
        if len(passes) == MIN_PASSES:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = [t for p in passes for t in p.times]
    attempted, failed = _outcome_counts(passes)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(statistics.median(p.wall for p in passes), "s"),
        "op_p50_ms": _metric(statistics.median(latencies) * 1e3, "ms"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    extra = {
        "fail_rate": _metric(failed / attempted, "ratio"),
    }
    t = tail(latencies)
    if t is not None:
        extra["op_tail_ms"] = _metric(t["value"] * 1e3, "ms")
        extra["op_tail_percentile"] = _metric(t["percentile"], "%")
        extra["op_tail_beyond"] = _metric(t["beyond"], "count")
    extra["op_samples"] = _metric(len(latencies), "count")
    extra["passes"] = _metric(len(passes), "count")
    quality = _quality(workload, passes)
    if quality is not None:
        extra[workload.quality] = _metric(quality, "ratio")
    return metrics, extra, passes


def _unit(name: str, value) -> str:
    if isinstance(value, int):
        return "count"
    return "MB" if name.endswith(".peak_mb") else "s"


def _layer_metrics(tracer, timed_passes, memory_tracer, memory_ops) -> dict:
    """Per-pass medians of the traced times; exact per-pass counts."""
    from spans import aggregate

    per_pass = [aggregate(tracer.spans, tracer.counts, ops) for ops in timed_passes]
    keys = set().union(*per_pass)
    out = {}
    for key in keys:
        values = [p.get(key, 0) for p in per_pass]
        if all(isinstance(v, int) for v in values):
            if len(set(values)) != 1:
                raise RuntimeError(f"count {key} differs between identical passes: {values}")
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    memory = aggregate(memory_tracer.spans, memory_tracer.counts, memory_ops)
    out.update({k: v for k, v in memory.items() if k.endswith(".peak_mb")})
    return out


def measure_traced(args, workload, spec) -> tuple[dict, dict, list]:
    """Alternating untraced and traced passes, then one memory pass."""
    import tracemalloc

    from spans import Tracer

    tracer = Tracer()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    traced_ops: list[range] = []
    ncalls = len(workload.calls)
    started = time.perf_counter()
    with tracer.installed():
        while _more(untraced + traced, started, args.seconds, 2 * MIN_TRACED_PAIRS, per_pass=2):
            untraced.append(run_pass(workload))
            first = len(traced) * ncalls
            traced.append(run_pass(workload, tracer, first))
            traced_ops.append(range(first, first + ncalls))
    memory_tracer = Tracer(memory=True)
    tracemalloc.start()
    try:
        with memory_tracer.installed():
            memory_pass = run_pass(workload, memory_tracer)
    finally:
        tracemalloc.stop()
    layers = _layer_metrics(tracer, traced_ops, memory_tracer, range(ncalls))
    traced_wall = statistics.median(p.wall for p in traced)
    layers["trace.wall_s"] = traced_wall
    layers["trace.overhead_s"] = traced_wall - statistics.median(p.wall for p in untraced)

    spans_dir = ROOT / ".bench_work" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_path = spans_dir / f"{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps({"spans": [vars(s) for s in tracer.spans]}))
    print(f"spans written to {spans_path.relative_to(ROOT)}")

    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics = {name: _metric(layers.get(name, 0), unit) for name, unit in units.items()}
    extra = {
        name: _metric(value, _unit(name, value))
        for name, value in sorted(layers.items()) if name not in units
    }
    return metrics, extra, untraced + traced + [memory_pass]


def run_workload(args, threads: int, spec: dict) -> int:
    import workloads

    print(json.dumps({"env": _environment(args, threads)}), flush=True)
    workdir = _workdir(args.workload)
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            metrics, extra, passes = measure_traced(args, workload, spec)
        else:
            metrics, extra, passes = measure(args, workload)
        consistent = workload.final_check([p.values for p in passes])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = _outcome_counts(passes)
    _print_metrics(args.workload, metrics)
    _print_metrics(args.workload, extra)
    result = {
        "correct": bool(failed == 0 and consistent),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process; one combined summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=600)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    threads = _pin_blas_threads()
    _import_package()
    if args.setup_only:
        return setup_only(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, threads, spec)


if __name__ == "__main__":
    sys.exit(main())
