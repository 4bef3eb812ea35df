"""Steadiness check: run the benchmark over two sets of seeds and compare.

Usage, from the root of a checkout::

    python3 benchmarks/steadiness.py --workload tall-cluster --seeds 1-10 11-20

For each workload it makes one untraced run per seed of each set and
prints, for every end-to-end metric of ``BENCHMARK.json``, each set's
median and spread (inter-quartile distance over median) next to the
metric's bound, then how much the second set's median is worse than the
first's.  It fails if a spread other than that of ``setup_s`` exceeds its
bound, or if a median gets worse by more than its bound: the acceptance
rule for a benchmark.  With a single set it prints the spreads only.  It
then makes two traced runs with the first seed and fails unless every
exact count (unit ``count`` or ``bytes``) is identical between them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from benchstats import spread, worsening

ROOT = Path(__file__).resolve().parent.parent


def _run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"error: {workload} seed {seed} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"error: {workload} seed {seed} reported incorrect output")
    return {name: m["value"] for name, m in result["metrics"].items()}


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def check_sets(workload: str, spec: dict, sets: list[list[dict]]) -> bool:
    """Print spread per set and median movement; True if within the bounds."""
    ok = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for i, runs in enumerate(sets, 1):
            values = [r[name] for r in runs]
            s = spread(values) if len(values) >= 2 else 0.0
            medians.append(statistics.median(values))
            verdict = "ok" if s <= bound / 3 else "within bound" if s <= bound else "TOO WIDE"
            if name != "setup_s":
                ok &= s <= bound
            print(f"{workload:14s} {name:12s} set {i} median {medians[-1]:.6g} "
                  f"spread {s:.4f} bound {bound} ({verdict})", flush=True)
        for i in range(1, len(medians)):
            worse = worsening(medians[0], medians[i], metric["better"])
            ok &= worse <= bound
            print(f"{workload:14s} {name:12s} set {i + 1} vs set 1: worse by {worse:+.4f} "
                  f"bound {bound} ({'ok' if worse <= bound else 'TOO MUCH'})", flush=True)
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seeds", type=_seeds, nargs="+", default=[_seeds("1-10"), _seeds("11-20")],
                        help="one or more seed sets, e.g. 1-10 11-20")
    args = parser.parse_args(argv)
    steady = True
    for workload in names if args.workload == "all" else [args.workload]:
        sets = []
        for seeds in args.seeds:
            sets.append([])
            for seed in seeds:
                sets[-1].append(_run(spec, workload, seed, 0))
                shown = " ".join(f"{k} {v:.6g}" for k, v in sets[-1][-1].items())
                print(f"{workload:14s} seed {seed:<6d} {shown}", flush=True)
        steady &= check_sets(workload, spec, sets)
        counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")]
        traced = [_run(spec, workload, args.seeds[0][0], 1) for _ in range(2)]
        differing = [c for c in counts if traced[0][c] != traced[1][c]]
        print(f"{workload:14s} exact counts identical across traced runs: {not differing} {differing}", flush=True)
        steady &= not differing
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
