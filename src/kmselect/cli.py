"""Command-line surface.

Commands:

* ``select``  — run a selection pipeline on a CSV dataset, cluster the
  reduced matrix, and write a JSON report.
* ``cluster`` — backend-only clustering run (no selection), for baselines.
* ``synth``   — generate a Gaussian-mixture CSV dataset plus ground-truth
  labels.
* ``verify``  — batch-run a named property suite and write a JSON summary.

Exit codes: 0 success, 1 validation error, 2 numerical/pipeline error,
3 I/O error.  Reports go to ``--output`` (``-`` for standard output).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from datetime import datetime, timezone

import numpy as np

from .errors import ArgumentError, ContractViolationError, ResourceLimitError, SelectionError
from .kmeans import from_labels, objective
from .linalg import _valid_int
from .pipelines import BACKENDS, METHODS, _cluster, _needs_given, select_then_cluster
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; a parse error is an
    # ArgumentError like any other bad argument, with its exit code
    def error(self, message):
        raise ArgumentError(message)


def read_matrix_csv(path: str, has_header: bool) -> np.ndarray:
    """Read a points-by-features matrix of decimal reals from a CSV file.

    Blank lines are skipped, and so is the first line when *has_header*.
    Ragged rows, text and trailing ``#`` notes are rejected.
    """
    try:
        with warnings.catch_warnings():
            # an empty file is reported below as "no data rows"
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            a = np.loadtxt(
                path, delimiter=",", skiprows=int(has_header), ndmin=2,
                comments=None, quotechar='"',
            )
    except ValueError as exc:
        raise ArgumentError(f"{path}: {exc}") from exc
    if a.size == 0:
        raise ArgumentError(f"{path}: no data rows")
    return a


def write_matrix_csv(path: str, a: np.ndarray) -> None:
    """Write a matrix as CSV using shortest round-trip decimal form.

    The bytes are those of ``csv.writer`` on ``repr(float(x))`` cells:
    such a cell holds no comma, quote or line break, so a row is its
    cells joined by commas and ended by the excel dialect's ``\\r\\n``.
    Each row becomes Python floats on its own, so the writer holds one
    row of them, not the whole matrix.
    """
    with open(path, "w", newline="") as fh:
        for row in np.asarray(a, dtype=float):
            fh.write(",".join(map(repr, row.tolist())) + "\r\n")


def read_labels(path: str) -> list[int]:
    """Read one 1-based integer label per line."""
    labels = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                labels.append(int(text))
            except ValueError as exc:
                raise ArgumentError(f"{path}:{line_no}: {exc}") from exc
    if not labels:
        raise ArgumentError(f"{path}: no labels")
    return labels


def write_labels(path: str, labels) -> None:
    with open(path, "w") as fh:
        for lab in labels:
            fh.write(f"{int(lab)}\n")


def _emit_report(command: str, fields: dict, output: str) -> None:
    # the report of *command*: its name and the time, then its own fields
    report = {"command": command, "timestamp": datetime.now(timezone.utc).isoformat(), **fields}
    text = json.dumps(report, indent=2)
    if output == "-":
        print(text)
    else:
        with open(output, "w") as fh:
            fh.write(text + "\n")


def _cmd_select(args) -> int:
    a = read_matrix_csv(args.input, args.has_header)
    given = None
    if _needs_given(args.method):
        if args.labels is None:
            raise ArgumentError("supervised selection requires --labels")
        # select_then_cluster refuses labels that do not cover the matrix
        given = from_labels(read_labels(args.labels), args.k)
    report = select_then_cluster(
        a,
        args.k,
        args.r,
        method=args.method,
        backend=args.backend,
        seed=args.seed,
        restarts=args.restarts,
        given=given,
    )
    _emit_report("select", {"input": args.input, **report}, args.output)
    return EXIT_OK


def _cmd_cluster(args) -> int:
    if args.seed is not None:  # the exhaustive backend ignores the seed, so check it here
        _valid_int(args.seed, "seed", 0)
    a = read_matrix_csv(args.input, args.has_header)
    c, gamma = _cluster(a, args.k, args.backend, args.restarts, args.seed)
    _emit_report("cluster", {
        "input": args.input,
        "backend": args.backend,
        # restarts drive only the backend that certifies no factor
        "restarts": args.restarts if gamma is None else None,
        "seed": args.seed,
        **c.to_dict(objective(a, c)),
    }, args.output)
    return EXIT_OK


def _cmd_synth(args) -> int:
    _valid_int(args.k, "k", 1, _valid_int(args.m, "m", 1))
    _valid_int(args.n, "n", 1)
    _valid_int(args.seed, "seed", 0)
    if not (0 <= args.noise < math.inf and 0 <= args.separation < math.inf):
        raise ArgumentError("separation and noise must be finite and non-negative")
    rng = np.random.default_rng(args.seed)
    if args.n >= args.k:
        # centroids on the first k coordinate axes, pairwise distance separation*sqrt(2)
        centers = np.zeros((args.k, args.n))
        centers[np.arange(args.k), np.arange(args.k)] = args.separation
    else:
        centers = rng.normal(0.0, args.separation, size=(args.k, args.n))
    labels = np.arange(args.m) % args.k + 1
    points = centers[labels - 1] + rng.normal(0.0, args.noise, size=(args.m, args.n))
    labels_path = args.labels_output or args.output + ".labels"
    write_matrix_csv(args.output, points)
    write_labels(labels_path, labels)
    print(f"wrote {args.output} and {labels_path}", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args) -> int:
    summary = run_suite(args.suite, trials=args.trials, seed=args.seed)
    _emit_report("verify", summary, args.output)
    return EXIT_OK if summary["suite_passed"] else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kmselect",
        description="Provable feature selection for k-means clustering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--input", required=True, help="CSV dataset (rows = points)")
        p.add_argument(
            "--has-header", action="store_true",
            help="skip the first CSV row when reading",
        )
        p.add_argument("--output", default="-", help="report path, '-' for stdout")

    def add_clustering(p):
        p.add_argument("--k", type=int, required=True, help="number of clusters")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--backend", choices=BACKENDS, default="lloyd")
        p.add_argument("--restarts", type=int, default=20)

    select = sub.add_parser("select", help="run a selection pipeline and cluster the result")
    add_io(select)
    select.add_argument("--labels", default=None, help="1-based labels file (supervised only)")
    select.add_argument("--method", required=True, choices=METHODS)
    add_clustering(select)  # --k before --r, the order argparse names missing flags in
    select.add_argument("--r", type=int, required=True, help="number of features to select")

    cluster = sub.add_parser("cluster", help="cluster without selection, for baselines")
    add_io(cluster)
    add_clustering(cluster)

    synth = sub.add_parser("synth", help="generate a Gaussian-mixture dataset")
    synth.add_argument("--m", type=int, required=True, help="number of points")
    synth.add_argument("--n", type=int, required=True, help="number of features")
    synth.add_argument("--k", type=int, required=True, help="number of blobs")
    synth.add_argument("--separation", type=float, default=5.0)
    synth.add_argument("--noise", type=float, default=1.0)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--output", required=True, help="CSV path to write")
    synth.add_argument(
        "--labels-output", default=None,
        help="labels path (default: <output>.labels)",
    )

    verify = sub.add_parser("verify", help="run a named property suite")
    verify.add_argument("--suite", required=True, help=f"one of: {', '.join(sorted(SUITES))}")
    verify.add_argument("--trials", type=int, default=None)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--output", default="-")

    return parser


_COMMANDS = {
    "select": _cmd_select,
    "cluster": _cmd_cluster,
    "synth": _cmd_synth,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ArgumentError, ContractViolationError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SelectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
