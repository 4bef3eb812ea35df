import argparse
import csv
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import kmselect
from kmselect import pipelines, verify
from kmselect.cli import build_parser, main, read_labels, read_matrix_csv, write_matrix_csv
from kmselect.kmeans import brute_force_optimal, from_labels, lloyd_best, objective


def run_cli(*args):
    return main([str(a) for a in args])


def synth(tmp_path, name="data.csv", m=10, n=8, k=2, separation=8.0, noise=0.5, seed=3):
    path = tmp_path / name
    code = run_cli(
        "synth", "--m", m, "--n", n, "--k", k, "--separation", separation,
        "--noise", noise, "--seed", seed, "--output", path,
    )
    assert code == 0
    return path, tmp_path / (name + ".labels")


# ---------------------------------------------------------------------------
# CSV and labels I/O
# ---------------------------------------------------------------------------


def test_csv_round_trip_bit_exact(tmp_path, rng):
    a = rng.standard_normal((6, 4)) * np.pi
    path = tmp_path / "m.csv"
    write_matrix_csv(path, a)
    np.testing.assert_array_equal(read_matrix_csv(path, has_header=False), a)


def test_csv_bytes_are_those_of_csv_writer_on_repr(tmp_path, rng):
    # the writer joins repr cells itself; the bytes stay those of csv.writer
    a = rng.standard_normal((5, 7)) * np.pi
    a[0, :6] = [1e-07, -0.0, 1e300, 5e-324, -1.7976931348623157e308, 0.1]
    a[1] = rng.standard_normal(7) * 1e308
    a[2, :3] = [1.0, 100.0, 1e16]
    ours, reference = tmp_path / "ours.csv", tmp_path / "reference.csv"
    for matrix in (a, a[:1, :1], a[:, :1], np.arange(6).reshape(2, 3)):
        write_matrix_csv(ours, matrix)
        with open(reference, "w", newline="") as fh:
            csv.writer(fh).writerows([repr(float(x)) for x in row] for row in matrix)
        assert ours.read_bytes() == reference.read_bytes()


def test_read_labels_skips_blank_lines_and_refuses_bad_files(tmp_path):
    from kmselect.errors import ArgumentError

    path = tmp_path / "l.txt"
    path.write_text("1\n\n  \n2\n1\n")
    assert read_labels(path) == [1, 2, 1]
    for text, match in [("1\n\nx\n", r"l\.txt:3: "), ("2\n1.5\n", r"l\.txt:2: "),
                        ("", r"l\.txt: no labels"), ("\n \n", r"l\.txt: no labels")]:
        path.write_text(text)
        with pytest.raises(ArgumentError, match=match):
            read_labels(path)


def test_csv_header_handling(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("f1,f2\n1.0,2.0\n\n3.0,4.0\n")
    got = read_matrix_csv(path, has_header=True)
    np.testing.assert_array_equal(got, [[1.0, 2.0], [3.0, 4.0]])
    column = tmp_path / "c.csv"
    column.write_text("f1\n1.5\n\n-2.0\n")
    np.testing.assert_array_equal(read_matrix_csv(column, has_header=True), [[1.5], [-2.0]])


def test_csv_rejects_ragged_and_text(tmp_path):
    from kmselect.errors import ArgumentError

    ragged = tmp_path / "r.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ArgumentError):
        read_matrix_csv(ragged, has_header=False)
    bad = tmp_path / "b.csv"
    bad.write_text("1.0,apple\n")
    with pytest.raises(ArgumentError, match="b.csv"):
        read_matrix_csv(bad, has_header=False)
    noted = tmp_path / "n.csv"
    noted.write_text("1.0,2.0 # note\n")
    with pytest.raises(ArgumentError, match="n.csv"):
        read_matrix_csv(noted, has_header=False)
    empty = tmp_path / "e.csv"
    empty.write_text("")
    header_only = tmp_path / "h.csv"
    header_only.write_text("f1,f2\n")
    for path, has_header in [(empty, False), (empty, True), (header_only, True)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArgumentError, match="no data rows"):
                read_matrix_csv(path, has_header=has_header)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_noiseless_has_k_distinct_rows(tmp_path):
    # with n < k the k centres cannot sit on distinct axes and are drawn
    for n in (5, 2):
        path, labels_path = synth(tmp_path, name=f"n{n}.csv", m=9, n=n, k=3, noise=0.0, seed=1)
        a = read_matrix_csv(path, has_header=False)
        assert len({tuple(row) for row in a}) == 3
        labels = read_labels(labels_path)
        assert sorted(set(labels)) == [1, 2, 3]
        assert objective(a, from_labels(labels, 3)) == pytest.approx(0.0, abs=1e-18)


def test_synth_reproducible(tmp_path):
    p1, l1 = synth(tmp_path, name="a.csv", seed=9)
    p2, l2 = synth(tmp_path, name="b.csv", seed=9)
    assert p1.read_bytes() == p2.read_bytes()
    assert l1.read_bytes() == l2.read_bytes()


def test_synth_separated_blobs_recoverable(tmp_path):
    path, labels_path = synth(tmp_path, m=10, n=4, k=2, separation=50.0, noise=0.1, seed=2)
    a = read_matrix_csv(path, has_header=False)
    truth = read_labels(labels_path)
    best = brute_force_optimal(a, 2)
    # partitions agree up to label renaming
    pairs = set(zip(best.assignment, truth))
    assert len(pairs) == 2


def test_synth_validation(tmp_path):
    assert run_cli("synth", "--m", 2, "--n", 3, "--k", 5, "--output", tmp_path / "x.csv") == 1
    assert run_cli("synth", "--m", 2, "--n", 0, "--k", 1, "--output", tmp_path / "x.csv") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag,value", [
    ("--noise", "nan"), ("--noise", "inf"), ("--separation", "nan"), ("--separation", "inf"),
])
def test_synth_rejects_non_finite_parameters_and_writes_nothing(tmp_path, capsys, flag, value):
    out = tmp_path / "x.csv"
    assert run_cli("synth", "--m", 4, "--n", 3, "--k", 2, flag, value, "--output", out) == 1
    assert "finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


def test_select_unsupervised_end_to_end(tmp_path):
    path, _ = synth(tmp_path)
    out = tmp_path / "report.json"
    code = run_cli(
        "select", "--input", path, "--method", "unsupervised", "--k", 2, "--r", 4,
        "--backend", "brute", "--output", out,
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["bound_holds"] is True
    assert report["selection"]["plan"]["target_dim"] == 4
    assert len(report["clustering"]["assignment"]) == 10
    assert report["objective_reduced"] >= 0.0


def test_select_supervised_uses_labels(tmp_path):
    path, labels_path = synth(tmp_path)
    out = tmp_path / "report.json"
    code = run_cli(
        "select", "--input", path, "--labels", labels_path, "--method", "supervised",
        "--k", 2, "--r", 4, "--backend", "brute", "--output", out,
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["bound"]["name"] == "supervised-selection-bound"
    assert report["bound_holds"] is True
    assert "objective_input" in report


def test_select_labels_one_line_short_is_a_validation_error(tmp_path, capsys):
    path, labels_path = synth(tmp_path)
    short = tmp_path / "short.labels"
    short.write_text("".join(labels_path.read_text().splitlines(keepends=True)[:-1]))
    code = run_cli(
        "select", "--input", path, "--labels", short, "--method", "supervised",
        "--k", 2, "--r", 4, "--backend", "brute", "--output", tmp_path / "report.json",
    )
    assert code == 1
    assert "clustering covers 9 points but the matrix has 10 rows" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_select_randomized_seed_reproducible(tmp_path):
    path, _ = synth(tmp_path)
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        code = run_cli(
            "select", "--input", path, "--method", "randomized", "--k", 2, "--r", 4,
            "--seed", 7, "--backend", "brute", "--output", out,
        )
        assert code == 0
        report = json.loads(out.read_text())
        report.pop("timestamp")
        outs.append(report)
    assert outs[0] == outs[1]


def test_select_validation_exits(tmp_path):
    path, _ = synth(tmp_path)
    # k >= r
    assert run_cli("select", "--input", path, "--method", "unsupervised",
                   "--k", 4, "--r", 3) == 1
    # supervised without labels
    assert run_cli("select", "--input", path, "--method", "supervised",
                   "--k", 2, "--r", 4) == 1
    # brute backend beyond the enumeration guard
    big, _ = synth(tmp_path, name="big.csv", m=20, k=2)
    assert run_cli("select", "--input", big, "--method", "unsupervised",
                   "--k", 2, "--r", 4, "--backend", "brute") == 1


def test_select_missing_input_is_io_error(tmp_path):
    assert run_cli("select", "--input", tmp_path / "nope.csv",
                   "--method", "unsupervised", "--k", 2, "--r", 4) == 3


def test_select_rank_deficient_input_is_numerical_error(tmp_path):
    # k = 1 noiseless blob: every row identical, so the matrix has rank 1;
    # the exact and the sketched subspace report it alike
    path, _ = synth(tmp_path, name="flat.csv", m=10, n=6, k=1, noise=0.0, seed=4)
    for method in ("unsupervised", "randomized"):
        assert run_cli("select", "--input", path, "--method", method,
                       "--k", 2, "--r", 4) == 2


def test_select_k_ge_r_message_names_precondition(tmp_path, capsys):
    path, _ = synth(tmp_path)
    code = run_cli("select", "--input", path, "--method", "unsupervised", "--k", 4, "--r", 3)
    assert code == 1
    assert "k < r" in capsys.readouterr().err


def test_unknown_flag_is_validation_error(capsys):
    assert run_cli("select", "--frobnicate") == 1
    assert run_cli("frobnicate") == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "error: the following arguments are required: --input, --method, --k, --r"
    assert err[1].startswith("error: argument command: invalid choice: 'frobnicate'")


def test_select_non_finite_csv_is_a_validation_error(tmp_path, capsys):
    path, _ = synth(tmp_path)
    lines = path.read_text().splitlines()
    lines[3] = "nan," + lines[3].split(",", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    for method in ("unsupervised", "randomized"):
        assert run_cli("select", "--input", path, "--method", method, "--k", 2, "--r", 4) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err


def test_select_randomized_needs_k_at_least_two(tmp_path, capsys):
    path, _ = synth(tmp_path)
    assert run_cli("select", "--input", path, "--method", "randomized",
                   "--k", 1, "--r", 4, "--seed", 0) == 1
    assert "k must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ("select", "--method", "unsupervised", "--k", 2, "--r", 4),
    ("cluster", "--k", 2),
    ("synth", "--m", 4, "--n", 3, "--k", 2),
    ("verify", "--suite", "sampler-two-bounds", "--trials", 1),
    # the exhaustive backend takes no seed, but cluster checks it all the same
    ("cluster", "--k", 2, "--backend", "brute"),
])
@pytest.mark.parametrize("seed", ["-1", "abc"])
def test_invalid_seed_is_a_validation_error_on_every_command(tmp_path, capsys, command, seed):
    path, _ = synth(tmp_path)
    capsys.readouterr()
    io = ("--output", tmp_path / "out") if command[0] in ("synth", "verify") else ("--input", path)
    assert run_cli(*command, *io, "--seed", seed) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == {
        "-1": "error: seed must be at least 0, got -1\n",
        "abc": "error: argument --seed: invalid int value: 'abc'\n",
    }[seed]
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# cluster
# ---------------------------------------------------------------------------


def test_cluster_report_shape(tmp_path, capsys):
    path, _ = synth(tmp_path)
    code = run_cli("cluster", "--input", path, "--k", 2, "--backend", "brute")
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["k"] == 2
    assert len(report["assignment"]) == 10
    assert min(report["assignment"]) >= 1
    assert report["objective"] >= 0.0


def test_cluster_brute_beyond_enumeration_guard_is_a_validation_error(tmp_path, capsys):
    big, _ = synth(tmp_path, name="big.csv", m=20, k=2)
    assert run_cli("cluster", "--input", big, "--k", 2, "--backend", "brute") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "12 points" in captured.err


def test_cluster_cost_beyond_float64_range_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text("1e200\n1.1e200\n-1e200\n")
    for backend in ("brute", "lloyd"):
        code = run_cli("cluster", "--input", path, "--k", 2, "--backend", backend)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "float64 range" in captured.err


def test_cluster_lloyd_clusters_points_whose_offset_dwarfs_their_spread(tmp_path, capsys):
    # a Lloyd step raised the cost on these points before lloyd_best centred
    # them; now they cluster as the points without the offset do
    points = np.random.default_rng(0).standard_normal((30, 3)) * 0.01
    path = tmp_path / "offset.csv"
    write_matrix_csv(path, points + 1e6)
    assert run_cli("cluster", "--input", path, "--backend", "lloyd", "--k", 4, "--seed", 0) == 0
    report = json.loads(capsys.readouterr().out)
    assert tuple(report["assignment"]) == lloyd_best(points, 4, 20, 0).assignment


def _far_clusters_csv(tmp_path):
    # two tight clusters far apart, on which a Lloyd step raises the cost
    # even after centring
    points = np.random.default_rng(0).standard_normal((30, 3)) * 0.01
    points[15:] += 1e6
    path = tmp_path / "far.csv"
    write_matrix_csv(path, points)
    return path


def test_cluster_lloyd_cost_increase_is_a_numerical_error(tmp_path, capsys):
    path = _far_clusters_csv(tmp_path)
    assert run_cli("cluster", "--input", path, "--backend", "lloyd", "--k", 4, "--seed", 0) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: Lloyd step \d+ raised the cost: \S+ -> \S+\n", captured.err)


def test_cluster_lloyd_cost_increase_survives_optimised_python(tmp_path):
    # under python -O the check is no assert, so it still stops the run
    path = _far_clusters_csv(tmp_path)
    paths = [str(Path(kmselect.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        [sys.executable, "-O", "-m", "kmselect.cli", "cluster", "--input", str(path),
         "--backend", "lloyd", "--k", "4", "--seed", "0"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert re.fullmatch(r"error: Lloyd step \d+ raised the cost: \S+ -> \S+\n", done.stderr)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_known_suite(tmp_path):
    out = tmp_path / "v.json"
    code = run_cli("verify", "--suite", "sampler-two-bounds", "--trials", 4,
                   "--seed", 1, "--output", out)
    assert code == 0
    summary = json.loads(out.read_text())
    assert summary["suite_passed"] is True
    assert summary["passed"] == 4
    assert summary["failures"] == []


def test_verify_unknown_suite():
    assert run_cli("verify", "--suite", "does-not-exist") == 1


def test_verify_refuses_zero_trials(capsys):
    assert run_cli("verify", "--suite", "sampler-two-bounds", "--trials", 0) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: trials must be at least 1, got 0\n"


# ---------------------------------------------------------------------------
# drift between the code, the parser and the README
# ---------------------------------------------------------------------------


def _choices(command, flag):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    action = next(a for a in sub.choices[command]._actions if flag in a.option_strings)
    return tuple(action.choices)


def test_method_and_backend_choices_are_the_pipelines_tuples():
    assert _choices("select", "--method") == pipelines.METHODS
    assert _choices("select", "--backend") == pipelines.BACKENDS
    assert _choices("cluster", "--backend") == pipelines.BACKENDS


def test_readme_lists_exactly_the_verify_suites():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    line = re.search(r"^Available verify suites:(.*?)\n\n", readme, re.M | re.S).group(1)
    assert re.findall(r"`([^`]+)`", line) == list(verify.SUITES)
