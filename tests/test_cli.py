import json
import warnings

import numpy as np
import pytest

from kmselect.cli import main, read_labels, read_matrix_csv, write_matrix_csv
from kmselect.kmeans import brute_force_optimal, from_labels, objective


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
    path, labels_path = synth(tmp_path, m=9, n=5, k=3, noise=0.0, seed=1)
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


def test_unknown_flag_is_validation_error():
    assert run_cli("select", "--frobnicate") == 1


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
])
@pytest.mark.parametrize("seed", ["-1", "abc"])
def test_invalid_seed_is_a_validation_error_on_every_command(tmp_path, capsys, command, seed):
    path, _ = synth(tmp_path)
    capsys.readouterr()
    io = ("--output", tmp_path / "out") if command[0] in ("synth", "verify") else ("--input", path)
    assert run_cli(*command, *io, "--seed", seed) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: argument --seed: expected a non-negative integer")
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
