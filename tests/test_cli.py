import warnings

import numpy as np
import pytest

from rtfa import (
    DgpConfig,
    EstimationConfig,
    RankConfig,
    estimate_ranks,
    fit,
    gen_dataset,
    read_matrix,
    read_series,
    write_matrix,
    write_series,
)
from rtfa.cli import main

DIMS = "10,10,10"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_noiseless(tmp_path, dims=(8, 8, 8), ranks=(2, 2, 2), T=30, seed=30):
    ds = gen_dataset(DgpConfig(dims=dims, T=T, ranks=ranks, seed=seed))
    data = tmp_path / "clean.tsrb"
    write_series(ds.true_common, data, "binary")
    truth = tmp_path / "truth"
    for k, a in enumerate(ds.true_loadings.mats):
        write_matrix(a, f"{truth}_loading{k + 1}.mtx")
    write_series(ds.true_factors, f"{truth}_factors.tsrb", "binary")
    write_series(ds.true_common, f"{truth}_common.tsrb", "binary")
    return data, truth


def test_simulate_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.tsrb"
    out2 = tmp_path / "b.tsrb"
    for out in (out1, out2):
        code, _, _ = run(
            capsys, "simulate", "--dims", DIMS, "--T", "20", "--ranks", "3,3,3",
            "--seed", "7", "--out", str(out),
            "--truth-out", str(out.with_suffix("")) + "_truth",
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    t1 = (tmp_path / "a_truth_loading1.mtx").read_bytes()
    t2 = (tmp_path / "b_truth_loading1.mtx").read_bytes()
    assert t1 == t2
    assert (tmp_path / "a_truth_factors.tsrb").exists()
    assert (tmp_path / "a_truth_common.tsrb").exists()


def test_simulate_text_format(tmp_path, capsys):
    out = tmp_path / "a.tsr"
    code, _, _ = run(
        capsys, "simulate", "--dims", "4,3", "--T", "5", "--ranks", "2,2",
        "--seed", "1", "--out", str(out), "--format", "text",
    )
    assert code == 0
    assert out.read_text().startswith("TSR 1 text\n2 4 3 5\n")
    assert read_series(out).shape == (5, 4, 3)


def test_estimate_then_evaluate_noiseless(tmp_path, capsys):
    data, truth = write_noiseless(tmp_path)
    est = tmp_path / "est"
    code, _, _ = run(
        capsys, "estimate", "--in", str(data), "--ranks", "2,2,2",
        "--method", "ls", "--out", str(est),
    )
    assert code == 0
    for k in (1, 2, 3):
        assert (tmp_path / f"est_loading{k}.mtx").exists()
    assert (tmp_path / "est_factors.tsrb").exists()
    diag = (tmp_path / "est_diagnostics.csv").read_text().splitlines()
    assert diag[0] == "key,value"
    assert any(line.startswith("iterations_run,") for line in diag)
    assert any(line.startswith("converged,1") for line in diag)
    assert "tau_used," in diag  # least squares has no threshold: an empty field

    # a noisy series, so that the resolved threshold is not the 1e-12 floor
    noisy = tmp_path / "noisy.tsrb"
    write_series(gen_dataset(DgpConfig(dims=(8, 8, 8), T=30, seed=31)).observations, noisy)
    code, _, _ = run(
        capsys, "estimate", "--in", str(noisy), "--ranks", "2,2,2",
        "--method", "huber", "--out", str(tmp_path / "hub"),
    )
    assert code == 0
    diag = dict(
        line.split(",") for line in (tmp_path / "hub_diagnostics.csv").read_text().splitlines()
    )
    config = EstimationConfig(ranks=(2, 2, 2), method="huber")
    assert float(diag["tau_used"]) == fit(read_series(noisy), config).tau_used

    code, out, _ = run(
        capsys, "evaluate", "--est", str(est), "--truth", str(truth), "--metric", "distance",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "metric,mode,value"
    assert len(lines) == 4
    for line in lines[1:]:
        metric, mode, value = line.split(",")
        assert metric == "distance"
        assert float(value) <= 1e-8


def test_evaluate_mse_and_relmse(tmp_path, capsys):
    data, truth = write_noiseless(tmp_path)
    est = tmp_path / "est"
    run(capsys, "estimate", "--in", str(data), "--ranks", "2,2,2", "--out", str(est))
    code, out, _ = run(
        capsys, "evaluate", "--est", str(est), "--truth", str(truth), "--metric", "mse",
    )
    assert code == 0
    assert float(out.strip().splitlines()[1].split(",")[2]) <= 1e-10
    code, out, _ = run(
        capsys, "evaluate", "--est", str(est), "--metric", "relmse", "--in", str(data),
    )
    assert code == 0
    assert float(out.strip().splitlines()[1].split(",")[2]) <= 1e-10


def test_evaluate_truth_against_itself(tmp_path, capsys):
    _, truth = write_noiseless(tmp_path)
    # the distance is basis-free: it scores a finite loading off A.T A / p = I too
    scaled = tmp_path / "scaled"
    for k in (1, 2, 3):
        write_matrix(2.0 * read_matrix(f"{truth}_loading{k}.mtx"), f"{scaled}_loading{k}.mtx")
    for est in (truth, scaled):
        code, out, _ = run(
            capsys, "evaluate", "--est", str(est), "--truth", str(truth), "--metric", "distance",
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            assert float(line.split(",")[2]) <= 1e-12


def test_evaluate_usage_errors(tmp_path, capsys):
    data, truth = write_noiseless(tmp_path)
    est = tmp_path / "est"
    run(capsys, "estimate", "--in", str(data), "--ranks", "2,2,2", "--out", str(est))
    code, _, err = run(capsys, "evaluate", "--est", str(est), "--metric", "distance")
    assert code == 2
    assert "truth" in err
    code, _, err = run(capsys, "evaluate", "--est", str(est), "--metric", "relmse")
    assert code == 2


def test_evaluate_relmse_without_in_exits_2_before_reading(tmp_path, capsys):
    # the missing --in is a usage error even where the estimate files are missing too
    code, out, err = run(capsys, "evaluate", "--est", str(tmp_path / "nope"), "--metric", "relmse")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --metric relmse requires --in")


def put_nan(path):
    """Overwrite the first entry of a matrix or series file with NaN."""
    mtx = path.suffix == ".mtx"
    read, write = (read_matrix, write_matrix) if mtx else (read_series, write_series)
    values = read(path)
    values.flat[0] = np.nan
    write(values, path)


@pytest.mark.parametrize("case, expected_code", [
    ("mode_count", 2), ("no_factors", 3), ("nan_loading_mse", 2), ("nan_loading_relmse", 2),
    ("nan_loading_distance", 2), ("unnormalized_loading_mse", 2),
    ("nan_factors", 4), ("nan_truth_common", 4), ("nan_observations", 4),
    ("rank_deficient_est", 2), ("rank_deficient_truth", 2),
])
def test_failed_evaluate_prints_nothing(tmp_path, capsys, case, expected_code):
    # a non-finite loading is a usage error (2), a non-finite series a
    # numerical one (4): neither is scored as nan
    data, truth = write_noiseless(tmp_path)
    est = tmp_path / "est"
    run(capsys, "estimate", "--in", str(data), "--ranks", "2,2,2", "--out", str(est))
    argv = ("--truth", str(truth), "--metric", "mse")
    culprit = None  # the loading file a refusal must name
    if case == "mode_count":
        (tmp_path / "est_loading3.mtx").unlink()
        argv = ("--truth", str(truth), "--metric", "distance")
    elif case == "no_factors":
        (tmp_path / "est_factors.tsrb").unlink()
    elif case.startswith("nan_loading"):
        culprit = tmp_path / ("est_loading2.mtx" if case.endswith("distance") else "est_loading1.mtx")
        put_nan(culprit)
        if case.endswith("relmse"):
            argv = ("--metric", "relmse", "--in", str(data))
        elif case.endswith("distance"):
            argv = ("--truth", str(truth), "--metric", "distance")
    elif case == "unnormalized_loading_mse":
        culprit = tmp_path / "est_loading2.mtx"
        write_matrix(2.0 * read_matrix(culprit), culprit)
    elif case.startswith("rank_deficient"):
        # a zero column: finite, but its column space is degenerate
        culprit = tmp_path / f"{case.split('_')[-1]}_loading2.mtx"
        a = read_matrix(culprit)
        a[:, 1] = 0.0
        write_matrix(a, culprit)
        argv = ("--truth", str(truth), "--metric", "distance")
    elif case == "nan_factors":
        put_nan(tmp_path / "est_factors.tsrb")
    elif case == "nan_truth_common":
        put_nan(tmp_path / "truth_common.tsrb")
    else:
        put_nan(data)
        argv = ("--metric", "relmse", "--in", str(data))
    code, out, err = run(capsys, "evaluate", "--est", str(est), *argv)
    assert code == expected_code
    assert err.startswith("error:")
    assert out == ""
    if culprit is not None:
        assert str(culprit) in err


def test_rank_command(tmp_path, capsys):
    data = tmp_path / "data.tsrb"
    run(
        capsys, "simulate", "--dims", DIMS, "--T", "200", "--ranks", "3,3,3",
        "--seed", "5", "--out", str(data),
    )
    traces = tmp_path / "traces.csv"
    code, out, _ = run(
        capsys, "rank", "--in", str(data), "--rmax", "8", "--method", "huber",
        "--traces-out", str(traces),
    )
    assert code == 0
    assert out.strip() == "3 3 3"
    lines = traces.read_text().splitlines()
    assert lines[0] == "mode,index,value"
    assert len(lines) > 3
    # %.17g round-trips: every trace value is the spectrum's, bit for bit
    eigenvalues = estimate_ranks(read_series(data), RankConfig(method="huber")).eigenvalues
    expected = [(k, j, v) for k, vals in enumerate(eigenvalues, 1) for j, v in enumerate(vals, 1)]
    got = [(int(k), int(j), float(v)) for k, j, v in (line.split(",") for line in lines[1:])]
    assert got == expected


def test_rank_default_traces_path(tmp_path, capsys):
    data = tmp_path / "data.tsrb"
    run(
        capsys, "simulate", "--dims", "8,8,8", "--T", "60", "--ranks", "2,2,2",
        "--seed", "6", "--out", str(data),
    )
    code, out, _ = run(capsys, "rank", "--in", str(data), "--rmax", "5")
    assert code == 0
    assert out.strip() == "2 2 2"
    assert (tmp_path / "data_eigs.csv").exists()


def test_exit_code_io_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "estimate", "--in", str(tmp_path / "absent.tsrb"),
        "--ranks", "2,2,2", "--out", str(tmp_path / "est"),
    )
    assert code == 3
    assert err.startswith("error:")
    # a binary series where a text matrix belongs: a format error, not a decode error
    data = tmp_path / "d.tsrb"
    write_series(np.random.default_rng(4).standard_normal((20, 3, 3)), data, "binary")
    code, _, err = run(capsys, "analyze", "--loadings", str(data), "--cluster")
    assert code == 3
    assert err.startswith("error:")


def test_exit_code_numerical_error(tmp_path, capsys):
    xs = np.zeros((5, 3, 3))
    xs[0, 0, 0] = np.nan
    data = tmp_path / "nan.tsrb"
    write_series(xs, data, "binary")
    code, _, err = run(
        capsys, "estimate", "--in", str(data), "--ranks", "2,2", "--out", str(tmp_path / "est"),
    )
    assert code == 4


def test_exit_code_numerical_error_on_overflow(tmp_path, capsys):
    ds = gen_dataset(DgpConfig(dims=(5, 5, 5), T=10, ranks=(2, 2, 2), seed=2))
    data = tmp_path / "huge.tsrb"
    write_series(1e160 * ds.observations, data, "binary")
    code, _, err = run(
        capsys, "estimate", "--in", str(data), "--ranks", "2,2,2", "--out", str(tmp_path / "est"),
    )
    assert code == 4
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("estimate", "--ranks", "2,2,2", "--out", "est"),
    ("estimate", "--ranks", "2,2,2", "--method", "huber", "--out", "est"),
    ("rank", "--rmax", "3"),
    ("rank", "--rmax", "3", "--method", "huber"),
])
def test_exit_code_numerical_error_on_nan_series(tmp_path, capsys, monkeypatch, argv):
    x = gen_dataset(DgpConfig(dims=(5, 5, 5), T=10, ranks=(2, 2, 2), seed=2)).observations
    x[4, 2, 1, 3] = np.nan
    data = tmp_path / "nan.tsrb"
    write_series(x, data, "binary")
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *argv, "--in", str(data))
    assert code == 4
    assert err.startswith("error: non-finite values in input series")


def test_exit_code_usage_error(tmp_path, capsys):
    data, _ = write_noiseless(tmp_path)
    code, _, _ = run(
        capsys, "estimate", "--in", str(data), "--ranks", "9,9,9",
        "--out", str(tmp_path / "est"),
    )
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--in", str(data), "--ranks", "a,b", "--out", "x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["bogus"])


@pytest.mark.parametrize("argv", [
    ("rank", "--c", "nan"),
    ("estimate", "--ranks", "2,2,2", "--tol", "nan"),
    ("estimate", "--ranks", "2,2,2", "--method", "huber", "--tau", "0"),
    ("rank", "--method", "huber", "--tau", "-1"),
])
def test_exit_code_usage_error_on_bad_setting(tmp_path, capsys, argv):
    data, _ = write_noiseless(tmp_path)
    code, out, err = run(capsys, argv[0], "--in", str(data), *argv[1:],
                         "--out" if argv[0] == "estimate" else "--traces-out",
                         str(tmp_path / "out"))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("estimate", "--ranks", "2,2,2", "--tol", "nan", "--out"),
    ("rank", "--c", "nan", "--traces-out"),
    ("rank", "--c", "inf", "--traces-out"),
    ("estimate", "--ranks", "0,2", "--out"),
    ("estimate", "--ranks", "2,2,2", "--method", "huber", "--tau", "inf", "--out"),
])
def test_bad_setting_exits_2_before_reading_the_series(tmp_path, capsys, argv):
    # the config is built first, so the missing file (exit 3) is never opened
    missing = tmp_path / "missing.tsr"
    code, out, err = run(capsys, argv[0], "--in", str(missing), *argv[1:],
                         str(tmp_path / "out"))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_replicate_table1_small(tmp_path, capsys):
    out1 = tmp_path / "t1.csv"
    out2 = tmp_path / "t2.csv"
    for out in (out1, out2):
        code, _, _ = run(
            capsys, "replicate", "--table", "1", "--setting", "A",
            "--reps", "2", "--seed", "5", "--out", str(out),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "table,setting,noise,T,method,metric,mean,sd"
    # 4 T values x 2 methods x 3 distance modes
    assert len(lines) == 1 + 24
    assert all(line.split(",")[2] == "normal" for line in lines[1:])


@pytest.mark.parametrize("table", ["1", "2", "3", "4"])
def test_replicate_two_workers_match_serial(tmp_path, capsys, table):
    serial = tmp_path / "serial.csv"
    code, _, _ = run(
        capsys, "replicate", "--table", table, "--setting", "A",
        "--reps", "2", "--seed", "6", "--out", str(serial), "--workers", "1",
    )
    assert code == 0
    parallel = tmp_path / "parallel.csv"
    code, _, _ = run(
        capsys, "replicate", "--table", table, "--setting", "A",
        "--reps", "2", "--seed", "6", "--out", str(parallel), "--workers", "2",
    )
    assert code == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_replicate_table4_ranks(tmp_path, capsys):
    out = tmp_path / "t4.csv"
    code, _, _ = run(
        capsys, "replicate", "--table", "4", "--setting", "A",
        "--reps", "1", "--seed", "7", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    # 4 T values x (2 laws x 2 methods), one exact-rate row each
    assert len(lines) == 1 + 16
    assert all(line.split(",")[5] == "exact" for line in lines[1:])
    assert {line.split(",")[2] for line in lines[1:]} == {"normal", "t3"}


def test_analyze_varimax_and_cluster(tmp_path, capsys):
    a = np.random.default_rng(8).standard_normal((12, 3))
    loadings = tmp_path / "a.mtx"
    write_matrix(a, loadings)
    code, _, _ = run(
        capsys, "analyze", "--loadings", str(loadings), "--varimax", "--cluster",
        "--out", str(tmp_path / "a"),
    )
    assert code == 0
    vm = (tmp_path / "a_varimax.csv").read_text().splitlines()
    assert vm[0] == "entity,col1,col2,col3,display1,display2,display3"
    assert len(vm) == 13
    first = vm[1].split(",")
    assert int(first[0]) == 1
    for raw, shown in zip(first[1:4], first[4:7]):
        assert int(shown) == int(np.trunc(30.0 * float(raw)))
    cl = (tmp_path / "a_clusters.csv").read_text().splitlines()
    assert cl[0] == "cluster_a,cluster_b,height"
    assert len(cl) == 12  # n - 1 merges


def test_analyze_requires_action(tmp_path, capsys):
    a = np.random.default_rng(9).standard_normal((6, 2))
    loadings = tmp_path / "a.mtx"
    write_matrix(a, loadings)
    code, _, err = run(capsys, "analyze", "--loadings", str(loadings))
    assert code == 2


def test_analyze_one_row_loading_writes_nothing(tmp_path, capsys):
    loadings = tmp_path / "row.mtx"
    write_matrix(np.array([[0.5, -1.0, 2.0]]), loadings)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "analyze", "--loadings", str(loadings), "--varimax", "--cluster")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "two entities" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["row.mtx"]


def test_loadings_read_back_normalized(tmp_path, capsys):
    data, _ = write_noiseless(tmp_path)
    est = tmp_path / "est"
    run(capsys, "estimate", "--in", str(data), "--ranks", "2,2,2", "--out", str(est))
    a = read_matrix(tmp_path / "est_loading1.mtx")
    gram = a.T @ a / a.shape[0]
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-8


def test_analyze_cluster_non_finite_loading_is_usage_error(tmp_path, capsys):
    a = np.random.default_rng(10).standard_normal((6, 2))
    a[2, 1] = np.nan
    loadings = tmp_path / "a.mtx"
    write_matrix(a, loadings)
    code, _, err = run(capsys, "analyze", "--loadings", str(loadings), "--cluster")
    assert code == 2
    assert "non-finite" in err
    assert not (tmp_path / "a_clusters.csv").exists()
