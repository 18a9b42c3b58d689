"""Command-line front end.

Exit codes: 0 success, 2 usage error, 3 I/O or file-format error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

from .eig import _fix_signs, varimax
from .estimation import (
    _METHODS,
    _check_loading,
    _check_series,
    EstimationConfig,
    LoadingSet,
    NumericalError,
    common_components,
    fit,
)
from .io import FileFormatError, _write_csv, read_matrix, read_series, write_matrix, write_series
from .metrics import (
    complete_linkage,
    loading_distance_matrix,
    mse_common,
    orthonormal_basis,
    relative_mse,
    subspace_distance,
)
from .ranks import _REGIMES, RankConfig, estimate_ranks
from .simulate import DgpConfig, gen_dataset, replication_rng, run_monte_carlo

_SETTINGS = {
    "A": (10, 10, 10),
    "B": (100, 10, 10),
    "C": (20, 20, 20),
    "D": (30, 30, 30),
}
_T_GRID = (20, 50, 100, 200)
_NOISE = {"normal": "tensor_normal", "t3": "tensor_t"}  # --noise label -> noise law
_SERIES_EXTS = {"binary": ".tsrb", "text": ".tsr"}  # encoding -> extension


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        vals = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return vals


def _parse_tau(text: str):
    if text == "median":
        return "median"
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tau must be 'median' or a number, got {text!r}")


# A prefix file set: <prefix>_loading<k>.mtx for k = 1, 2, ... and one
# <prefix>_<name>.tsr[b] per named series.
def _write_prefix(prefix: str, mats, encoding: str, **series) -> None:
    for k, a in enumerate(mats, start=1):
        write_matrix(a, f"{prefix}_loading{k}.mtx")
    for name, values in series.items():
        write_series(values, f"{prefix}_{name}{_SERIES_EXTS[encoding]}", encoding)


def _read_loadings(prefix: str, normalized: bool = False) -> list[np.ndarray]:
    """Read <prefix>_loading<k>.mtx for k = 1, 2, ..., each finite and either
    normalized or of full column rank; each refusal names its file."""
    mats = []
    while (path := Path(f"{prefix}_loading{len(mats) + 1}.mtx")).exists():
        mats.append(read_matrix(path))
        if not np.isfinite(mats[-1]).all():
            raise ValueError(f"non-finite entries in {path}")
        if normalized:
            _check_loading(mats[-1], str(path))
        else:
            try:
                orthonormal_basis(mats[-1])
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
    if not mats:
        raise FileNotFoundError(f"no loading files found at {prefix}_loading1.mtx")
    return mats


def _find_series(prefix: str, stem: str) -> Path:
    for ext in _SERIES_EXTS.values():
        path = Path(f"{prefix}_{stem}{ext}")
        if path.exists():
            return path
    raise FileNotFoundError(f"no {stem} series found for prefix {prefix}")


def _cmd_simulate(args) -> int:
    config = DgpConfig(
        dims=args.dims,
        T=args.T,
        ranks=args.ranks,
        phi=args.phi,
        psi=args.psi,
        noise_law=_NOISE[args.noise],
        t_dof=3.0,
        seed=args.seed,
        burn_in=args.burn_in,
    )
    dataset = gen_dataset(config, rng=replication_rng(config.seed))
    write_series(dataset.observations, args.out, args.format)
    if args.truth_out:
        truth = {"factors": dataset.true_factors, "common": dataset.true_common}
        _write_prefix(args.truth_out, dataset.true_loadings.mats, args.format, **truth)
    return 0


def _cmd_estimate(args) -> int:
    config = EstimationConfig(
        ranks=args.ranks,
        method=args.method,
        tau=args.tau,
        max_iter=args.max_iter,
        tol=args.tol,
    )
    x = read_series(args.infile)
    result = fit(x, config)
    _write_prefix(args.out, result.loadings.mats, "binary", factors=result.factors)
    changes = enumerate(result.per_iteration_subspace_change, start=1)
    _write_csv(f"{args.out}_diagnostics.csv", ["key", "value"], [
        ["iterations_run", result.iterations_run],
        ["converged", int(result.converged)],
        ["tau_used", result.tau_used],  # None (ls) is an empty field
        *([f"subspace_change_{i}", change] for i, change in changes),
    ])
    return 0


def _cmd_rank(args) -> int:
    config = RankConfig(
        r_max=args.rmax,
        c=args.c,
        method=args.method,
        epsilon_regime=args.regime,
        tau=args.tau,
    )
    x = read_series(args.infile)
    result = estimate_ranks(x, config)
    traces = args.traces_out or str(Path(args.infile).with_suffix("")) + "_eigs.csv"
    _write_csv(traces, ["mode", "index", "value"], (
        [k, j, v]
        for k, values in enumerate(result.eigenvalues, start=1)
        for j, v in enumerate(values, start=1)
    ))
    print(" ".join(str(r) for r in result.ranks))
    return 0


def _cmd_evaluate(args) -> int:
    if args.metric in ("distance", "mse") and not args.truth:
        raise ValueError(f"--metric {args.metric} requires --truth")
    if args.metric == "relmse" and not args.infile:
        raise ValueError("--metric relmse requires --in (the observation series)")
    est_mats = _read_loadings(args.est, normalized=args.metric != "distance")
    # every row is computed before any is printed: a failure prints nothing
    if args.metric == "distance":
        truth_mats = _read_loadings(args.truth)
        if len(truth_mats) != len(est_mats):
            raise ValueError("estimate and truth have different mode counts")
        pairs = enumerate(zip(est_mats, truth_mats), start=1)
        rows = [["distance", k, subspace_distance(a_hat, a_true)] for k, (a_hat, a_true) in pairs]
    else:
        factors = _check_series(read_series(_find_series(args.est, "factors")))
        s_hat = common_components(LoadingSet(tuple(est_mats)), factors)
        if args.metric == "mse":
            truth_common = _check_series(read_series(_find_series(args.truth, "common")))
            rows = [["mse", None, mse_common(s_hat, truth_common)]]
        else:  # relmse
            rows = [["relmse", None, relative_mse(_check_series(read_series(args.infile)), s_hat)]]
    _write_csv(sys.stdout, ["metric", "mode", "value"], rows)
    return 0


# Per table: the noise labels of its rows (each row runs an ls and a huber cell
# on the same draws), whether the cells estimate or rank, and the metric-name
# prefix of the rows it reports.
_TABLES = {
    1: (("normal",), "estimate", "distance"),
    2: (("t3",), "estimate", "distance"),
    3: (("normal",), "estimate", "mse"),
    4: (("normal", "t3"), "rank", "exact"),
}


def _cmd_replicate(args) -> int:
    dims = _SETTINGS[args.setting]
    ranks = (3, 3, 3)
    labels, kind, prefix = _TABLES[args.table]
    if kind == "estimate":
        ests = [EstimationConfig(ranks=ranks, method=method) for method in _METHODS]
    else:
        ests = [RankConfig(r_max=8, c=0.0, method=method) for method in _METHODS]
    rows = []
    for t_len, label in itertools.product(_T_GRID, labels):
        dgp = DgpConfig(
            dims=dims, T=t_len, ranks=ranks, phi=0.1, psi=0.1,
            noise_law=_NOISE[label], t_dof=3.0, seed=args.seed,
        )
        results = run_monte_carlo(dgp, ests, reps=args.reps, workers=args.workers)
        for method, result in zip(_METHODS, results):
            for name, mean, sd in result.aggregate:
                if name.startswith(prefix):
                    rows.append([args.table, args.setting, label, t_len, method, name, mean, sd])
    header = ["table", "setting", "noise", "T", "method", "metric", "mean", "sd"]
    _write_csv(args.out, header, rows)
    return 0


def _cmd_analyze(args) -> int:
    if not args.varimax and not args.cluster:
        raise ValueError("nothing to do: pass --varimax and/or --cluster")
    a = read_matrix(args.loadings)
    prefix = args.out or str(Path(args.loadings).with_suffix(""))
    # the rotation and the tree are computed before either is written: a failure writes nothing
    if args.varimax:
        a = _fix_signs(varimax(a)[0])
    if args.cluster:
        tree = complete_linkage(loading_distance_matrix(a))
    if args.varimax:
        display = np.trunc(30.0 * a).astype(int)
        cols = range(1, a.shape[1] + 1)
        header = ["entity", *(f"col{j}" for j in cols), *(f"display{j}" for j in cols)]
        rows = ([i + 1, *a[i], *display[i]] for i in range(len(a)))
        _write_csv(f"{prefix}_varimax.csv", header, rows)
    if args.cluster:
        _write_csv(f"{prefix}_clusters.csv", ["cluster_a", "cluster_b", "height"], tree.merges)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtfa",
        description="Tensor factor models: simulation, estimation, rank selection, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic tensor series")
    p.add_argument("--dims", type=_parse_int_list, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--ranks", type=_parse_int_list, default=(3, 3, 3))
    p.add_argument("--phi", type=float, default=0.1)
    p.add_argument("--psi", type=float, default=0.1)
    p.add_argument("--noise", choices=tuple(_NOISE), default="normal")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burn-in", type=int, default=100)
    p.add_argument("--out", required=True)
    p.add_argument("--truth-out", default=None)
    p.add_argument("--format", choices=("binary", "text"), default="binary")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="fit loadings and factors")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--ranks", type=_parse_int_list, required=True)
    p.add_argument("--method", choices=_METHODS, default="ls")
    p.add_argument("--tau", type=_parse_tau, default="median")
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("rank", help="select the number of factors per mode")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--rmax", type=int, default=8)
    p.add_argument("--method", choices=_METHODS, default="ls")
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--regime", choices=_REGIMES, default="ge2")
    p.add_argument("--tau", type=_parse_tau, default="median")
    p.add_argument("--traces-out", default=None)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("evaluate", help="score an estimate against the truth")
    p.add_argument("--est", required=True)
    p.add_argument("--truth", default=None)
    p.add_argument("--metric", choices=("distance", "mse", "relmse"), required=True)
    p.add_argument("--in", dest="infile", default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("replicate", help="run a preset simulation study")
    p.add_argument("--table", type=int, choices=(1, 2, 3, 4), required=True)
    p.add_argument("--setting", choices=tuple(_SETTINGS), required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_replicate)

    p = sub.add_parser("analyze", help="rotate and/or cluster a loading matrix")
    p.add_argument("--loadings", required=True)
    p.add_argument("--varimax", action="store_true")
    p.add_argument("--cluster", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_analyze)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
