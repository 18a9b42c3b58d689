"""The benchmark's workloads: what one op runs and how its output is checked.

Every workload turns ``--seed`` into its inputs and nothing else: op ``i``
depends only on (seed, i).  An op calls the package through module
attributes looked up at call time, so the tracer's wrappers see every call.

- ``mc-fit``: one Monte Carlo replication of ``fit`` per op, setting C
  (20, 20, 20), T=200, t3 noise, ranks (3, 3, 3); ops alternate ls and
  huber on the same draw.  DGP plus the projection sweeps, Huber weights and
  ``sym_eig``; no file I/O, no clustering.
- ``mc-rank``: one Monte Carlo replication of ``estimate_ranks`` per op,
  setting C, T=200, r_max=8, c=0; ops cycle {normal, t3} x {ls, huber} on the
  same draw.  The same projection path with wide (10-column) projections and
  full spectra.
- ``cli-session``: one op is a whole ``rtfa`` CLI session, in process, on a
  (200, 10, 10) t3 series of T=10 in the text encoding: simulate, estimate,
  rank, evaluate (three metrics), analyze (varimax + clustering of the
  200-row loading) and a small ``replicate`` of table 1 at setting A.  Text
  series I/O and ``complete_linkage`` at n=200 dominate it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
from pathlib import Path

import numpy as np

import rtfa
import rtfa.cli

SETTING_C = (20, 20, 20)
RANKS = (3, 3, 3)
R_MAX = 8


class CheckFailure(Exception):
    """An op returned, but its output breaks a property the benchmark checks."""


def derive_seed(seed: int, *key: int) -> int:
    """A 32-bit seed that depends only on (seed, key)."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def _finite(values, what: str) -> None:
    if not np.isfinite(np.asarray(values, dtype=float)).all():
        raise CheckFailure(f"non-finite {what}")


def _distance(value: float, what: str) -> None:
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        raise CheckFailure(f"{what} {value!r} outside [0, 1]")


class MonteCarlo:
    """Op ``i`` runs cell ``i % len(cells)`` on draw ``i // len(cells)``."""

    cells: list = []
    dims = SETTING_C
    T = 200
    quality_ops = 16  # untraced ops whose outputs feed the quality summary
    trace_ops = 4  # fixed op set replayed by the traced run

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def spec(self, i: int, T: int | None = None):
        law, est = self.cells[i % len(self.cells)]
        dgp = rtfa.DgpConfig(
            dims=self.dims, T=self.T if T is None else T, ranks=RANKS, phi=0.1, psi=0.1,
            noise_law=law, t_dof=3.0, seed=derive_seed(self.seed, i // len(self.cells)),
        )
        return dgp, est

    def run(self, spec):
        dgp, est = spec
        return rtfa.run_monte_carlo(dgp, est, reps=1, workers=1)

    def warm_up(self) -> None:
        """Every cell once on a short series: first-call costs, all code paths."""
        for i in range(len(self.cells)):
            spec = self.spec(i, T=20)
            self.check(spec, self.run(spec))

    def input_bytes(self) -> dict:
        return {"observations_per_op": 8 * self.T * math.prod(self.dims)}

    def close(self) -> None:
        pass


class MonteCarloFit(MonteCarlo):
    name = "mc-fit"
    cells = [
        ("tensor_t", rtfa.EstimationConfig(ranks=RANKS, method=method))
        for method in ("ls", "huber")
    ]

    def check(self, spec, result) -> dict:
        _, est = spec
        dist = [v for _, _, metric, v in result.rows if metric == "distance"]
        mse = [v for _, _, metric, v in result.rows if metric == "mse"]
        if len(dist) != len(RANKS) or len(mse) != 1:
            raise CheckFailure(f"unexpected result rows {result.rows!r}")
        for k, d in enumerate(dist, start=1):
            _distance(d, f"mode-{k} subspace distance")
        _finite(mse, "common-component MSE")
        if mse[0] < 0:
            raise CheckFailure("negative MSE")
        return {"method": est.method, "distance": dist, "mse": mse[0]}

    @staticmethod
    def summarize(records: list) -> dict:
        dists = [d for r in records for d in r["distance"]]
        out = {
            "dist_mean": float(np.mean(dists)),
            "mse_mean": float(np.mean([r["mse"] for r in records])),
        }
        for method in ("ls", "huber"):
            mine = [d for r in records if r["method"] == method for d in r["distance"]]
            out[f"dist_mean_{method}"] = float(np.mean(mine))
        return out


class MonteCarloRank(MonteCarlo):
    name = "mc-rank"
    cells = [
        (law, rtfa.RankConfig(r_max=R_MAX, c=0.0, method=method))
        for law in ("tensor_normal", "tensor_t")
        for method in ("ls", "huber")
    ]

    def check(self, spec, result) -> dict:
        dgp, est = spec
        ranks = [v for _, _, metric, v in result.rows if metric == "rank"]
        exact = [v for _, _, metric, v in result.rows if metric == "exact"]
        if len(ranks) != len(RANKS) or len(exact) != 1:
            raise CheckFailure(f"unexpected result rows {result.rows!r}")
        if not all(float(r).is_integer() and 1 <= r <= R_MAX for r in ranks):
            raise CheckFailure(f"ranks {ranks!r} are not integers in [1, {R_MAX}]")
        hit = tuple(int(r) for r in ranks) == dgp.ranks
        if exact[0] != float(hit):
            raise CheckFailure(f"exact flag {exact[0]!r} disagrees with ranks {ranks!r}")
        return {"cell": f"{dgp.noise_law}/{est.method}", "ranks": [int(r) for r in ranks],
                "exact": hit}

    @staticmethod
    def summarize(records: list) -> dict:
        out = {"exact_rate": float(np.mean([r["exact"] for r in records]))}
        for cell in dict.fromkeys(r["cell"] for r in records):
            out[f"exact_rate[{cell}]"] = float(np.mean([r["exact"] for r in records
                                                        if r["cell"] == cell]))
        return out


class CliSession:
    """One op is a full CLI session in its own directory under ``workdir``."""

    name = "cli-session"
    dims = (200, 10, 10)
    T = 10
    replicate_reps = 2
    quality_ops = 1
    trace_ops = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._runs = 0

    def spec(self, i: int):
        return {"seed": derive_seed(self.seed, i), "dims": self.dims, "T": self.T,
                "reps": self.replicate_reps}

    def run(self, spec) -> dict:
        self._runs += 1
        base = self.workdir / f"session{self._runs}"
        base.mkdir()
        p = str(base / "x")
        dims = ",".join(str(d) for d in spec["dims"])
        steps = [
            ["simulate", "--dims", dims, "--T", str(spec["T"]), "--noise", "t3",
             "--seed", str(spec["seed"]), "--out", p + ".tsr", "--truth-out", p + "_truth",
             "--format", "text"],
            ["estimate", "--in", p + ".tsr", "--ranks", "3,3,3", "--method", "huber",
             "--out", p + "_est"],
            ["rank", "--in", p + ".tsr", "--method", "huber", "--rmax", str(R_MAX)],
            ["evaluate", "--est", p + "_est", "--truth", p + "_truth", "--metric", "distance"],
            ["evaluate", "--est", p + "_est", "--truth", p + "_truth", "--metric", "mse"],
            ["evaluate", "--est", p + "_est", "--metric", "relmse", "--in", p + ".tsr"],
            ["analyze", "--loadings", p + "_est_loading1.mtx", "--varimax", "--cluster"],
            ["replicate", "--table", "1", "--setting", "A", "--reps", str(spec["reps"]),
             "--seed", str(spec["seed"]), "--workers", "1", "--out", p + "_rep.csv"],
        ]
        stdout = []
        for argv in steps:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = rtfa.cli.main(argv)
            if code != 0:
                raise CheckFailure(f"rtfa {argv[0]} exited with {code}")
            stdout.append(buf.getvalue())
        return {"dir": base, "prefix": p, "stdout": stdout}

    def check(self, spec, out) -> dict:
        try:
            return self._check(spec, out)
        finally:
            shutil.rmtree(out["dir"], ignore_errors=True)

    def _check(self, spec, out) -> dict:
        p = out["prefix"]
        config = rtfa.DgpConfig(dims=spec["dims"], T=spec["T"], ranks=RANKS, phi=0.1, psi=0.1,
                                noise_law="tensor_t", t_dof=3.0, seed=spec["seed"])
        truth = rtfa.gen_dataset(config, rng=rtfa.replication_rng(config.seed))
        # %.17g text round trips must return identical values.
        if not np.array_equal(rtfa.read_series(p + ".tsr"), truth.observations):
            raise CheckFailure("text series round trip changed the observations")
        if not np.array_equal(rtfa.read_series(p + "_truth_common.tsr"), truth.true_common):
            raise CheckFailure("text series round trip changed the common component")
        # Binary factors: read and re-write must reproduce the file bit for bit.
        factors_path = Path(p + "_est_factors.tsrb")
        factors = rtfa.read_series(factors_path)
        _finite(factors, "factors")
        again = Path(p + "_again.tsrb")
        rtfa.write_series(factors, again, "binary")
        if again.read_bytes() != factors_path.read_bytes():
            raise CheckFailure("binary series round trip is not bit-exact")
        mats = [rtfa.read_matrix(f"{p}_est_loading{k}.mtx") for k in range(1, len(RANKS) + 1)]
        try:
            rtfa.LoadingSet(tuple(mats))
        except ValueError as exc:
            raise CheckFailure(f"estimated loadings: {exc}") from exc
        fields = out["stdout"][2].split()
        if len(fields) != len(RANKS) or not all(f.isdigit() and 1 <= int(f) <= R_MAX
                                                for f in fields):
            raise CheckFailure(f"rank printed {out['stdout'][2]!r}, not {len(RANKS)} integers")
        dist = [float(row[2]) for row in list(csv.reader(io.StringIO(out["stdout"][3])))[1:]]
        if len(dist) != len(RANKS):
            raise CheckFailure("evaluate --metric distance printed the wrong row count")
        for k, d in enumerate(dist, start=1):
            _distance(d, f"mode-{k} subspace distance")
        mse = float(list(csv.reader(io.StringIO(out["stdout"][4])))[1][2])
        relmse = float(list(csv.reader(io.StringIO(out["stdout"][5])))[1][2])
        _finite([mse, relmse], "mse / relmse")
        if mse < 0 or relmse < 0:
            raise CheckFailure("negative mse / relmse")
        with open(p + "_est_loading1_clusters.csv", newline="") as fh:
            merges = list(csv.reader(fh))[1:]
        if len(merges) != spec["dims"][0] - 1:
            raise CheckFailure(f"clustering made {len(merges)} merges")
        heights = [float(row[2]) for row in merges]
        _finite(heights, "merge heights")
        with open(p + "_est_loading1_varimax.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        if len(rows) != spec["dims"][0]:
            raise CheckFailure(f"varimax wrote {len(rows)} rows")
        _finite([float(v) for row in rows for v in row[1:4]], "varimax loadings")
        with open(p + "_rep.csv", newline="") as fh:
            table = list(csv.reader(fh))[1:]
        if len(table) != 4 * 2 * len(RANKS):  # T grid x methods x modes
            raise CheckFailure(f"replicate wrote {len(table)} rows")
        for row in table:
            _distance(float(row[6]), "replicate mean distance")
        return {"distance": dist, "mse": mse, "relmse": relmse,
                "ranks": [int(f) for f in fields]}

    @staticmethod
    def summarize(records: list) -> dict:
        dists = [d for r in records for d in r["distance"]]
        return {
            "dist_mean": float(np.mean(dists)),
            "mse_mean": float(np.mean([r["mse"] for r in records])),
            "exact_rate": float(np.mean([tuple(r["ranks"]) == RANKS for r in records])),
        }

    def warm_up(self) -> None:
        """A small session through all six subcommands."""
        spec = {"seed": derive_seed(self.seed, 2**31), "dims": (20, 5, 5), "T": 20, "reps": 1}
        self.check(spec, self.run(spec))

    def input_bytes(self) -> dict:
        n = self.T * math.prod(self.dims)
        return {"observations_per_op": 8 * n,
                "replicate_setting_A_per_rep_T200": 8 * 200 * 10**3}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (MonteCarloFit, MonteCarloRank, CliSession)}
