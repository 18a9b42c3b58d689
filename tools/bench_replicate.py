"""Time `rtfa replicate` cells at a parent commit and at the working tree.

Each cell is one `rtfa replicate` command, run as a fresh process with one
BLAS thread.  The parent and the change run in alternating pairs (the parent
first in even pairs, the change first in odd ones), and every pair checks that
both sides wrote the same CSV bytes.  Each cell also records how many of its
CSV values differ between the sides and the largest relative difference, so
a deliberate change of results shows its size.  The result file holds the
environment and, per cell and metric (the child's CPU time, peak resident set
and minor page faults, from its own resource usage, and the wall time), each
side's runs, median and quartiles, and the number of pairs the change won.

    python tools/bench_replicate.py --parent HEAD~1 --out BENCH.json

The parent's committed tree is extracted with `git archive` into a temporary
directory, removed when the run ends; the change is the working tree this
script sits in.  Every cell runs with `--reps 10 --seed 0 --workers 1`, and
there are always ten pairs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from contextlib import contextmanager
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)  # before numpy loads, so the recorded environment matches the runs
sys.path.insert(0, str(ROOT))
from perfbench.machine import environment  # noqa: E402

PAIRS = 10
CELLS = {
    name: [*argv, "--reps", "10", "--seed", "0", "--workers", "1"]
    for name, argv in {
        "table1-C": ["--table", "1", "--setting", "C"],
        "table4-C": ["--table", "4", "--setting", "C"],
    }.items()
}
METRICS = ("cpu_s", "wall_s", "peak_rss_mb", "minflt")  # all lower is better


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


@contextmanager
def _parent_tree(rev: str):
    """The committed tree of ``rev``, extracted into a temporary directory."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory(prefix="rtfa-parent-") as tmp:
        with tarfile.open(fileobj=BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        yield Path(tmp)


def _run_cell(tree: Path, argv: list[str], out: Path) -> dict:
    """One `rtfa replicate` run: its CPU time, wall time, peak RSS, minor page
    faults, CSV digest and CSV values (each row's trailing mean and sd).

    All but the wall time and the CSV come from the child's own resource usage.
    """
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **THREADS)
    cmd = [sys.executable, "-m", "rtfa.cli", "replicate", *argv, "--out", str(out)]
    start = time.perf_counter()
    _, status, usage = os.wait4(os.posix_spawn(sys.executable, cmd, env), 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return {
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "minflt": usage.ru_minflt,
        "sha256": hashlib.sha256(out.read_bytes()).hexdigest(),
        "values": [float(v) for row in list(csv.reader(out.read_text().splitlines()))[1:]
                   for v in row[-2:]],
    }


def _csv_diff(a: list[float], b: list[float]) -> dict:
    """How many of two CSVs' values differ, and the largest relative difference."""
    rel = [abs(x - y) / max(abs(x), abs(y)) for x, y in zip(a, b, strict=True) if x != y]
    return {"values": len(a), "differing": len(rel), "max_rel": max(rel, default=0.0)}


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--out", required=True, help="result JSON path")
    args = parser.parse_args(argv)

    runs = {name: {"parent": [], "change": []} for name in CELLS}
    same_csv = {name: True for name in CELLS}
    csv_diffs = {name: [] for name in CELLS}
    with _parent_tree(args.parent) as parent, \
            tempfile.TemporaryDirectory(prefix="rtfa-bench-") as tmp:
        sides = {"parent": parent, "change": ROOT}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for name, argv_cell in CELLS.items():
                got = {side: _run_cell(sides[side], argv_cell, Path(tmp) / f"{side}.csv")
                       for side in order}
                same_csv[name] &= got["parent"]["sha256"] == got["change"]["sha256"]
                csv_diffs[name].append(_csv_diff(got["parent"]["values"], got["change"]["values"]))
                for side in order:
                    runs[name][side].append(got[side])
                print(f"pair {i + 1}/{PAIRS} {name}: " + ", ".join(
                    f"{side} {got[side]['cpu_s']:.3f} s cpu {got[side]['peak_rss_mb']:.1f} MB"
                    for side in order), file=sys.stderr)

    result = {
        "tool": "tools/bench_replicate.py",
        "parent": _git("rev-parse", args.parent),
        "change": _git("rev-parse", "HEAD") + (" + working tree" if _git("status", "--porcelain") else ""),
        "environment": environment({}),
        "pairs": PAIRS,
        "cells": {},
    }
    for name, argv_cell in CELLS.items():
        cell = {"argv": ["rtfa", "replicate", *argv_cell], "same_csv": same_csv[name],
                "csv_diff": max(csv_diffs[name], key=lambda d: d["max_rel"])}
        for metric in METRICS:
            parent_vals = [r[metric] for r in runs[name]["parent"]]
            change_vals = [r[metric] for r in runs[name]["change"]]
            p, c = _summary(parent_vals), _summary(change_vals)
            cell[metric] = {
                "parent": p,
                "change": c,
                "change_wins": sum(cv < pv for pv, cv in zip(parent_vals, change_vals)),
                "median_change_frac": c["median"] / p["median"] - 1.0,
                "parent_iqr": p["q3"] - p["q1"],
            }
        result["cells"][name] = cell
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0 if all(same_csv.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
