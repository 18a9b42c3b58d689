"""Tests of the benchmark itself.  Run from the repository root with

    python -m pytest perfbench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import rtfa  # noqa: E402
import rtfa.cli  # noqa: E402

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class SmallFit(workloads.MonteCarloFit):
    dims = (6, 6, 6)
    T = 30
    quality_ops = 2
    trace_ops = 2


def _bindings() -> dict:
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "rtfa" or name.startswith("rtfa.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_self_times_of_a_hand_built_span_tree():
    tree = [
        [spans.ROOT, 0, 100, None, "op"],
        ["a", 10, 60, 0, "op"],
        ["b", 20, 30, 1, "op"],
        ["c", 35, 55, 1, "op"],
        ["d", 70, 90, 0, "op"],
        ["b", 92, 95, 0, "op"],
    ]
    own = spans.self_times(tree)
    assert own == [100 - 50 - 20 - 3, 50 - 10 - 20, 10, 20, 20, 3]
    assert sum(own) == 100
    tracer = spans.Tracer()
    tracer.spans = tree
    assert tracer.span_errors() == []
    layers = tracer.per_op()
    assert layers["b.self_s"] == pytest.approx(13e-9)
    assert layers["b.calls"] == 2
    # A child that outlasts its parent leaves the parent a negative self time.
    tracer.spans = [[spans.ROOT, 0, 10, None, "op"], ["a", 2, 14, 0, "op"]]
    assert tracer.span_errors() == ["op"]


def test_per_op_counts_do_not_depend_on_the_op_count():
    means = []
    for cycles in (11, 13):
        tracer = spans.Tracer()
        for c in range(cycles):
            for j, sweeps in enumerate((4, 5, 3, 4)):
                tracer.counters[((c, j), "estimation.fit.sweeps")] += sweeps
        means.append(tracer.per_op([(c, j) for c in range(cycles) for j in range(4)]))
    assert means[0] == means[1] == {"estimation.fit.sweeps": 4.0}


def test_traced_op_restores_every_binding():
    before = _bindings()
    original_fit = rtfa.estimation.fit
    tracer = spans.Tracer()
    ds = rtfa.gen_dataset(rtfa.DgpConfig(dims=(5, 5, 5), T=20, seed=3))
    with tracer.op(rtfa, "op"):
        assert rtfa.estimation.fit is not original_fit
        assert rtfa.simulate.fit is rtfa.estimation.fit
        assert rtfa.cli.read_series is rtfa.io.read_series is not before[("rtfa.io", "read_series")]
        rtfa.fit(ds.observations, rtfa.EstimationConfig(ranks=(3, 3, 3), method="huber"))
    assert _bindings() == before
    names = {span[0] for span in tracer.spans}
    assert {spans.ROOT, "estimation.fit", "estimation.initial_estimator", "eig.sym_eig",
            "tensor.series_mode_product"} <= names
    assert tracer.counters[("op", "estimation.fit.sweeps")] >= 1
    with pytest.raises(RuntimeError):
        with tracer.op(rtfa, "failing op"):
            raise RuntimeError("boom")
    assert _bindings() == before
    assert tracer.span_errors() == []


@pytest.mark.parametrize("cls", [workloads.MonteCarloFit, workloads.MonteCarloRank])
def test_seed_fixes_the_generated_inputs(cls, tmp_path):
    def data(seed, i):
        dgp, _ = cls(seed, tmp_path).spec(i, T=20)
        return rtfa.gen_dataset(dgp, rng=rtfa.replication_rng(dgp.seed, 0)).observations

    n = len(cls.cells)
    assert np.array_equal(data(7, 0), data(7, 0))
    # One draw serves every cell of a row.
    assert cls(7, tmp_path).spec(0)[0].seed == cls(7, tmp_path).spec(n - 1)[0].seed
    assert not np.array_equal(data(7, 0), data(7, n))
    assert not np.array_equal(data(7, 0), data(8, 0))


def test_seed_fixes_the_cli_session(tmp_path):
    a, b, c = (workloads.CliSession(s, tmp_path) for s in (7, 7, 8))
    assert a.spec(0) == b.spec(0)
    assert a.spec(0) != c.spec(0)
    assert a.spec(0) != a.spec(1)


class Flaky:
    quality_ops = 5

    def spec(self, i):
        return i

    def run(self, i):
        if i == 2:
            raise RuntimeError("deliberate failure")
        return i

    def check(self, i, out):
        if i == 3:
            raise workloads.CheckFailure("deliberately wrong output")
        return {"i": out}


def test_failed_ops_are_counted_and_the_run_goes_on():
    tally = harness.Tally()
    cpu_s, wall_s, records = harness.measure(Flaky(), 0, tally)
    assert (tally.attempted, tally.failed) == (5, 2)
    assert records == [{"i": 0}, {"i": 1}, None, None, {"i": 4}]
    assert len(cpu_s) == len(wall_s) == 3
    assert "deliberate failure" in tally.errors[0]


def test_replay_counts_repeat_exactly(tmp_path):
    counts = []
    for _ in range(2):
        tally = harness.Tally()
        tracer, untraced, traced, cycles, mismatches = harness.replay(
            SmallFit(5, tmp_path), rtfa, 0, tally)
        assert (tally.failed, cycles, mismatches) == (0, 1, [])
        assert tracer.span_errors() == []
        layers = harness.per_layer(tracer, untraced, traced)
        assert layers["estimation.fit.calls"] == 1
        assert layers["estimation.fit.sweeps"] >= 1
        assert "trace.overhead_s" in layers
        counts.append(harness.repeat_counts(tracer.per_op()))
    assert counts[0] == counts[1]


def test_small_cli_session_traced(tmp_path):
    session = workloads.CliSession(4, tmp_path)
    spec = {"seed": 9, "dims": (20, 5, 5), "T": 20, "reps": 1}
    tracer = spans.Tracer()
    tally = harness.Tally()
    _, _, record = harness.run_op(session, spec, tally, "session", tracer, rtfa, "op")
    assert tally.failed == 0, tally.errors
    assert len(record["ranks"]) == 3
    layers = tracer.per_op()
    for command in spans.CLI_COMMANDS:
        assert layers[f"cli.{command}.calls"] >= 1
    assert layers["io.write_series.bytes"] > 0
    assert layers["io.read_series.bytes"] > 0
    assert layers["metrics.complete_linkage.calls"] == 1


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "mc-fit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
