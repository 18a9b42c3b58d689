"""Closed-loop measurement and the traced replay, with the figures built from them.

One client, one op at a time: the next op starts only after the previous one
has returned and been checked.  Checks run outside the timed region and,
in the traced replay, after the package's bindings are restored.

Each op is timed twice: wall time, and the CPU time of this process.  The
end-to-end op metrics use CPU time.  Every op is single-threaded compute on
data in memory or in the page cache, so on a dedicated core the two agree;
on a shared virtual machine CPU time leaves out the time the host ran
someone else on this vCPU, which wall time counts and which has nothing to
do with the program.  Wall times go into the report beside them.
"""

from __future__ import annotations

import statistics
import time

from spans import Tracer

# The tail is a fixed percentile so that a faster program, which fits more
# ops into a run, does not move to a higher percentile.  At the sample counts
# the Monte Carlo workloads reach in a run (74 to 118) p75 keeps >= 10 samples
# beyond it; the report states the count for every run.
TAIL_Q = 0.75


class Tally:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, label: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")


def run_op(workload, spec, tally: Tally, label: str, tracer=None, package=None, op_id=None):
    """Run and check one op; return (wall_s, cpu_s, record), record None if it failed."""
    tally.attempted += 1
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            out = workload.run(spec)
        else:
            with tracer.op(package, op_id):
                out = workload.run(spec)
    except Exception as exc:  # a failed op is counted and the run goes on
        tally.fail(label, exc)
        return time.perf_counter() - wall, time.process_time() - cpu, None
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    try:
        return wall, cpu, workload.check(spec, out)
    except Exception as exc:  # a wrong output is a failed op too
        tally.fail(label, exc)
        return wall, cpu, None


def measure(workload, seconds: float, tally: Tally):
    """Untraced closed loop over ops 0, 1, 2, ... until ``seconds`` of op time have passed.

    Only the ops' own wall time counts against ``seconds``, not their checks,
    so a costly check does not cut the sample count.  The first
    ``workload.quality_ops`` ops always run, so the quality records, which
    must repeat exactly for a seed, do not depend on speed.  Returns the CPU
    and wall durations of the ops that passed and the quality records.
    """
    cpu_s: list[float] = []
    wall_s: list[float] = []
    records: list = []
    spent = 0.0
    i = 0
    while i < workload.quality_ops or spent < seconds:
        wall, cpu, record = run_op(workload, workload.spec(i), tally, f"op {i}")
        spent += wall
        if record is not None:
            cpu_s.append(cpu)
            wall_s.append(wall)
        if i < workload.quality_ops:
            records.append(record)
        i += 1
    return cpu_s, wall_s, records


def replay(workload, package, seconds: float, tally: Tally):
    """Replay the fixed set of ``workload.trace_ops`` ops in whole cycles.

    Each op runs once untraced and once traced, in alternating order; the
    pair's outputs must agree.  Returns the tracer, the paired wall durations,
    the number of cycles and any nondeterminism found.
    """
    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    mismatches: list[str] = []
    cycle = 0
    start = time.perf_counter()
    while cycle == 0 or time.perf_counter() - start < seconds:
        for j in range(workload.trace_ops):
            spec = workload.spec(j)
            runs = {}
            for on in ((False, True) if (cycle + j) % 2 == 0 else (True, False)):
                runs[on] = run_op(workload, spec, tally, f"{'traced' if on else 'untraced'} op {j}",
                                  tracer if on else None, package, (cycle, j))
            if runs[False][2] is None or runs[True][2] is None:
                continue
            if runs[False][2] != runs[True][2]:
                mismatches.append(f"op {j} cycle {cycle}: traced output differs from untraced")
            untraced.append(runs[False][0])
            traced.append(runs[True][0])
        cycle += 1
    mismatches += _cycle_mismatches(tracer, workload.trace_ops, cycle)
    return tracer, untraced, traced, cycle, mismatches


def repeat_counts(per_op: dict) -> dict:
    """The counts that must repeat exactly for a seed: calls, sweeps, converged, bytes."""
    return {k: v for k, v in sorted(per_op.items())
            if k.endswith((".calls", ".sweeps", ".converged", ".bytes"))}


def _cycle_mismatches(tracer: Tracer, n_ops: int, cycles: int) -> list[str]:
    """Every cycle replays the same inputs, so its counts must equal cycle 0's."""
    out = []
    first = repeat_counts(tracer.per_op([(0, j) for j in range(n_ops)]))
    for c in range(1, cycles):
        counts = repeat_counts(tracer.per_op([(c, j) for j in range(n_ops)]))
        if counts != first:
            diff = sorted(k for k in first.keys() | counts.keys() if first.get(k) != counts.get(k))
            out.append(f"cycle {c} counts differ from cycle 0: {diff[:5]}")
    return out


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def end_to_end(durations: list[float], setup_s: float, peak_rss_mb: float) -> dict:
    if not durations:
        return {}
    return {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(durations),
        "op_tail_s": quantile(durations, TAIL_Q),
        "ops_per_s": len(durations) / sum(durations),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer: Tracer, untraced: list[float], traced: list[float]) -> dict:
    """Per-op self times and counts, plus the tracing overhead per op."""
    out = tracer.per_op()
    for layer in ("estimation.fit", "ranks.estimate_ranks"):
        calls = out.get(f"{layer}.calls", 0)
        out[f"{layer}.converged_frac"] = out.get(f"{layer}.converged", 0) / calls if calls else 0.0
    if untraced:
        extra = sum(traced) - sum(untraced)
        out["trace.overhead_s"] = extra / len(untraced)
        out["trace.overhead_frac"] = extra / sum(untraced)
    return out
