"""Benchmark of the ``rtfa`` package: one workload per call.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mc-fit --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` replays
a fixed set of ops with spans around every public function and prints the
per-layer metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable table and a JSON report (environment, quality, samples,
determinism, every span).  The package is imported from ``src/`` of the
checkout and nowhere else; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench-state"
WORK_DIR = ROOT / ".perfbench-work"
SETUP_ROUNDS = 5


def _parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _pin_environment() -> None:
    """One process, one BLAS thread, no pools, whatever the caller's environment says."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "RTFA_WORKERS"):
        os.environ[var] = "1"


def _import_package():
    """Import ``rtfa`` from this checkout's ``src/``; None if it is not there."""
    if not (SRC / "rtfa" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import rtfa
    import rtfa.cli  # noqa: F401  (the CLI workload and the tracer need it loaded)

    if not Path(rtfa.__file__).resolve().is_relative_to(SRC.resolve()):
        return None
    return rtfa


def _import_seconds() -> list[float]:
    """CPU time of a fresh import of the package in child processes, one at a time."""
    probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.process_time(); "
             "import rtfa, rtfa.cli; print(time.process_time() - t)")
    return [float(subprocess.run([sys.executable, "-c", probe, str(SRC)], check=True,
                                 capture_output=True, text=True, timeout=120).stdout)
            for _ in range(SETUP_ROUNDS)]


def _code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("rtfa/**/*.py"), *HERE.glob("*.py"), ROOT / "BENCHMARK.json"]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _repeat_check(key: str, values) -> list[str]:
    """Compare exact-repeat values with an earlier run of the same code and seed."""
    blob = json.dumps(values, sort_keys=True)
    path = STATE_DIR / f"{key}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != json.loads(blob):
            return [f"nondeterminism: exact-repeat values differ from an earlier run ({path.name})"]
        return []
    STATE_DIR.mkdir(exist_ok=True)
    path.write_text(blob)
    return []


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = _parse_args(argv, spec)
    _pin_environment()
    rtfa = _import_package()
    if rtfa is None:
        print(f"error: no rtfa package under {SRC}", file=sys.stderr)
        return 2

    import harness
    import machine
    from workloads import WORKLOADS

    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    tally = harness.Tally()
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    cls = WORKLOADS[args.workload]
    rounds = []
    workload = None
    try:
        # Set-up: a fresh import, then input generation plus warm-up, each
        # several times; the medians of their CPU times count.
        imports = _import_seconds()
        for r in range(SETUP_ROUNDS):
            if workload is not None:
                workload.close()
            t0 = time.process_time()
            workload = cls(args.seed, workdir)
            for i in range(workload.quality_ops):  # the inputs of the repeat-checked ops
                workload.spec(i)
            tally.attempted += 1
            try:
                workload.warm_up()
            except Exception as exc:  # counted like any failed op
                tally.fail(f"warm-up {r}", exc)
            rounds.append(time.process_time() - t0)
        setup_s = statistics.median(imports) + statistics.median(rounds)

        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "setup": {"import_s": imports, "rounds_s": rounds}}
        problems: list[str] = []
        key = f"{_code_digest()}-{args.workload}-s{args.seed}-t{args.trace}"
        if args.trace:
            tracer, untraced, traced, cycles, mismatches = harness.replay(
                workload, rtfa, args.seconds, tally)
            problems += mismatches
            bad_ops = tracer.span_errors()
            if bad_ops:
                problems.append(f"spans do not nest for ops {bad_ops[:5]}")
            layers = harness.per_layer(tracer, untraced, traced)
            metrics = {name: layers.get(name, 0.0) for name in units}
            counts = harness.repeat_counts(tracer.per_op())
            problems += _repeat_check(key, counts)
            report.update(cycles=cycles, traced_ops=len(tracer.op_ids()),
                          untraced_s=untraced, traced_s=traced, layers=layers)
        else:
            durations, walls, records = harness.measure(workload, args.seconds, tally)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = harness.end_to_end(durations, setup_s, peak_rss_mb)
            passed = [r for r in records if r is not None]
            report["quality"] = cls.summarize(passed) if passed else {}
            report["samples"] = {
                "ops": len(durations),
                "cpu_s": durations,
                "wall_s": walls,
                "wall_p50_s": statistics.median(walls) if walls else None,
                "tail_percentile": 100 * harness.TAIL_Q,
                "beyond_tail": sum(d > metrics.get("op_tail_s", 0) for d in durations),
            }
            problems += _repeat_check(key, records)
        report["fail_frac"] = tally.failed / max(tally.attempted, 1)
        report["errors"] = tally.errors
        report["problems"] = problems
        report["env"] = machine.environment(workload.input_bytes())
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    correct = tally.failed == 0 and not problems and set(metrics) == set(units)
    for name in units:
        print(f"{name:45s} {metrics.get(name, float('nan')):>14.6g} {units[name]}")
    print(f"{'fail_frac':45s} {report['fail_frac']:>14.6g} failed/attempted")
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
