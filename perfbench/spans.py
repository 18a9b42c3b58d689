"""In-memory spans around the public functions of the ``rtfa`` package.

A :class:`Tracer` replaces, for the length of one traced op, every binding of
every function in ``rtfa.__all__`` in every ``rtfa.*`` module namespace that
holds it, so that a call made from inside the package (``simulate.fit``,
``cli.read_series``) is caught as well as one made by the benchmark.  The CLI
subcommand handlers are wrapped too, as ``cli.<subcommand>``.  The package's
source is not touched; the original bindings are put back when the op ends.

A span is ``[name, start_ns, end_ns, parent_index, op_id]``.  Each op has a
root span, :data:`ROOT`, that holds the benchmark's own glue.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

ROOT = "bench.op"
CLI_COMMANDS = ("simulate", "estimate", "rank", "evaluate", "analyze", "replicate")


def span_name(fn) -> str:
    """``<defining module>.<function>``, e.g. ``estimation.fit``."""
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


def self_times(spans) -> list[int]:
    """Self time of each span in ns: its duration minus its direct children's.

    Spans of one thread nest, so the children of a span cover disjoint parts
    of it, and the self times of one op sum exactly to its root's duration.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


# Counters read at a layer boundary from the call's (args, kwargs, result).
_COUNTERS = {
    "estimation.fit": lambda a, k, r: {"sweeps": r.iterations_run, "converged": int(r.converged)},
    "ranks.estimate_ranks": lambda a, k, r: {"sweeps": len(r.iterations) - 1,
                                             "converged": int(r.converged)},
    "io.write_series": lambda a, k, r: {"bytes": os.path.getsize(a[1] if len(a) > 1 else k["path"])},
    "io.read_series": lambda a, k, r: {"bytes": os.path.getsize(a[0] if a else k["path"])},
}


class Tracer:
    """Collects spans and counters of traced ops, in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict = defaultdict(int)  # (op_id, "<span>.<counter>") -> value
        self._stack: list[int] = []
        self._op = None
        self._saved: list[tuple] = []

    # --- binding replacement -------------------------------------------------

    def _targets(self, package) -> dict:
        targets = {}
        for name in package.__all__:
            obj = getattr(package, name)
            if inspect.isfunction(obj):
                targets[id(obj)] = (obj, span_name(obj))
        cli = sys.modules.get(f"{package.__name__}.cli")
        for command in CLI_COMMANDS:
            handler = getattr(cli, f"_cmd_{command}", None)
            if inspect.isfunction(handler):
                targets[id(handler)] = (handler, f"cli.{command}")
        return targets

    def install(self, package) -> None:
        """Replace every binding of a traced function in the package's modules."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        targets = self._targets(package)
        wrappers = {}
        prefix = package.__name__ + "."
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == package.__name__ or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is None or hit[0] is not value:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value, hit[1])
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])

    def restore(self) -> None:
        """Put back every original binding that :meth:`install` replaced."""
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def _wrap(self, fn, name):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counters[(self._op, f"{name}.{key}")] += value
            return result

        return traced

    # --- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        span = [name, 0, 0, self._stack[-1] if self._stack else None, self._op]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter_ns()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def op(self, package, op_id):
        """Trace one op: install the wrappers, open its root span, restore after."""
        self.install(package)
        self._op = op_id
        idx = self._open(ROOT)
        try:
            yield
        finally:
            self._close(idx)
            self._op = None
            self.restore()

    # --- summaries -----------------------------------------------------------

    def op_ids(self) -> list:
        return list(dict.fromkeys(span[4] for span in self.spans))

    def span_errors(self) -> list:
        """Ops whose spans do not nest: an unclosed span, a negative self time,
        not exactly one root, or self times that do not sum to the root's duration."""
        totals: dict = defaultdict(int)
        roots: dict = defaultdict(list)
        bad = set()
        for span, own in zip(self.spans, self_times(self.spans)):
            totals[span[4]] += own
            if span[3] is None:
                roots[span[4]].append(span[2] - span[1])
            if own < 0 or span[2] < span[1]:
                bad.add(span[4])
        for op in totals:
            if len(roots[op]) != 1 or totals[op] != roots[op][0]:
                bad.add(op)
        return [op for op in self.op_ids() if op in bad]

    def per_op(self, ops=None) -> dict:
        """Mean self seconds, calls and counters per op, keyed by metric name."""
        ops = self.op_ids() if ops is None else list(ops)
        wanted = set(ops)
        n = max(len(ops), 1)
        own_ns: dict = defaultdict(int)
        calls: dict = defaultdict(int)
        for span, own in zip(self.spans, self_times(self.spans)):
            if span[4] in wanted:
                own_ns[span[0]] += own
                calls[span[0]] += 1
        out = {}
        for name in own_ns:
            out[f"{name}.self_s"] = own_ns[name] / 1e9 / n
            out[f"{name}.calls"] = calls[name] / n
        totals: dict = defaultdict(int)
        for (op, key), value in self.counters.items():
            if op in wanted:
                totals[key] += value
        # Divide once: a running sum of value / n would round differently for
        # different op counts, and these means must repeat exactly.
        for key, total in totals.items():
            out[key] = total / n
        return out
