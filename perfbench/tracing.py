"""Traced run of one `andnmf.cli.main` call, instrumented from outside.

    python3 perfbench/tracing.py REPORT.json <andnmf CLI arguments...>

runs `andnmf.cli.main(<arguments>)` in this process with every layer entry
point wrapped, and writes the spans and counts to REPORT.json when the call
returns. `run.py` starts it as a fresh child process, like the untraced CLI
calls it is compared with, with `src` on PYTHONPATH.

The program looks its collaborators up through module attributes at call
time (`solver.run` calls the module-level `decode`, `harness._run_one` calls
`harness.run_and`, and so on). `Tracer.instrument` replaces those attributes
with wrappers that record a span per call. No file of the program is changed.

A span is (id, name, start, end, parent id, thread id). Spans stay in memory
until the call returns. `layer_metrics` reduces them:
  - `<layer>.<x>_s` is the inclusive time of the span name, summed over calls
    (a span nested in one of the same name is not counted twice);
  - `solver.self_s` is the time of `solver.run` spans not covered by their
    child spans (the inline update and the divergence check);
  - `trace.unaccounted_s` is the traced wall time during which no span was
    open on any thread (argument parsing, config validation, ground truth and
    initialization draws, summary writing).
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key, amount):
        with self._lock:
            self.counts[key] += amount

    def wrap(self, name, fn, after=None):
        """`fn` recording a span `name` per call; `after(result, args)` runs
        once the span has ended, so counting is not charged to the layer."""
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, threading.get_ident()))
            if after is not None:
                after(result, args)
            return result
        return traced

    def patch(self, owner, attr, name, after=None, original=None):
        fn = getattr(owner, attr) if original is None else original
        setattr(owner, attr, self.wrap(name, fn, after))

    def instrument(self):
        """Wrap the layer entry points of the imported `andnmf` package."""
        from andnmf import baselines, harness, linalg, matio, metrics, solver, synth, weights

        modules = (linalg, solver, metrics, baselines, synth, matio, weights, harness)
        for attr, name in (("as_matrix", "linalg.as_matrix"), ("svd_factors", "linalg.svd"),
                           ("spectral_norm", "linalg.spectral_norm")):
            original = getattr(linalg, attr)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self.patch(mod, attr, name, original=original)

        self.patch(solver, "decode", "solver.decode", after=self._count_decode)
        self.patch(metrics.Evaluator, "decompose", "metrics.eval")
        self.patch(metrics.Evaluator, "error_report", "metrics.eval")
        for step in ("mu_step", "hals_step", "anls_step"):
            self.patch(baselines, step, f"baselines.{step}")
        self.patch(harness, "write_matrix", "matio.write",
                   after=lambda _, args: self.add("matio.bytes_written", os.path.getsize(args[0])))
        self.patch(harness, "read_matrix", "matio.read",
                   after=lambda _, args: self.add("matio.bytes_read", os.path.getsize(args[0])))
        self.patch(harness, "generate_dataset", "synth.dataset")
        self.patch(synth, "sample_weights", "weights.sample")
        self.patch(harness, "run_and", "solver.run", original=self._trace_rows(harness.run_and),
                   after=lambda result, _: self.add("solver.pinv_count", result.trace.pinv_count))
        self.patch(harness, "run_baseline", "baselines.run",
                   original=self._trace_rows(harness.run_baseline))

    def _trace_rows(self, run):
        """`run` with its `on_row` trace writer wrapped in a span."""
        def call(*args, on_row=None, **kwargs):
            if on_row is not None:
                on_row = self.wrap("harness.trace_write", on_row)
            return run(*args, on_row=on_row, **kwargs)
        return call

    def _count_decode(self, z, args):
        # the iteration's three GEMMs: P @ Y, A @ Z and (Y - A Z) @ Z^T
        d, w = np.shape(args[0])
        b = np.shape(args[1])[1]
        with self._lock:
            self.counts["solver.decode_nonzero"] += int(np.count_nonzero(z))
            self.counts["solver.decode_entries"] += int(np.size(z))
            self.counts["solver.flop"] += 6 * w * d * b


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans: list[Span], c: Counter, wall_s: float) -> dict:
    """Reduce recorded spans and counts to the per-layer metrics."""
    by_id = {s.sid: s for s in spans}
    calls, inclusive, self_s = Counter(), defaultdict(float), defaultdict(float)
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += s.end - s.start - child_time[s.sid]
        up = by_id.get(s.parent)
        while up is not None and up.name != s.name:
            up = by_id.get(up.parent)
        if up is None:
            inclusive[s.name] += s.end - s.start

    m = {
        "weights.sample_s": inclusive["weights.sample"],
        "synth.dataset_s": inclusive["synth.dataset"],
        "matio.write_s": inclusive["matio.write"],
        "matio.read_s": inclusive["matio.read"],
        "matio.bytes_written": c["matio.bytes_written"],
        "matio.bytes_read": c["matio.bytes_read"],
        "solver.pinv_count": c["solver.pinv_count"],
        "solver.decode_calls": calls["solver.decode"],
        "solver.decode_s": inclusive["solver.decode"],
        "solver.self_s": self_s["solver.run"],
        "solver.flop": c["solver.flop"],
        "solver.decode_density": c["solver.decode_nonzero"] / max(c["solver.decode_entries"], 1),
        "metrics.eval_calls": calls["metrics.eval"],
        "metrics.eval_s": inclusive["metrics.eval"],
        "harness.trace_rows": calls["harness.trace_write"],
        "harness.trace_write_s": inclusive["harness.trace_write"],
        "trace.unaccounted_s": wall_s - _covered((s.start, s.end) for s in spans),
    }
    for layer, name in (("svd", "linalg.svd"), ("spectral_norm", "linalg.spectral_norm"),
                        ("as_matrix", "linalg.as_matrix")):
        m[f"linalg.{layer}_calls"] = calls[name]
        m[f"linalg.{layer}_s"] = inclusive[name]
    for step in ("mu", "hals", "anls"):
        m[f"baselines.{step}_step_calls"] = calls[f"baselines.{step}_step"]
        m[f"baselines.{step}_step_s"] = inclusive[f"baselines.{step}_step"]
    return m


def main(argv) -> int:
    report, cli_args = argv[0], argv[1:]
    from andnmf.cli import main as cli_main

    tracer = Tracer()
    tracer.instrument()
    start = time.perf_counter()
    rc = cli_main(cli_args)
    wall = time.perf_counter() - start
    with open(report, "w") as fh:
        json.dump({"rc": rc, "wall_s": wall, "counts": tracer.counts,
                   "spans": [list(vars(s).values()) for s in tracer.spans]}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
