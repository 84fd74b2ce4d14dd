"""Benchmark of the `andnmf` CLI: end-to-end timing with a correctness gate,
and a traced run for the per-layer breakdown.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from anywhere; it measures the checkout it sits in (`src/andnmf`) and
writes only under `.perfbench_work/` there. Workloads are in `workloads.py`,
the reasons for them and the metric predictions in `README.md`.

--trace 0 repeats one measured unit until S seconds are used: `andnmf
generate` into a fresh directory, then `andnmf run` at the workload's --jobs
(and at --jobs 1 for `compare`), each a child process timed with
`time.perf_counter` and `os.wait4`. It reports the median of each metric over
the repetitions, with at least SETUP_SAMPLES generate calls for setup_s.

--trace 1 makes one untraced unit (for run_s and the speedup), then repeats
its generate and run calls in `tracing.py` children, which call
`andnmf.cli.main` in process with every layer traced. It reports the
per-layer metrics of those two calls.

Every output directory passes through `gate.py`. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
`attempted` counts CLI calls and solver entries; `failed` those that exited
non-zero, had a status other than "ok", or failed the gate. The line before
it is the full record (environment, every sample), also appended to
`.perfbench_work/records.jsonl`.

The benchmark runs its children one at a time and starts no threads of its
own; it does not set OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gate
import tracing
from workloads import REFERENCE_SEEDS, WORKLOADS, Workload, expected_rows

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE_PATH = HERE / "reference.json"
CLI = "import sys; from andnmf.cli import main; sys.exit(main())"
DEADLINE_S = 170
SETUP_SAMPLES = 5
STARTUP_SAMPLES = 5
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SOLVER_LABELS = ("and", "hals", "anls", "mu")


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded(f"run exceeded {DEADLINE_S} s")


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        **{k: os.environ.get(k) for k in THREAD_ENV},
    }


@dataclass
class Child:
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    log: str


def run_child(argv, log_path) -> Child:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=WORK)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, Path(log_path).read_text(errors="replace")[-400:])


@dataclass
class Ops:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def count(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{what}: {'; '.join(problems)}")


@dataclass
class Context:
    workload: Workload
    config: dict
    reference: dict
    ops: Ops = field(default_factory=Ops)

    def __post_init__(self):
        self.rows = expected_rows(self.config)
        self.config_path = WORK / "config.json"
        self.config_path.write_text(json.dumps(self.config))

    def cli(self, *args) -> Child:
        return run_child([sys.executable, "-c", CLI, *args], WORK / "child.log")

    def generate(self, out) -> Child | None:
        shutil.rmtree(out, ignore_errors=True)
        child = self.cli("generate", "--config", str(self.config_path), "--out", str(out))
        return None if self.check_generate("generate", out, child.rc, child.log) else child

    def check_generate(self, what, out, rc, log) -> list[str]:
        """Count the generate call; its problems."""
        try:
            problems = [f"exit {rc}: {log}"] if rc else gate.check_dataset(out, self.reference)
        except OSError as exc:
            problems = [repr(exc)]
        self.ops.count(what, problems)
        return problems

    def check_run(self, what, out, rc, log) -> dict | None:
        """Count the run call and its solver entries; the recomputed final
        errors when all of them pass."""
        try:
            failures, errors = gate.check_run(out, self.rows, self.reference)
        except (OSError, ValueError, KeyError) as exc:
            failures, errors = {label: [repr(exc)] for label in self.rows}, {}
        self.ops.count(what, [f"exit {rc}: {log}"] if rc else [])
        for label in self.rows:
            self.ops.count(f"{what} solver {label}", failures.get(label))
        return None if rc or failures else errors

    def run(self, out, jobs) -> tuple[Child, dict] | None:
        child = self.cli("run", "--config", str(self.config_path), "--out", str(out),
                         "--jobs", str(jobs))
        errors = self.check_run(f"run --jobs {jobs}", out, child.rc, child.log)
        return None if errors is None else (child, errors)


def measure_unit(ctx: Context, out, order: int) -> dict | None:
    """One generate + run(s) unit; None when any call fails."""
    gen = ctx.generate(out)
    if gen is None:
        return None
    jobs = ctx.workload.jobs()
    runs = [jobs, 1] if ctx.workload.also_jobs1 else [jobs]
    if order % 2:
        runs.reverse()
    unit = {"setup_s": gen.wall, "peak_rss_mb": gen.rss_mb}
    for j in runs:
        done = ctx.run(out, j)
        if done is None:
            return None
        child, errors = done
        unit["peak_rss_mb"] = max(unit["peak_rss_mb"], child.rss_mb)
        if j == 1:
            unit["run_jobs1_s"] = child.wall
        if j == jobs:
            unit.update(run_s=child.wall, run_cpu_s=child.cpu,
                        recovered_digits=gate.recovered_digits(errors["and"], out))
            summary = json.loads((Path(out) / "summary.json").read_text())
            unit["solver_wall_s"] = {s["label"]: s["wall_seconds"] for s in summary["solvers"]}
    return unit


def measure(ctx: Context, seconds: float, setup_samples: int) -> dict:
    """Repeat measured units for `seconds`; the samples of each metric."""
    out = WORK / "out"
    samples = {k: [] for k in ("setup_s", "run_s", "run_cpu_s", "run_jobs1_s",
                               "peak_rss_mb", "recovered_digits")}
    unit_walls = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        unit = measure_unit(ctx, out, len(unit_walls))
        if unit is None:
            break
        unit_walls.append(time.perf_counter() - t0)
        for k in samples:
            samples[k].append(unit[k])
        if time.perf_counter() - start + statistics.median(unit_walls) > seconds:
            break
    while unit_walls and len(samples["setup_s"]) < setup_samples:
        gen = ctx.generate(out)
        if gen is None:
            break
        samples["setup_s"].append(gen.wall)
    shutil.rmtree(out, ignore_errors=True)
    return samples


def traced_cli(*args) -> tuple[Child, dict | None]:
    """An andnmf CLI call in a fresh `tracing.py` child; its trace report."""
    report = WORK / "trace.json"
    report.unlink(missing_ok=True)
    child = run_child([sys.executable, str(HERE / "tracing.py"), str(report), *args],
                      WORK / "child.log")
    return child, json.loads(report.read_text()) if report.exists() else None


def traced(ctx: Context) -> tuple[dict, dict]:
    """The per-layer metrics, and the samples they were computed from."""
    startup = [run_child([sys.executable, "-c", "import andnmf.cli"], WORK / "child.log")
               for _ in range(STARTUP_SAMPLES)]
    for child in startup:
        ctx.ops.count("import andnmf.cli", [f"exit {child.rc}: {child.log}"] if child.rc else [])
    out = WORK / "out"
    unit = measure_unit(ctx, out, 0)
    shutil.rmtree(out, ignore_errors=True)
    if unit is None:
        return {}, {}

    cfg = ["--config", str(ctx.config_path), "--out", str(out)]
    gen_child, gen = traced_cli("generate", *cfg)
    if ctx.check_generate("traced generate", out, gen_child.rc if gen else 1, gen_child.log):
        return {}, {}
    run_child_, run = traced_cli("run", *cfg, "--jobs", str(ctx.workload.jobs()))
    errors = ctx.check_run("traced run", out, run_child_.rc if run else 1, run_child_.log)
    shutil.rmtree(out, ignore_errors=True)
    if errors is None:
        return {}, {}

    # span ids restart in each child: shift the run's past the generate's
    offset = len(gen["spans"])
    spans = [tracing.Span(*s) for s in gen["spans"]] + [
        tracing.Span(sid + offset, name, start, end, None if parent is None else parent + offset,
                     thread) for sid, name, start, end, parent, thread in run["spans"]]
    metrics = tracing.layer_metrics(spans, Counter(gen["counts"]) + Counter(run["counts"]),
                                    gen["wall_s"] + run["wall_s"])
    metrics["cli.startup_s"] = statistics.median(c.wall for c in startup)
    for label in SOLVER_LABELS:
        metrics[f"harness.solver_wall_s.{label}"] = unit["solver_wall_s"].get(label, 0.0)
    metrics["harness.parallel_speedup"] = unit["run_jobs1_s"] / unit["run_s"]
    metrics["trace_overhead_s"] = run_child_.wall - unit["run_s"]
    samples = {"unit": unit, "traced_run_s": run_child_.wall, "startup_s": [c.wall for c in startup],
               "traced_main_s": [gen["wall_s"], run["wall_s"]], "spans": len(spans)}
    return metrics, samples


def end_to_end(samples: dict) -> dict:
    # on workloads run at --jobs 1, the run_jobs1_s samples are the run_s ones
    return {k: statistics.median(v) for k, v in samples.items()} if samples["run_s"] else {}


def result(metrics: dict, units: dict, ops: Ops) -> dict:
    return {
        "correct": ops.failed == 0 and bool(metrics),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items() if k in units},
    }


def bench_units(section) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[section]}


def load_reference(section, workload, seed) -> dict:
    return json.loads(REFERENCE_PATH.read_text())[section][workload][str(seed)]


def run_once(name, seed, seconds, trace, smoke=False) -> tuple[dict, dict]:
    """The result line and the full record of one benchmark run."""
    wl = WORKLOADS[name]
    dataset_seed = seed % REFERENCE_SEEDS
    section = "smoke" if smoke else "workloads"
    config = (wl.smoke_config if smoke else wl.config)(dataset_seed)
    ctx = Context(wl, config, load_reference(section, name, dataset_seed))
    if trace:
        metrics, samples = traced(ctx)
        units = bench_units("per_layer")
    else:
        samples = measure(ctx, seconds, 1 if smoke else SETUP_SAMPLES)
        metrics = end_to_end(samples)
        units = bench_units("end_to_end")
    record = {"workload": name, "seed": seed, "dataset_seed": dataset_seed, "trace": trace,
              "seconds": seconds, "smoke": smoke, "env": environment(), "samples": samples,
              "metrics": metrics, "failures": ctx.ops.failures[:20]}
    return result(metrics, units, ctx.ops), record


def perturbed_output_rejected(name) -> bool:
    """Run the smoke-size workload once, perturb and_A_final.mat, and check
    that the gate rejects the directory."""
    wl = WORKLOADS[name]
    ctx = Context(wl, wl.smoke_config(0), load_reference("smoke", name, 0))
    out = WORK / "perturbed"
    if ctx.generate(out) is None or ctx.run(out, 1) is None:
        return False
    path = out / "and_A_final.mat"
    a = gate.read_nmf1(path).copy()
    a[0, :] += 1e-3
    path.write_bytes(path.read_bytes()[:12] + a.tobytes(order="F"))
    failures, _ = gate.check_run(out, ctx.rows, ctx.reference)
    shutil.rmtree(out, ignore_errors=True)
    return "and" in failures


def smoke() -> int:
    """Every workload at its smoke size, untraced and traced, once."""
    ok = True
    for name in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            line, record = run_once(name, 0, 0, trace, smoke=True)
            printed = json.loads(json.dumps(line))  # as a reader of the result line sees it
            want = bench_units(section)
            got = {k: v["unit"] for k, v in printed["metrics"].items()}
            missing = sorted(k for k in want if got.get(k) != want[k])
            good = printed["correct"] and not missing
            ok &= good
            print(f"smoke {name} trace={trace}: {'ok' if good else 'FAIL'} "
                  f"attempted={printed['attempted']} failed={printed['failed']}"
                  + (f" missing={missing}" if missing else "")
                  + ("".join(f"\n  {f}" for f in record["failures"])))
        rejected = perturbed_output_rejected(name)
        ok &= rejected
        print(f"smoke {name} perturbed and_A_final.mat: {'rejected' if rejected else 'ACCEPTED'}")
    print("smoke: ok" if ok else "smoke: FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        help="a workload, or all of them in turn (one result line each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at a tiny size once; checks names, units and the gate")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "andnmf" / "cli.py").is_file():
        print(f"error: no andnmf sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        if args.smoke:
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S * 6)
            return smoke()
        correct = True
        for name in WORKLOADS if args.workload == "all" else [args.workload]:
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
            line, record = run_once(name, args.seed, args.seconds, args.trace)
            with open(WORK / "records.jsonl", "a") as fh:
                fh.write(json.dumps(record) + "\n")
            print(json.dumps(record))
            print(json.dumps(line), flush=True)
            correct &= line["correct"]
        return 0 if correct else 1
    except DeadlineExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.stderr.flush()
        os._exit(3)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


if __name__ == "__main__":
    sys.exit(main())
