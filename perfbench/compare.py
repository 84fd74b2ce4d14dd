"""Summarize and compare benchmark records.

    python3 perfbench/compare.py summary RECORDS.jsonl
    python3 perfbench/compare.py diff OLD.jsonl NEW.jsonl

RECORDS files hold the record lines `run.py` prints (and appends to
`.perfbench_work/records.jsonl`), one JSON object per line.

`summary` prints, per workload and metric, the median, the quartiles and the
quartile spread as a share of the median over all records, as JSON.

`diff` prints, per workload and end-to-end metric, both medians, the change
as a share of the old median and the bound from BENCHMARK.json; a change
worse than its bound is marked REGRESSION. Any difference between the
environments of the two files (numpy, Python, BLAS, nproc, CPU, BLAS thread
variables) is printed first and flagged: such a comparison does not measure
the code alone.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def summarize(records) -> dict:
    values = defaultdict(lambda: defaultdict(list))
    for r in records:
        for metric, v in r["metrics"].items():
            values[r["workload"]][metric].append(v)
    out = {}
    for workload, metrics in sorted(values.items()):
        out[workload] = {}
        for metric, vs in sorted(metrics.items()):
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            out[workload][metric] = {"n": len(vs), "median": med, "q1": q1, "q3": q3,
                                     "spread": (q3 - q1) / abs(med) if med else 0.0}
    return out


def environments(records) -> dict:
    envs = defaultdict(set)
    for r in records:
        for k, v in r["env"].items():
            envs[k].add(json.dumps(v))
    return envs


def diff(old, new) -> int:
    old_env, new_env = environments(old), environments(new)
    for key in sorted(set(old_env) | set(new_env)):
        if old_env.get(key) != new_env.get(key) or len(old_env.get(key, ())) > 1:
            print(f"ENVIRONMENT DIFFERS: {key}: {sorted(old_env.get(key, ()))} vs "
                  f"{sorted(new_env.get(key, ()))}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in bench["end_to_end"]}
    a, b = summarize([r for r in old if not r["trace"]]), summarize([r for r in new if not r["trace"]])
    regressions = 0
    for workload in sorted(set(a) & set(b)):
        for metric, m in spec.items():
            if metric not in a[workload] or metric not in b[workload]:
                continue
            x, y = a[workload][metric]["median"], b[workload][metric]["median"]
            change = (y - x) / abs(x) * (1 if m["better"] == "lower" else -1)
            worse = change > m["bound"]
            regressions += worse
            print(f"{workload:14s} {metric:12s} {x:12.6g} -> {y:12.6g} {m['unit']:8s} "
                  f"worse by {change:+.1%} (bound {m['bound']:.0%})"
                  + (" REGRESSION" if worse else ""))
    return 1 if regressions else 0


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "summary":
        print(json.dumps(summarize(load(argv[1])), indent=1))
        return 0
    if len(argv) == 3 and argv[0] == "diff":
        return diff(load(argv[1]), load(argv[2]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
