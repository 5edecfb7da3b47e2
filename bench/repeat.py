"""Repeat the benchmark over seeds and summarise each metric.

    python3 bench/repeat.py --runs 10 [--first-seed 1] [--workload NAME ...]
                            [--traced] [--out FILE]

Runs ``bench/run.py`` once per seed and workload, one run at a time, with
BENCHMARK.json's run_seconds.  For every end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, which is the distance between the quartiles as a share of the
median, against the metric's bound.  --traced adds one traced run per
workload.  --out writes everything, including each run's record, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    record = next(json.loads(l[7:]) for l in lines if l.startswith("record "))
    return {"seed": seed, "record": record, "result": json.loads(lines[-1])}


def summarise(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    out = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if bound is not None:
        out["bound"] = bound
        out["steady"] = spread < bound / 3.0
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": seconds, "workloads": {}}
    for workload in args.workload or names:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.5g}" for k, v in runs[-1]["result"]["metrics"].items()),
                  flush=True)
        entry = {"runs": runs, "end_to_end": {}}
        for name, bound in bounds.items():
            s = summarise([r["result"]["metrics"][name]["value"] for r in runs], bound)
            entry["end_to_end"][name] = s
            flag = "ok" if s["steady"] else "NOT STEADY"
            print(f"  {name}: median {s['median']:.6g} [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] "
                  f"spread {s['spread']:.4f} vs bound/3 {bound / 3:.4f} {flag}", flush=True)
        if args.traced:
            entry["traced"] = run_once(workload, args.first_seed, seconds, 1)
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
