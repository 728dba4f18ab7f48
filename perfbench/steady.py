"""Steadiness check: repeated end-to-end runs against BENCHMARK.json bounds.

Usage, from the repository root:
    python3 perfbench/steady.py [--workloads study,dense] [--runs 10]
        [--first-seed 100] [--seconds S] [--save FILE] [--compare FILE]

Runs `perfbench/run.py --trace 0` --runs times per workload, one seed each,
one run at a time. For every end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread, (Q3 - Q1) / median.
A metric is steady when its spread is below a third of its bound (setup_s
is exempt). With --compare, each median is also checked against the saved
set: the new median may not be worse than the old one by more than the
bound. Exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_set(workloads, runs: int, first_seed: int, seconds: int) -> dict:
    values: dict = {}
    for workload in workloads:
        for i in range(runs):
            seed = first_seed + i
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, m in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(m["value"])
            values[workload].setdefault("run_wall_s", []).append(wall)
            print(f"{workload} seed {seed}: {wall:.1f} s, "
                  + ", ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                  flush=True)
    return values


def spread(vals) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="steadiness check")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()

    values = run_set(args.workloads.split(","), args.runs, args.first_seed, args.seconds)
    if args.save:
        Path(args.save).write_text(json.dumps(values))
    before = json.loads(Path(args.compare).read_text()) if args.compare else {}

    ok = True
    for workload, metrics in values.items():
        walls = metrics.pop("run_wall_s")
        print(f"\n{workload}: run wall median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        for m in spec["end_to_end"]:
            med, q1, q3, sp = spread(metrics[m["name"]])
            steady = m["name"] == "setup_s" or sp < m["bound"] / 3
            line = (f"  {m['name']:<22} median {med:<10.5g} Q1 {q1:<10.5g} Q3 {q3:<10.5g} "
                    f"spread {sp:.4f} (bound {m['bound']}) {'ok' if steady else 'UNSTEADY'}")
            ok &= steady
            if workload in before:
                old = statistics.median(before[workload][m["name"]])
                worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
                agree = worse <= m["bound"]
                ok &= agree
                line += f"; vs saved {worse:+.4f} {'ok' if agree else 'WORSE'}"
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
