"""Fast smoke test of the benchmark itself. Usage, from the repository root:
    python3 perfbench/smoke.py

1. Runs every workload at the tiny size with tracing off and on, and checks
   that the last stdout line is the JSON result with every metric named in
   BENCHMARK.json, with its unit and a finite value.
2. Checks the output gate at the reference point: it passes on the traces
   the CLI writes, still passes when the same records are rewritten in
   another JSON layout, and fails once one value in one trace is altered.
Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg: str) -> None:
    raise SystemExit(f"smoke: FAIL: {msg}")


def check_result(workload: str, trace: int, spec: dict) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        fail(f"{where}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != KEYS:
        fail(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{where}: correct={result['correct']} failed={result['failed']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        fail(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(wanted))}")
    for name, m in got.items():
        if m["unit"] != wanted[name]:
            fail(f"{where}: {name} has unit {m['unit']}, not {wanted[name]}")
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"{where}: {name} = {m['value']!r}")
    print(f"smoke: {where}: {len(got)} metrics ok")


def check_gate() -> None:
    sys.path.insert(0, str(HERE))
    import workloads as w
    from turncue import extract_metrics, metrics_to_csv, read_trace

    out = ROOT / ".perfbench_out" / "smoke"
    shutil.rmtree(out, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, "-m", "turncue.cli", "suite", "--plan", "configs/study.cfg",
         "--participants", "1", "--seed", str(w.REF_SEED), "--out-dir", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(w.SRC)),
    )
    if proc.returncode != 0:
        fail(f"reference suite exited {proc.returncode}\n{proc.stderr}")
    files = sorted(out.glob("*.jsonl"))

    def gate() -> list[str]:
        traces = [read_trace(f.read_text()) for f in files]
        return w.reference_errors(metrics_to_csv(extract_metrics(traces)), traces)

    if gate():
        fail(f"gate fails on the reference traces: {gate()}")
    # Same records, another layout: the file bytes change, the gate holds.
    lines = files[0].read_text().splitlines()
    files[0].write_text("".join(json.dumps(json.loads(x), indent=None, separators=(", ", ": ")) + "\n"
                                for x in lines))
    if w.file_digest(files) == w.REF_FILE_SHA256:
        fail("relayout left the file bytes unchanged")
    if gate():
        fail(f"gate fails after a layout-only change: {gate()}")
    # One head direction nudged on one quiet frame: the CSV is unchanged,
    # the record digest is not.
    frame = json.loads(lines[1])
    frame["head"][0] = frame["head"][0] + 1e-6
    files[0].write_text("\n".join([lines[0], json.dumps(frame)] + lines[2:]) + "\n")
    errors = gate()
    if errors != ["reference record digest differs from the pin"]:
        fail(f"gate did not catch an altered trace: {errors}")
    shutil.rmtree(out)
    print("smoke: gate passes on the reference, holds across a layout change, fails on an altered trace")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_result(workload, trace, spec)
    check_gate()
    print("smoke: ok")


if __name__ == "__main__":
    main()
