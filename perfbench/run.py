"""turncue benchmark: one workload, end to end (--trace 0) or per layer
(--trace 1).

Usage, from the repository root:
    python3 perfbench/run.py --workload study|dense|parallel [--seed N] \
        --seconds S --trace 0|1 [--tiny]

Each workload is a closed-loop, single-process batch job: one repetition
runs to completion before the next starts, and no more than two processes
run at a time. Human-readable lines come first; the last stdout line is the
JSON result {"correct", "attempted", "failed", "metrics"}. Time metrics
are wall times scaled by a reference loop timed around each step
(reference.py); the raw wall times are printed too. The exit code is
0 when every output check passed, 1 when one failed (the result is still
printed) and 2 when the checkout cannot be benchmarked (nothing printed).
The seed defaults to 7, the reference seed. --tiny runs a shortened
workload at 10 Hz for the smoke test only.
See perfbench/README.md for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("study", "dense", "parallel")
# Cold starts per run for setup_s; one more runs first to warm the
# bytecode cache and is not counted.
SETUP_PROBES = 15
TINY_SETUP_PROBES = 3
PROBE_GROUP = 5

E2E_UNITS = {
    "setup_s": "s",
    "suite_s": "s",
    "metrics_s": "s",
    "trace_bytes_per_tick": "B",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "scenario.us_per_tick": "us",
    "scenario.self_us_per_tick": "us",
    "scenario.cpu_per_wall": "ratio",
    "scenario.ticks": "count",
    "scenario.signaled_share": "ratio",
    "scenario.missed_share": "ratio",
    "session.tick_quiet_us": "us",
    "session.tick_signaled_us": "us",
    "session.begin_signal_us": "us",
    "session.replay_tag_drift": "count",
    "lights.point_light_state_us": "us",
    "lights.spotlight_state_us": "us",
    "lights.env_light_with_fade_us": "us",
    "audio.sound_source_position_us": "us",
    "baselines.sgd_state_us": "us",
    "baselines.text_icon_state_us": "us",
    "trace.record_build_us": "us",
    "trace.write_us_per_record": "us",
    "trace.read_us_per_record": "us",
    "metrics.extract_ms": "ms",
    "configio.load_ms": "ms",
    "runtime.gc_share": "ratio",
    "runtime.gc_gen2_collections": "count",
    "bench.tracing_overhead": "ratio",
    "bench.reference_s": "s",
}


class Unbenchmarkable(Exception):
    """The checkout lacks what the benchmark needs; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, stdout_path: Path | None = None) -> tuple[float, int, str, int]:
    """Run one child to completion: (wall s, exit code, stdout, peak RSS kB).

    Stdout goes to stdout_path when given (the child's output is then read
    from there), else through a pipe. os.wait4 reaps the child so its own
    peak RSS is known, not the maximum over every child so far.
    """
    sink = open(stdout_path, "w") if stdout_path else subprocess.PIPE
    t0 = time.perf_counter()
    try:
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=sink)
        text = ""
        if proc.stdout is not None:
            with proc.stdout:
                text = proc.stdout.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        if stdout_path:
            sink.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if stdout_path:
        text = stdout_path.read_text()
    return wall, proc.returncode, text, usage.ru_maxrss


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def measure_setup(workload: str, seed: int, tiny: bool) -> tuple[list[float], list[float]]:
    """(raw, scaled) seconds of each cold start; the reference loop runs
    before and after every group of PROBE_GROUP probes."""
    argv = [sys.executable, str(HERE / "probe.py"), workload, str(seed)] + (["tiny"] if tiny else [])

    def probe() -> float:
        _, code, text, _ = run_child(argv)
        if code != 0:
            raise RuntimeError(f"setup probe exited {code}")
        return float(text.strip().splitlines()[-1])

    probe()  # warms the bytecode cache
    raw, scaled = [], []
    left = TINY_SETUP_PROBES if tiny else SETUP_PROBES
    before = reference.seconds()
    while left:
        group = [probe() for _ in range(min(PROBE_GROUP, left))]
        after = reference.seconds()
        raw += group
        scaled += [v * reference.scale(before, after) for v in group]
        before, left = after, left - len(group)
    return raw, scaled


def run_worker(job: dict) -> dict:
    _, code, text, _ = run_child([sys.executable, str(HERE / "worker.py"), json.dumps(job)])
    if code != 0:
        raise RuntimeError(f"worker exited {code}")
    return last_json(text)


class Study:
    """The reference protocol through the CLI: `suite` to files, then
    `metrics` over them, each in a fresh interpreter."""

    def __init__(self, seed: int, out: Path, tiny: bool) -> None:
        import workloads as w

        self.w = w
        self.seed = seed
        self.out = out
        self.tiny = tiny
        _, _, _, trials = w.study_inputs(seed)
        self.trials = len(trials)
        self.handoffs = w.signal_handoffs(t.script for t in trials)
        self.attempted = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)

    def cli(self, *args) -> list[str]:
        extra = ["--dt", repr(self.w.TINY_DT)] if self.tiny and args[0] == "suite" else []
        return [sys.executable, "-m", "turncue.cli", *args, *extra]

    def suite(self, seed: int, directory: Path, participants: list[str] = ()):
        """One suite + metrics cycle with the reference loop before, between
        and after; returns (suite s, metrics s, the three reference times,
        kB, csv, files)."""
        shutil.rmtree(directory, ignore_errors=True)
        csv_path = directory.with_suffix(".csv")
        self.attempted += 3 * self.trials + 1
        ref0 = reference.seconds()
        suite_s, code, live, rss = run_child(
            self.cli("suite", "--plan", "configs/study.cfg", "--seed", str(seed),
                     "--out-dir", str(directory), "--jobs", "1", *participants), csv_path)
        self.check(code == 0, f"suite exited {code}")
        ref1 = reference.seconds()
        files = sorted(directory.glob("*.jsonl"))
        self.check(len(files) == self.trials, f"suite wrote {len(files)} of {self.trials} traces")
        metrics_s, code, again, rss2 = run_child(self.cli("metrics", *map(str, files)), csv_path)
        ref2 = reference.seconds()
        self.check(code == 0, f"metrics exited {code}")
        self.check(again == live, "live CSV differs from the re-read CSV")
        return suite_s, metrics_s, (ref0, ref1, ref2), max(rss, rss2), live, files

    def run(self, seconds: int) -> dict:
        w = self.w
        from turncue import read_trace

        deadline = time.perf_counter() + seconds
        suite_s, metrics_s, rss, digests = [], [], [], set()
        scaled = {"suite_s": [], "metrics_s": []}
        size = ticks = 0
        while True:
            s, m, (ref0, ref1, ref2), kb, live, files = self.suite(self.seed, self.out / "rep")
            suite_s.append(s)
            metrics_s.append(m)
            scaled["suite_s"].append(s * reference.scale(ref0, ref1))
            scaled["metrics_s"].append(m * reference.scale(ref1, ref2))
            rss.append(kb)
            self.check(w.csv_sessions(live) == self.handoffs,
                       "resolved sessions differ from signal-driven handoffs")
            digests.add(w.file_digest(files))
            if not size:
                size = sum(f.stat().st_size for f in files)
                # one meta line per file, one frame line per tick
                ticks = sum(f.read_bytes().count(b"\n") - 1 for f in files)
            if time.perf_counter() >= deadline:
                break
        self.check(len(digests) == 1, "repeated runs of one seed wrote different traces")

        if not self.tiny:
            _, _, _, _, live, files = self.suite(w.REF_SEED, self.out / "ref", ["--participants", "1"])
            traces = [read_trace(f.read_text()) for f in files]
            for error in w.reference_errors(live, traces):
                self.check(False, error)
            observed = w.file_digest(files)
            print(f"info: reference file-byte digest {observed} "
                  f"({'equals' if observed == w.REF_FILE_SHA256 else 'differs from'} the ROADMAP pin)")
        return {
            "reps": len(suite_s),
            "suite_s": suite_s,
            "metrics_s": metrics_s,
            "scaled": scaled,
            "peak_rss_kb": statistics.median(rss),
            "trace_bytes": size,
            "ticks": ticks,
            "attempted": self.attempted,
            "failed": len(self.errors),
            "errors": self.errors,
        }


def end_to_end(args, out: Path) -> tuple[dict, int, int]:
    setup, setup_scaled = measure_setup(args.workload, args.seed, args.tiny)
    if args.workload == "study":
        res = Study(args.seed, out, args.tiny).run(args.seconds)
    else:
        res = run_worker({"mode": "e2e", "workload": args.workload, "seed": args.seed,
                          "seconds": args.seconds, "tiny": args.tiny, "out": str(out)})
    for e in res["errors"]:
        print(f"check failed: {e}", file=sys.stderr)
    values = {
        "setup_s": statistics.median(setup_scaled),
        "suite_s": statistics.median(res["scaled"]["suite_s"]),
        "metrics_s": statistics.median(res["scaled"]["metrics_s"]),
        "trace_bytes_per_tick": res["trace_bytes"] / res["ticks"],
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
    }
    for name, raw in (("setup_s", setup), ("suite_s", res["suite_s"]), ("metrics_s", res["metrics_s"])):
        print(f"{name} raw wall median {statistics.median(raw):.4g} s; per sample: "
              + " ".join(f"{v:.4g}" for v in raw))
    print(f"{args.workload}: {res['reps']} repetitions, {len(setup)} cold starts, "
          f"failed_ratio {res['failed']}/{res['attempted']} operations")
    return values, res["attempted"], res["failed"]


def per_layer(args, out: Path) -> tuple[dict, int, int]:
    res = run_worker({"mode": "trace", "workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "tiny": args.tiny, "out": str(out)})
    for e in res["errors"]:
        print(f"check failed: {e}", file=sys.stderr)
    values = dict(res["values"])
    for name, (median, tail, pct, n) in res["timings"].items():
        values[name] = median
        values[name + ".tail"] = tail
        values[name + ".n"] = n
        print(f"{name}: median {median:.6g}, p{pct:g} {tail:.6g}, n={n}")
    print(f"spans written to {out / 'spans.jsonl'}; {res['passes']} traced passes")
    return values, res["attempted"], res["failed"]


def layer_units() -> dict:
    units = {}
    for name, unit in LAYER_UNITS.items():
        units[name] = unit
        if unit in ("us", "ms") and name != "scenario.self_us_per_tick":
            units[name + ".tail"] = unit
            units[name + ".n"] = "count"
    return units


def preflight() -> None:
    needed = [ROOT / "src" / "turncue" / "__init__.py", ROOT / "configs" / "study.cfg",
              ROOT / "configs" / "default.cfg"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise Unbenchmarkable(f"missing {', '.join(missing)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        preflight()
    except Unbenchmarkable as exc:
        print(f"cannot benchmark: {exc}", file=sys.stderr)
        return 2
    out = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if args.trace:
        values, attempted, failed = per_layer(args, out)
        units = layer_units()
    else:
        values, attempted, failed = end_to_end(args, out)
        units = E2E_UNITS
        for name, unit in units.items():
            print(f"{name}: {values[name]:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
