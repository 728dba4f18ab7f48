"""In-process workload runs, one fresh interpreter per call.

Usage: python3 perfbench/worker.py '{"mode": "e2e"|"trace", "workload": ...,
"seed": N, "seconds": S, "tiny": false, "out": DIR}'

The last line of stdout is one JSON object with the measurements, the
operation tally and any failed checks. e2e mode times the dense and
parallel workloads with tracing off; trace mode runs any workload with
outside-in spans and then times each layer (see layers.py).
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

import reference
import workloads as w
from layers import GcWatch, Recorder, replay_kernel, summarize
from turncue import (
    extract_metrics,
    load_suite,
    metrics_to_csv,
    parse_config,
    read_trace,
    run_scenario,
    run_suite,
    write_trace,
)

PARALLEL_JOBS = 2
# Traced runs call extract_metrics this often on the same traces.
EXTRACT_CALLS = 10
CONFIG_LOADS = 50

# (metric, sample key, nanoseconds per metric unit) of the per-call timings.
LAYER_SAMPLES = (
    ("session.tick_quiet_us", "session.tick_quiet", 1e3),
    ("session.tick_signaled_us", "session.tick_signaled", 1e3),
    ("session.begin_signal_us", "session.begin_signal", 1e3),
    ("lights.point_light_state_us", "lights.point_light_state", 1e3),
    ("lights.spotlight_state_us", "lights.spotlight_state", 1e3),
    ("lights.env_light_with_fade_us", "lights.env_light_with_fade", 1e3),
    ("audio.sound_source_position_us", "audio.sound_source_position", 1e3),
    ("baselines.sgd_state_us", "baselines.sgd_state", 1e3),
    ("baselines.text_icon_state_us", "baselines.text_icon_state", 1e3),
    ("trace.record_build_us", "trace.record_build", 1e3),
    ("trace.write_us_per_record", "trace.write_per_record", 1e3),
    ("trace.read_us_per_record", "trace.read_per_record", 1e3),
    ("configio.load_ms", "configio.load", 1e6),
)
# What run_scenario calls below itself on every tick or signal.
BELOW_SCENARIO = (
    "session.tick_quiet", "session.tick_signaled", "session.begin_signal",
    "baselines.sgd_state", "baselines.text_icon_state", "trace.record_build",
)


class Tally:
    """Operations attempted and failed; a failure is an exception or a
    failed output check on the operation's result."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def ops(self, n: int) -> None:
        self.attempted += n

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            self.errors.append(what)


def simulate(workload, trial_inputs, plan_args, rec: Recorder | None = None):
    """The workload's simulate step; returns its traces. With a recorder,
    each run_scenario (or run_suite) call becomes a span whose trial id is
    the trial's index."""
    if workload == "parallel":
        plan, agent, config, dt, seed = plan_args
        if rec is None:
            return run_suite(plan, agent, config, dt, seed, jobs=PARALLEL_JOBS).traces
        with rec.span("scenario.run_suite", "all"):
            return run_suite(plan, agent, config, dt, seed, jobs=PARALLEL_JOBS).traces
    traces = []
    for i, ti in enumerate(trial_inputs):
        args = (ti.script, ti.agent, ti.config, ti.dt, ti.seed, ti.participant)
        if rec is None:
            traces.append(run_scenario(*args))
        else:
            with rec.span("scenario.run_scenario", i):
                traces.append(run_scenario(*args))
    return traces


def round_trip(traces, out: Path | None, tally: Tally, rec: Recorder | None = None):
    """Write every trace and read it back; returns (re-read traces, bytes)."""
    back, size = [], 0
    for i, tr in enumerate(traces):
        tally.ops(2)
        path = out / f"trace_{i:03d}.jsonl" if out else None
        t0 = time.perf_counter_ns()
        text = write_trace(tr.records, tr.meta)
        if path:
            path.write_text(text)
        t1 = time.perf_counter_ns()
        again = read_trace(path.read_text() if path else text)
        t2 = time.perf_counter_ns()
        if rec is not None:
            n = len(tr.records)
            rec.add("trace.write_per_record", (t1 - t0) / n)
            rec.add("trace.read_per_record", (t2 - t1) / n)
            rec.spans.append(("trace.write", i, t0, t1, None))
            rec.spans.append(("trace.read", i, t1, t2, None))
        size += len(text.encode())
        tally.check(again == tr, f"trace {i}: read-back differs from the live trace")
        back.append(again)
    return back, size


def check_summary(traces, scripts, live_csv: str, tally: Tally, out: Path | None, rec=None):
    """Live CSV equals the re-read CSV; every signal-driven handoff resolved."""
    back, size = round_trip(traces, out, tally, rec)
    tally.ops(1)
    tally.check(metrics_to_csv(extract_metrics(back)) == live_csv, "live CSV differs from the re-read CSV")
    tally.check(w.csv_sessions(live_csv) == w.signal_handoffs(scripts),
                "resolved sessions differ from signal-driven handoffs")
    return size


def _wall(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def inputs(workload, seed, rep, tiny):
    if workload == "dense":
        config, trials = w.dense_inputs(seed, rep, tiny)
        return trials, None
    dt = w.TINY_DT if tiny else w.DT
    plan, agent, config, trials = w.study_inputs(seed, dt)
    return trials, (plan, agent, config, dt, seed)


def e2e(job) -> dict:
    workload, seed, tiny = job["workload"], job["seed"], job["tiny"]
    tally = Tally()
    deadline = time.perf_counter() + job["seconds"]
    suite_s, metrics_s = [], []
    scaled = {"suite_s": [], "metrics_s": []}
    traces = trials = None
    rep = 0
    while True:
        traces = None  # never hold two repetitions at once
        trials, plan_args = inputs(workload, seed, rep, tiny)
        tally.ops(len(trials) + 1)
        ref0 = reference.seconds()
        t0 = time.perf_counter()
        traces = simulate(workload, trials, plan_args)
        suite_s.append(time.perf_counter() - t0)
        ref1 = reference.seconds()
        # One call per repetition, on fresh traces, as run_suite makes it.
        t0 = time.perf_counter()
        summary = extract_metrics(traces)
        metrics_s.append(time.perf_counter() - t0)
        ref2 = reference.seconds()
        scaled["suite_s"].append(suite_s[-1] * reference.scale(ref0, ref1))
        scaled["metrics_s"].append(metrics_s[-1] * reference.scale(ref1, ref2))
        live_csv = metrics_to_csv(summary)
        tally.check(w.csv_sessions(live_csv) == w.signal_handoffs(t.script for t in trials),
                    f"rep {rep}: resolved sessions differ from signal-driven handoffs")
        rep += 1
        if time.perf_counter() >= deadline:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    scripts = [t.script for t in trials]
    size = check_summary(traces, scripts, live_csv, tally, None)
    ticks = sum(len(t.records) for t in traces)
    if workload == "parallel":
        tally.ops(len(trials))
        plan, agent, config, dt, _ = plan_args
        serial = run_suite(plan, agent, config, dt, seed, jobs=1).traces
        tally.check(serial == tuple(traces), "jobs=2 traces differ from jobs=1")
        if not tiny:
            ref_trials, ref_args = inputs(workload, w.REF_SEED, 0, tiny)
            tally.ops(len(ref_trials) + 1)
            ref = run_suite(*ref_args[:4], w.REF_SEED, jobs=PARALLEL_JOBS)
            for error in w.reference_errors(metrics_to_csv(ref.summary), ref.traces):
                tally.check(False, error)
    return {
        "reps": rep,
        "suite_s": suite_s,
        "metrics_s": metrics_s,
        "scaled": scaled,
        "peak_rss_kb": peak_kb,
        "trace_bytes": size,
        "ticks": ticks,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
    }


def traced(job) -> dict:
    workload, seed, tiny = job["workload"], job["seed"], job["tiny"]
    out = Path(job["out"])
    tally = Tally()
    rec = Recorder()
    gcw = GcWatch()

    cfg_text = (w.DEFAULT_CFG if workload == "dense" else w.STUDY_CFG).read_text()
    load = parse_config if workload == "dense" else load_suite
    for _ in range(CONFIG_LOADS):
        t0 = time.perf_counter_ns()
        load(cfg_text)
        rec.add("configio.load", time.perf_counter_ns() - t0)

    deadline = time.perf_counter() + job["seconds"]
    plain, timed, cpu, gen2, gc_share, us_per_tick, refs = [], [], [], [], [], [], []
    traces = trials = None
    passes = 0
    while True:
        traces = None
        # Every pass runs the same inputs, so the exact counts below depend
        # on the seed only, not on how many passes fit in the run.
        trials, plan_args = inputs(workload, seed, 0, tiny)
        if passes % 2:  # alternate which of the two passes runs first
            plain.append(_wall(simulate, workload, trials, plan_args))

        tally.ops(2 * len(trials))  # the plain and the traced pass
        refs.append(reference.seconds())
        pause0, gen2_0, first_span = gcw.pause_ns, gcw.gen2, len(rec.spans)
        c0, t0 = time.process_time(), time.perf_counter()
        with gcw.watching(), rec.span("simulate", "all"):
            traces = simulate(workload, trials, plan_args, rec)
        wall = time.perf_counter() - t0
        cpu.append((time.process_time() - c0) / wall)
        timed.append(wall)
        if not passes % 2:
            plain.append(_wall(simulate, workload, trials, plan_args))
        gen2.append(gcw.gen2 - gen2_0)
        gc_share.append((gcw.pause_ns - pause0) / 1e9 / wall)
        ticks = [len(t.records) for t in traces]
        if workload == "parallel":
            us_per_tick.append(wall * 1e6 / sum(ticks))
        else:
            spans = [s for s in rec.spans[first_span:] if s[0] == "scenario.run_scenario"]
            us_per_tick.extend((s[3] - s[2]) / 1e3 / n for s, n in zip(spans, ticks))
        passes += 1
        if time.perf_counter() >= deadline:
            break

    summary = None
    for _ in range(EXTRACT_CALLS):
        with rec.span("metrics.extract_metrics", "all"):
            summary = extract_metrics(traces)
    check_summary(traces, [t.script for t in trials], metrics_to_csv(summary), tally, out, rec)

    drift = 0
    for i, (ti, tr) in enumerate(zip(trials, traces)):
        with rec.span("kernel.replay", i):
            drift += replay_kernel(ti, tr, rec)
    rec.write(out / "spans.jsonl")

    samples = {"scenario.us_per_tick": us_per_tick,
               "metrics.extract_ms": [d / 1e6 for d in rec.durations("metrics.extract_metrics")]}
    for metric, key, per_ns in LAYER_SAMPLES:
        samples[metric] = [v / per_ns for v in rec.samples[key]]

    # Per-tick cost of what run_scenario calls below itself, from the replay.
    replay_ticks = len(rec.samples["session.tick_quiet"]) + len(rec.samples["session.tick_signaled"])
    below_us = sum(sum(rec.samples[k]) for k in BELOW_SCENARIO) / 1e3 / replay_ticks
    total_ticks = sum(ticks)
    signaled = sum(r.state == "signaled" for t in traces for r in t.records)
    sessions = sum(c.n for c in summary.cells.values())
    missed = sum(c.missed for c in summary.cells.values())
    return {
        "timings": {k: summarize(v) for k, v in samples.items()},
        "values": {
            "scenario.self_us_per_tick": statistics.median(us_per_tick) - below_us,
            "scenario.cpu_per_wall": statistics.median(cpu),
            "scenario.ticks": total_ticks,
            "scenario.signaled_share": signaled / total_ticks,
            "scenario.missed_share": missed / sessions,
            "session.replay_tag_drift": drift,
            "runtime.gc_share": statistics.median(gc_share),
            "runtime.gc_gen2_collections": statistics.median(gen2),
            "bench.tracing_overhead": statistics.median(timed) / statistics.median(plain),
            "bench.reference_s": statistics.median(refs),
        },
        "passes": passes,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
    }


def main() -> None:
    job = json.loads(sys.argv[1])
    result = e2e(job) if job["mode"] == "e2e" else traced(job)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
