"""Command-line surface.

Subcommands: eval (sweep a cue channel over a theta grid to CSV), simulate
(script -> trace), suite (plan -> a trace file as each trial ends, one trial
in memory at a time, + metrics summary), metrics (traces -> summary).
Machine-readable output goes to stdout, diagnostics to stderr. Exit codes:
0 success, 1 validation failure, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Iterator

# Each _cmd_* imports the layers it runs, so that `metrics`, say, never loads the scenario.
from .errors import GuidanceError, TraceIntegrityError

_COLUMNS = {"env": "theta,intensity", "point": "theta,r,g,b", "spot": "theta,intensity,cone_angle", "sound": "theta,x,y,z"}


def _read(path: str) -> str:
    """The file's text; one that is not UTF-8 is an input error naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GuidanceError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


def _eval_rows(channel: str, rng: AngularRange, gamma: float, steps: int, config: GuidanceConfig) -> Iterator[str]:
    """The CSV header, then one row per theta, each made as it is taken."""
    from .audio import sound_source_position
    from .geometry import Vec3
    from .lights import light_intensity, point_light_color, spot_cone_angle
    from .trace import _SHOWN, format9

    if steps < 1:
        raise GuidanceError(f"steps={_SHOWN.repr(steps)} must be >= 1")
    f, u, t = format9, Vec3(0.0, 0.0, 0.0), Vec3(1.0, 0.0, 0.0)
    if channel == "env":
        def row(th: float) -> str:
            return f"{f(th)},{f(light_intensity(th, rng, config.env_levels, gamma))}"
    elif channel == "point":
        def row(th: float) -> str:
            c = point_light_color(th, rng, config.warm, config.cold, gamma)
            return f"{f(th)},{f(c.r)},{f(c.g)},{f(c.b)}"
    elif channel == "spot":
        def row(th: float) -> str:
            intensity = light_intensity(th, rng, config.spot_levels, gamma)
            return f"{f(th)},{f(intensity)},{f(spot_cone_angle(th, rng, config.spot_geometry, gamma))}"
    else:
        def row(th: float) -> str:
            p = sound_source_position(u, t, th, rng, config.sound_easing)
            return f"{f(th)},{f(p.x)},{f(p.y)},{f(p.z)}"
    yield _COLUMNS[channel]
    for i in range(steps + 1):
        yield row(rng.theta_min + i * (rng.theta_max - rng.theta_min) / steps)


def _cmd_eval(args) -> int:
    from .config import GuidanceConfig
    from .geometry import AngularRange

    config = GuidanceConfig()
    if args.config:
        from .configio import parse_config  # and with it the scenario that the other readers build
        config = parse_config(_read(args.config))
    if args.channel == "sound" and args.gamma is not None:
        raise GuidanceError("--gamma does not apply to the sound channel")
    if args.gamma is not None and not 0.0 < args.gamma < math.inf:  # the channels take gamma as checked
        raise GuidanceError(f"--gamma={args.gamma} must be finite and > 0")
    gamma = args.gamma if args.gamma is not None else {
        "env": config.gamma_env,
        "point": config.gamma_point,
        "spot": config.gamma_spot,
        "sound": 1.0,
    }[args.channel]
    rng = AngularRange(args.theta_min, args.theta_max)
    for row in _eval_rows(args.channel, rng, gamma, args.steps, config):
        print(row)
    return 0


def _cmd_simulate(args) -> int:
    from .configio import load_simulation
    from .scenario import run_scenario
    from .trace import write_trace

    script, agent, config = load_simulation(_read(args.script))
    trace = run_scenario(script, agent, config, dt=args.dt, seed=args.seed, participant=args.participant)
    text = write_trace(trace.records, trace.meta)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {len(trace.records)} ticks to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_suite(args) -> int:
    from .configio import load_suite
    from .metrics import extract_metrics, metrics_to_csv
    from .scenario import suite_traces
    from .trace import write_trace

    plan, agent, config = load_suite(_read(args.plan))
    if args.participants is not None:
        plan = plan._replace(participants=args.participants)
    traces = suite_traces(plan, agent, config, dt=args.dt, seed=args.seed, jobs=args.jobs)

    def write_each(out_dir):  # each file lands as its trial ends, before the next trial runs
        out_dir.mkdir(parents=True, exist_ok=True)
        written = 0
        for trace in traces:
            meta = trace.meta
            name = f"trace_p{meta.participant:03d}_{written % 8:02d}_{meta.method}_{meta.role}.jsonl"
            (out_dir / name).write_text(write_trace(trace.records, meta))
            written += 1
            yield trace
            del trace  # so that only the trial being run is alive
        print(f"wrote {written} traces to {args.out_dir}", file=sys.stderr)

    summary = extract_metrics(write_each(Path(args.out_dir)) if args.out_dir else traces)
    sys.stdout.write(metrics_to_csv(summary))
    return 0


def _cmd_metrics(args) -> int:
    from .metrics import extract_metrics, metrics_to_csv
    from .trace import read_trace

    path = None

    def traces():  # extract_metrics scans each trace before it takes the next
        nonlocal path
        for path in args.traces:
            yield read_trace(_read(path))

    try:
        sys.stdout.write(metrics_to_csv(extract_metrics(traces())))
    except TraceIntegrityError as exc:  # a defect in reading or scanning path
        raise TraceIntegrityError(f"{path}: {exc}") from None
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="turncue", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="sweep a cue channel over a theta grid, CSV to stdout")
    p_eval.add_argument("--channel", choices=_COLUMNS, required=True)
    p_eval.add_argument("--theta-max", type=float, required=True)
    p_eval.add_argument("--theta-min", type=float, default=0.0)
    p_eval.add_argument("--gamma", type=float, default=None)
    p_eval.add_argument("--steps", type=int, default=10)
    p_eval.add_argument("--config", default=None)
    p_eval.set_defaults(func=_cmd_eval)

    p_sim = sub.add_parser("simulate", help="run one scripted trial to a trace")
    p_sim.add_argument("--script", required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--dt", type=float, default=1.0 / 72.0)
    p_sim.add_argument("--participant", type=int, default=0)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_suite = sub.add_parser("suite", help="run a full study plan; summary CSV to stdout")
    p_suite.add_argument("--plan", required=True)
    p_suite.add_argument("--participants", type=int, default=None)
    p_suite.add_argument("--seed", type=int, default=0)
    p_suite.add_argument("--dt", type=float, default=1.0 / 72.0)
    p_suite.add_argument("--out-dir", default=None)
    p_suite.add_argument("--jobs", type=int, default=1, help="accepted (must be >= 1) but unused: trials run in order")
    p_suite.set_defaults(func=_cmd_suite)

    p_met = sub.add_parser("metrics", help="summarize trace files; CSV to stdout")
    p_met.add_argument("traces", nargs="+")
    p_met.set_defaults(func=_cmd_metrics)

    return parser


def cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; our contract reserves
        # 2 for I/O failures.
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except GuidanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        name = getattr(exc, "filename", None)
        where = f" ({name})" if name else ""
        print(f"i/o error{where}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
