import hashlib
import os
import re
import resource
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from _rand import record_digest

import turncue.scenario
from turncue.cli import cli
from turncue.config import GuidanceConfig
from turncue.configio import load_suite
from turncue.errors import ScriptError
from turncue.geometry import AngularRange
from turncue.lights import light_intensity, point_light_color, spot_cone_angle
from turncue.metrics import extract_metrics, metrics_to_csv
from turncue.scenario import run_suite
from turncue.trace import read_trace, write_trace

REPO = Path(__file__).resolve().parents[1]

SCRIPT_CFG = """
[scenario]
role = listener
method = light_audio
topic = 2

[agent]
latency_jitter = 0
"""


@pytest.fixture
def script_file(tmp_path):
    p = tmp_path / "script.cfg"
    p.write_text(SCRIPT_CFG)
    return p


def test_eval_env_sweep(capsys):
    assert cli(["eval", "--channel", "env", "--theta-max", "90", "--steps", "10"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "theta,intensity"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 11
    assert float(rows[0][1]) == 0.5
    assert float(rows[-1][1]) == 1.1
    values = [float(r[1]) for r in rows]
    assert values == sorted(values)


@pytest.mark.parametrize("channel,columns", [("point", 4), ("spot", 3), ("sound", 4)])
def test_eval_other_channels(capsys, channel, columns):
    assert cli(["eval", "--channel", channel, "--theta-max", "90", "--steps", "6"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 8
    assert all(len(line.split(",")) == columns for line in lines)


@pytest.mark.parametrize("channel", ["env", "point", "spot"])
def test_eval_rows_match_library(capsys, channel):
    cfg, rng, gamma = GuidanceConfig(), AngularRange(10.0, 130.0), 1.7

    def values(th):
        if channel == "env":
            return (light_intensity(th, rng, cfg.env_levels, gamma),)
        if channel == "point":
            return point_light_color(th, rng, cfg.warm, cfg.cold, gamma).to_tuple()
        return (light_intensity(th, rng, cfg.spot_levels, gamma),
                spot_cone_angle(th, rng, cfg.spot_geometry, gamma))

    assert cli(["eval", "--channel", channel, "--theta-min", "10", "--theta-max", "130",
                "--gamma", "1.7", "--steps", "12"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    thetas = [10.0 + i * 120.0 / 12 for i in range(13)]
    assert rows == [",".join(format(v, ".9g") for v in (th, *values(th))) for th in thetas]


def test_eval_monotone_spot(capsys):
    cli(["eval", "--channel", "spot", "--theta-max", "120", "--gamma", "2", "--steps", "24"])
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    cones = [float(line.split(",")[2]) for line in lines]
    assert cones == sorted(cones)


def test_unknown_subcommand_exits_one(capsys):
    assert cli(["frobnicate"]) == 1


def test_missing_required_flag_exits_one(capsys):
    assert cli(["eval", "--channel", "env"]) == 1


def test_validation_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[lights]\ngamma_env = -2\n")
    assert cli(["eval", "--channel", "env", "--theta-max", "90", "--config", str(bad)]) == 1
    assert "> 0" in capsys.readouterr().err



@pytest.mark.parametrize("section,body", [
    ("agent", "head_speed = 5"),
    ("scenario", "role = listener"),
    ("plan", "participants = 2"),
])
def test_eval_config_with_an_unread_section_exits_one_naming_it(tmp_path, capsys, section, body):
    cfg = tmp_path / "f.cfg"
    cfg.write_text(f"[lights]\ngamma_env = 2\n[{section}]\n{body}\n")
    assert cli(["eval", "--channel", "env", "--theta-max", "90", "--config", str(cfg)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and f"not [{section}]" in out.err


def test_eval_reads_the_guidance_sections_of_a_config(tmp_path, capsys):
    cfg = tmp_path / "f.cfg"
    cfg.write_text("[lights]\nenv_min = 0.2\n[audio]\nsubtlety = 0.5\n[session]\nmiss_timeout = 3\n")
    assert cli(["eval", "--channel", "env", "--theta-max", "90", "--steps", "2", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "0,0.2"

def test_missing_file_exits_two(capsys):
    assert cli(["simulate", "--script", "/nonexistent/x.cfg"]) == 2
    assert "x.cfg" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args,data,reason",
    [
        (["metrics", "{good}", "{bad}"], b"\xff\xfe", "invalid start byte at byte 0"),
        (["suite", "--plan", "{bad}"], b"\xff\xfe", "invalid start byte at byte 0"),
        (["simulate", "--script", "{bad}"], b"\xff\xfe", "invalid start byte at byte 0"),
        (["eval", "--channel", "env", "--theta-max", "90", "--config", "{bad}"], b"\xff\xfe",
         "invalid start byte at byte 0"),
        (["simulate", "--script", "{bad}"], b"[scenario]\nrole = listener\n# caf\xe9\n",
         "invalid continuation byte at byte 32"),
    ],
    ids=["metrics", "suite", "simulate", "eval", "simulate-bad-byte-after-text"],
)
def test_input_that_is_not_utf8_exits_one_naming_the_file(script_file, tmp_path, capsys, args, data, reason):
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    assert cli(["simulate", "--script", str(script_file), "--dt", "0.05", "--out", str(good)]) == 0
    bad.write_bytes(data)
    capsys.readouterr()
    assert cli([a.format(good=good, bad=bad) for a in args]) == 1
    assert capsys.readouterr() == ("", f"error: {bad}: not UTF-8 ({reason})\n")


def test_simulate_deterministic_files(script_file, tmp_path, capsys):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    assert cli(["simulate", "--script", str(script_file), "--seed", "7", "--dt", "0.05", "--out", str(out1)]) == 0
    assert cli(["simulate", "--script", str(script_file), "--seed", "7", "--dt", "0.05", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_stdout_parses(script_file, capsys):
    assert cli(["simulate", "--script", str(script_file), "--seed", "1", "--dt", "0.05"]) == 0
    out = capsys.readouterr().out
    trace = read_trace(out)
    assert trace.meta is not None
    assert trace.meta.method == "light_audio"
    assert len(trace.records) > 100


def test_metrics_subcommand_matches_library(script_file, tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    cli(["simulate", "--script", str(script_file), "--seed", "3", "--dt", "0.05", "--out", str(out)])
    capsys.readouterr()
    assert cli(["metrics", str(out)]) == 0
    got = capsys.readouterr().out
    expect = metrics_to_csv(extract_metrics([read_trace(out.read_text())]))
    assert got == expect


def test_suite_writes_eight_traces_and_summary(tmp_path, capsys):
    plan = tmp_path / "plan.cfg"
    plan.write_text("[plan]\nparticipants = 1\n")
    out_dir = tmp_path / "traces"
    code = cli([
        "suite", "--plan", str(plan), "--seed", "5", "--dt", "0.05",
        "--out-dir", str(out_dir),
    ])
    assert code == 0
    files = sorted(out_dir.glob("*.jsonl"))
    assert len(files) == 8
    summary = capsys.readouterr().out
    assert summary.startswith("method,view,role,n,")
    traces = [read_trace(f.read_text()) for f in files]
    assert metrics_to_csv(extract_metrics(traces)) == summary


def test_suite_participants_flag_overrides(tmp_path, capsys):
    plan = tmp_path / "plan.cfg"
    plan.write_text("[plan]\nparticipants = 3\n")
    out_dir = tmp_path / "traces"
    assert cli([
        "suite", "--plan", str(plan), "--participants", "0", "--seed", "5",
        "--dt", "0.05", "--out-dir", str(out_dir),
    ]) == 0
    assert list(out_dir.glob("*.jsonl")) == []


def test_suite_with_zero_subtlety_runs(tmp_path, capsys):
    # subtlety 0 turns the duck off; it must not fail on the first signal
    plan = tmp_path / "plan.cfg"
    plan.write_text("[plan]\nparticipants = 1\n\n[audio]\nsubtlety = 0\n")
    assert cli(["suite", "--plan", str(plan), "--dt", "0.05"]) == 0
    assert capsys.readouterr().out.startswith("method,view,role,n,")


def test_reference_suite_matches_pinned_digests(tmp_path, capsys):
    # The reference run pinned in ROADMAP.md: any change to the read-back
    # records or to the summary CSV is a change of behaviour; the file bytes
    # move with the trace format as well.
    out_dir = tmp_path / "traces"
    assert cli([
        "suite", "--plan", str(REPO / "configs" / "study.cfg"), "--participants", "1",
        "--seed", "7", "--out-dir", str(out_dir),
    ]) == 0
    csv = capsys.readouterr().out
    files = sorted(out_dir.iterdir())
    assert hashlib.sha256(b"".join(f.read_bytes() for f in files)).hexdigest() == (
        "0d173dcfc35122bb817d6ed452f6b75ea8b575989b6c299230471924b9ffdd2f"
    )
    assert record_digest(read_trace(f.read_text()) for f in files) == (
        "1cc6046d229a1b9debf701dcbe0ec45edc91e3eec62747395a82b57e6c696578"
    )
    assert hashlib.md5(csv.encode()).hexdigest() == "17c59b2a0edc53cdb35cbeddd4efc2ef"


def test_reference_suite_does_not_depend_on_the_hash_seed(tmp_path):
    # Identical inputs give byte-identical files, whatever order sets and
    # dicts of strings iterate in.
    runs = []
    for hash_seed in ("0", "1"):
        out_dir = tmp_path / hash_seed
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([
            sys.executable, "-m", "turncue.cli", "suite", "--plan", str(REPO / "configs" / "study.cfg"),
            "--participants", "1", "--seed", "7", "--out-dir", str(out_dir),
        ], env=env, capture_output=True, timeout=300)
        assert done.returncode == 0, done.stderr
        files = sorted(out_dir.iterdir())
        runs.append(([f.name for f in files], [f.read_bytes() for f in files], done.stdout))
    assert runs[0] == runs[1]
    names, contents, csv = runs[0]
    assert len(names) == 8
    assert hashlib.sha256(b"".join(contents)).hexdigest() == (
        "0d173dcfc35122bb817d6ed452f6b75ea8b575989b6c299230471924b9ffdd2f"
    )
    assert hashlib.md5(csv).hexdigest() == "17c59b2a0edc53cdb35cbeddd4efc2ef"


def test_suite_with_a_repeat_count_beyond_the_float_range_exits_one_without_a_traceback(tmp_path):
    # The study plan with a 401-digit chime_max_repeats: the config is rejected
    # where it enters, in one short line, and no trial starts.
    cfg = tmp_path / "study.cfg"
    cfg.write_text((REPO / "configs" / "study.cfg").read_text()
                   + "\n[audio]\nchime_repeat_interval = 0.7\nchime_max_repeats = 1" + "0" * 400 + "\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "turncue.cli", "suite", "--plan", str(cfg), "--participants", "1",
                           "--seed", "7", "--out-dir", str(tmp_path / "d")], env=env, capture_output=True, timeout=300)
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr == b"error: chime_max_repeats of about 10**400 is beyond the float range (about 1.8e+308)\n"
    assert not (tmp_path / "d").exists()


def test_simulate_with_a_chime_every_subnormal_second_exits_zero(tmp_path):
    # A hundred million repeats a float apart: a session keeps no chime list, so
    # the run ends as fast as with one chime. Its address space is capped at 1 GiB.
    cfg = tmp_path / "script.cfg"
    cfg.write_text((REPO / "configs" / "listener_light_audio.cfg").read_text()
                   + "\n[audio]\nchime_repeat_interval = 5e-324\nchime_max_repeats = 100000000\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "turncue.cli", "simulate", "--script", str(cfg),
                           "--out", str(tmp_path / "t.jsonl")], env=env, capture_output=True, timeout=60,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)))
    assert done.returncode == 0, done.stderr
    assert any(rec.chime for rec in read_trace((tmp_path / "t.jsonl").read_text()).records)


def _trace_name(i, trace):
    meta = trace.meta
    return f"trace_p{meta.participant:03d}_{i % 8:02d}_{meta.method}_{meta.role}.jsonl"


class _Records(list):
    """A trace's records in a list that takes weak references, as no tuple, Trace included, does."""


def test_suite_writes_each_trace_before_the_next_trial_runs(tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "traces"
    run_scenario = turncue.scenario.run_scenario
    made = []  # a weak reference to the records of each trace the suite has made

    def watched(*args, **kwargs):
        assert len(list(out_dir.glob("*.jsonl"))) == len(made)
        # Only the trial about to run is alive: the last trace was written and dropped.
        assert all(ref() is None for ref in made)
        trace = run_scenario(*args, **kwargs)
        records = _Records(trace.records)
        made.append(weakref.ref(records))
        return trace._replace(records=records)

    monkeypatch.setattr(turncue.scenario, "run_scenario", watched)
    assert cli([
        "suite", "--plan", str(REPO / "configs" / "study.cfg"), "--participants", "1",
        "--seed", "5", "--dt", "0.05", "--out-dir", str(out_dir),
    ]) == 0
    assert len(made) == 8 and len(list(out_dir.glob("*.jsonl"))) == 8


def test_suite_trial_failing_keeps_the_earlier_files_and_exits_one(tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "traces"
    run_scenario = turncue.scenario.run_scenario
    traces = []

    def failing_at_trial_3(*args, **kwargs):
        if len(traces) == 3:
            raise ScriptError("trial 3 failed")
        traces.append(run_scenario(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(turncue.scenario, "run_scenario", failing_at_trial_3)
    assert cli([
        "suite", "--plan", str(REPO / "configs" / "study.cfg"), "--participants", "1",
        "--seed", "5", "--dt", "0.05", "--out-dir", str(out_dir),
    ]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: trial 3 failed\n"
    assert {f.name: f.read_text() for f in out_dir.iterdir()} == {
        _trace_name(i, t): write_trace(t.records, t.meta) for i, t in enumerate(traces)
    }


def test_suite_jobs_zero_exits_one_before_making_the_out_dir(tmp_path, capsys):
    out_dir = tmp_path / "traces"
    assert cli(["suite", "--plan", str(REPO / "configs" / "study.cfg"), "--jobs", "0", "--out-dir", str(out_dir)]) == 1
    assert "jobs=0 must be >= 1" in capsys.readouterr().err
    assert not out_dir.exists()


def test_suite_streamed_files_and_csv_equal_run_suite_over_four_participants(tmp_path, capsys):
    out_dir = tmp_path / "traces"
    assert cli([
        "suite", "--plan", str(REPO / "configs" / "study.cfg"), "--participants", "4",
        "--seed", "7", "--dt", "0.05", "--out-dir", str(out_dir),
    ]) == 0
    plan, agent, config = load_suite((REPO / "configs" / "study.cfg").read_text())
    result = run_suite(plan._replace(participants=4), agent, config, dt=0.05, seed=7)
    assert len(result.traces) == 32
    assert {f.name: f.read_bytes() for f in out_dir.iterdir()} == {
        _trace_name(i, t): write_trace(t.records, t.meta).encode() for i, t in enumerate(result.traces)
    }
    assert capsys.readouterr().out == metrics_to_csv(result.summary)


SIX_SEATS = "seats = 0,1,0 | 0,1,2 | 2,1,0 | -2,1,0 | 0,1,-2 | 1,1,1\n"


@pytest.mark.parametrize(
    "args,config,named",
    [
        (["suite", "--plan", "{cfg}"], "[plan]\n[session]\nack_threshold = nan\n", "ack_threshold"),
        (["suite", "--plan", "{cfg}"], "[plan]\n[session]\nmiss_timeout = inf\n", "miss_timeout"),
        (["suite", "--plan", "{cfg}"], "[plan]\n[agent]\nhead_speed = nan\n", "head_speed"),
        (["simulate", "--script", "{cfg}"], "[scenario]\nuser_seat = 9\n", "user_seat"),
        (["eval", "--channel", "env", "--theta-max", "90", "--gamma", "nan"], None, "gamma"),
        (["eval", "--channel", "sound", "--theta-max", "90", "--gamma", "nan"], None, "--gamma"),
        (["eval", "--channel", "spot", "--theta-max", "90", "--gamma", "inf"], None, "--gamma=inf must be finite and > 0"),
        (["eval", "--channel", "point", "--theta-max", "90", "--gamma", "0"], None, "--gamma=0.0 must be finite and > 0"),
        (["eval", "--channel", "env", "--theta-max", "90", "--gamma", "-1"], None, "--gamma=-1.0 must be finite and > 0"),
        (["suite", "--plan", "{cfg}", "--jobs", "0"], "[plan]\n", "jobs"),
        (["suite", "--plan", "{cfg}", "--participants", "-2"], "[plan]\n", "participants"),
        (["simulate", "--script", "{cfg}", "--participant", "-4"], "[scenario]\n", "participant=-4"),
        (["simulate", "--script", "{cfg}", "--dt", "1e-9"], "[scenario]\nrole = listener\n",
         "dt=1e-09, turn durations (10, 10, 12) s, signal_offset=5.0 and miss_timeout=5.0 allow 6.8e+10 ticks, "
         "over 1000000"),
        (["simulate", "--script", "{cfg}"], "[scenario]\nturns = a1:10 | a2:1e300\n",
         "dt=0.013888888888888888, turn durations (10, 1e+300) s, signal_offset=5.0 and miss_timeout=5.0 allow 7.2e+301 ticks, "
         "over 1000000"),
        (["simulate", "--script", "{cfg}"], "[scenario]\nmethod = light\n[session]\ntheta_min = 179.5\n",
         "theta_min=179.5 must lie in [0, 179]"),
        (["suite", "--plan", "{cfg}"], "[plan]\nseat_radius = -1.2\n", "seat_radius=-1.2 must be finite and > 0"),
        (["suite", "--plan", "{cfg}"], "[plan]\nseat_radius = 0\n", "seat_radius=0.0 must be finite and > 0"),
        (["simulate", "--script", "{cfg}"], "[scenario]\nseat_radius = -1\n",
         "seat_radius=-1.0 must be finite and > 0"),
        # A section or key that would be parsed and then dropped.
        (["suite", "--plan", "{cfg}"], "[plan]\n[scenario]\nrole = speaker\n",
         "[agent], [lights], [audio] and [session], not [scenario]"),
        (["simulate", "--script", "{cfg}"], "[scenario]\n[plan]\nparticipants = 2\n",
         "[agent], [lights], [audio] and [session], not [plan]"),
        (["simulate", "--script", "{cfg}"], (REPO / "configs" / "study.cfg").read_text(), "not [plan]"),
        (["suite", "--plan", "{cfg}"], (REPO / "configs" / "listener_light_audio.cfg").read_text(),
         "not [scenario]"),
        (["simulate", "--script", "{cfg}"], f"[scenario]\n{SIX_SEATS}seat_radius = 5\n",
         "[scenario] seat_radius has no effect when seats is set"),
        (["simulate", "--script", "{cfg}"], f"[scenario]\n{SIX_SEATS}eye_height = 3\n",
         "[scenario] eye_height has no effect when seats is set"),
        # The tick bound names every input it adds up, and a seat offset must have a finite norm.
        (["suite", "--plan", "{cfg}"], "[plan]\n[session]\nmiss_timeout = 100000\n",
         "dt=0.013888888888888888, turn durations (8, 12, 8, 12, 10) s, signal_offset=5.0 and miss_timeout=100000.0 "
         "allow 3.6e+07 ticks, over 1000000"),
        (["suite", "--plan", "{cfg}"], "[plan]\nseat_radius = 1e200\n",
         "seat_radius=1e+200 is too large: the table width 2 * seat_radius has no finite norm"),
        (["simulate", "--script", "{cfg}"], "[scenario]\nseat_radius = 1e154\n", "seat_radius=1e+154 is too large"),
        (["simulate", "--script", "{cfg}"], f"[scenario]\n{SIX_SEATS.replace('1,1,1', '1e200,1,0')}",
         "seats[5]=(1e+200, 1.0, 0.0) is too far (offset norm inf) from the user's seat"),
        # A desk 0.25 below a huge eye height would round to eye level.
        (["suite", "--plan", "{cfg}"], "[plan]\neye_height = 1e300\n",
         "eye_height=1e+300 leaves the default desk no exact 0.25 drop below it"),
        (["simulate", "--script", "{cfg}"], "[scenario]\nrole = speaker\nmethod = text_icon\neye_height = 1e300\n",
         "eye_height=1e+300 leaves the default desk no exact 0.25 drop below it"),
    ],
    ids=["ack_threshold-nan", "miss_timeout-inf", "head_speed-nan", "user_seat-range", "gamma-nan",
         "gamma-sound", "gamma-inf", "gamma-zero", "gamma-negative", "jobs-0", "participants-negative", "participant-negative", "dt-tiny", "turn-huge",
         "theta_min-above-179", "plan-seat_radius-negative", "plan-seat_radius-zero",
         "scenario-seat_radius-negative", "plan-with-scenario", "scenario-with-plan",
         "study-cfg-to-simulate", "script-cfg-to-suite", "seats-with-seat_radius",
         "seats-with-eye_height", "miss_timeout-huge", "plan-seat_radius-huge", "scenario-seat_radius-huge",
         "seats-too-far", "plan-eye_height-huge", "scenario-eye_height-huge"],
)
def test_invalid_number_exits_one_naming_it(tmp_path, capsys, monkeypatch, args, config, named):
    # Each fails before the first tick: no builder of records is made.
    monkeypatch.setattr(turncue.scenario, "_Builder", None)
    cfg = tmp_path / "in.cfg"
    if config is not None:
        cfg.write_text(config)
    assert cli([a.replace("{cfg}", str(cfg)) for a in args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err


def test_theta_min_at_its_bound_still_runs(tmp_path, capsys):
    cfg = tmp_path / "in.cfg"
    cfg.write_text("[scenario]\nrole = listener\nmethod = light\n[session]\ntheta_min = 179\n")
    assert cli(["simulate", "--script", str(cfg), "--dt", "0.05"]) == 0
    assert '"state":"signaled"' in capsys.readouterr().out


@pytest.mark.parametrize(
    "pattern,repl",
    [
        (r'"env":[^,]*,', ""),
        (r'"t":[^,]*', '"t":"abc"'),
        (r'"pos":\[[^]]*\]', '"pos":[0,1]'),
        (r'"spot_active".*', ""),
        (r'"t":[^,]*', '"t":' + "1" * 400),
    ],
    ids=["missing-field", "non-numeric", "short-triple", "truncated", "int-overflow"],
)
def test_metrics_on_malformed_trace_exits_one_naming_the_line(script_file, tmp_path, capsys, pattern, repl):
    # The bad file comes second: the message names it as well as the line.
    good, out = tmp_path / "good.jsonl", tmp_path / "t.jsonl"
    for path in (good, out):
        assert cli(["simulate", "--script", str(script_file), "--dt", "0.05", "--out", str(path)]) == 0
    lines = out.read_text().splitlines()
    lines[1] = re.sub(pattern, repl, lines[1], count=1)
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli(["metrics", str(good), str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {out}: line 2: ")


@pytest.mark.parametrize("field", ["tick", "t", "env"])
@pytest.mark.parametrize("pad", ["", " "], ids=["as-written", "padded"])
def test_metrics_on_an_integer_longer_than_int_reads_exits_one_naming_the_line(script_file, tmp_path, capsys, field,
                                                                               pad):
    # On an unchanged tick's line, as written (tick or t) or past the short path.
    out = tmp_path / "t.jsonl"
    assert cli(["simulate", "--script", str(script_file), "--dt", "0.05", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    n = next(i for i, line in enumerate(lines) if re.fullmatch(r'\{"kind":"frame","tick":\d+,"t":[^,]+\}', line))
    huge = "9" * 5000
    if field == "env":
        lines[n] = lines[n][:-1] + f',"env":{huge}}}'
    else:
        lines[n] = re.sub(rf'"{field}":[^,}}]+', f'"{field}":{huge}', lines[n])
    out.write_text("".join(pad + line + "\n" for line in lines))
    capsys.readouterr()
    assert cli(["metrics", str(out)]) == 1
    limit = sys.get_int_max_str_digits()
    assert capsys.readouterr() == ("", f"error: {out}: line {n + 1}: an integer of more than {limit} digits\n")


def test_metrics_on_cut_trace_exits_one_naming_the_file(script_file, tmp_path, capsys):
    # The defect shows only when the sessions are scanned, after reading.
    good, cut = tmp_path / "good.jsonl", tmp_path / "cut.jsonl"
    for path in (good, cut):
        assert cli(["simulate", "--script", str(script_file), "--dt", "0.05", "--out", str(path)]) == 0
    lines = cut.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if '"state":"signaled"' in line)
    cut.write_text("\n".join(lines[:first + 3]) + "\n")
    signal_tick = first - 1  # line 1 is the meta line
    capsys.readouterr()
    assert cli(["metrics", str(good), str(cut)]) == 1
    assert capsys.readouterr().err == (
        f"error: {cut}: tick {signal_tick}: session signaled here is still open at end of trace\n"
    )


def test_metrics_on_misspelt_frame_role_exits_one_naming_the_line(script_file, tmp_path, capsys):
    # Delta frames carry the role on the signaled frame, which the reader
    # rejects, naming its line. The meta line keeps its role.
    out = tmp_path / "t.jsonl"
    assert cli(["simulate", "--script", str(script_file), "--dt", "0.05", "--out", str(out)]) == 0
    meta, frames = out.read_text().split("\n", 1)
    assert '"role":"listener"' in frames
    out.write_text(meta + "\n" + frames.replace('"role":"listener"', '"role":"lisener"'))
    lineno = 2 + frames.split('"role":"listener"', 1)[0].count("\n")
    capsys.readouterr()
    assert cli(["metrics", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {out}: line {lineno}: role='lisener' is not a valid Role | None\n")


def test_metrics_on_unknown_method_exits_one_naming_the_file(script_file, tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    assert cli(["simulate", "--script", str(script_file), "--dt", "0.05", "--out", str(out)]) == 0
    text = out.read_text()
    assert '"method":"light_audio"' in text
    out.write_text(text.replace('"method":"light_audio"', '"method":"lightaudio"'))
    capsys.readouterr()
    assert cli(["metrics", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {out}: line 1: method='lightaudio' is not a valid Method\n")


def test_metrics_on_unknown_meta_role_exits_one_naming_the_line(script_file, tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    assert cli(["simulate", "--script", str(script_file), "--dt", "0.05", "--out", str(out)]) == 0
    meta, frames = out.read_text().split("\n", 1)
    assert '"role":"listener"' in meta
    out.write_text(meta.replace('"role":"listener"', '"role":"lisener"') + "\n" + frames)
    capsys.readouterr()
    assert cli(["metrics", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {out}: line 1: role='lisener' is not a valid Role\n")


def test_metrics_on_deeply_nested_json_exits_one_naming_the_line(script_file, tmp_path, capsys):
    # Deeper than the JSON decoder recurses: an error naming the line, not a RecursionError.
    out = tmp_path / "t.jsonl"
    assert cli(["simulate", "--script", str(script_file), "--dt", "0.05", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    lines[2] = '{"kind":"frame","pos":' + "[" * 100_000 + "]" * 100_000 + "}"
    out.write_text("".join(line + "\n" for line in lines))
    capsys.readouterr()
    assert cli(["metrics", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {out}: line 3: a JSON value nested too deeply to read\n")


def test_metrics_on_a_huge_invalid_value_exits_one_with_a_short_message(script_file, tmp_path, capsys):
    # A pos of 200,000 zeros: the error names the line, the field and its kind, not the whole value.
    out = tmp_path / "t.jsonl"
    assert cli(["simulate", "--script", str(script_file), "--dt", "0.05", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    lines[2] = lines[2][:-1] + ',"pos":[' + ",".join(["0"] * 200_000) + "]}"
    out.write_text("".join(line + "\n" for line in lines))
    capsys.readouterr()
    assert cli(["metrics", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {out}: line 3: pos=[0, 0, 0, 0, 0, 0, ...] is not a valid Triple\n")
