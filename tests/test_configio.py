import math
import re
from pathlib import Path

import pytest

from _rand import make_meta, make_record
from turncue.audio import Role, sound_source_position
from turncue.cli import _eval_rows
from turncue.config import GuidanceConfig
from turncue.configio import _SCHEMA, load_simulation, load_suite, parse_config
from turncue.errors import ConfigError, GuidanceError, ScriptError, TraceIntegrityError
from turncue.geometry import AngularRange, Pose, Vec3
from turncue.lights import LightLevels
from turncue.metrics import extract_metrics
from turncue.scenario import (
    GazeAgentModel,
    Method,
    ScenarioScript,
    StudyPlan,
    Turn,
    default_desk_anchor,
    default_script,
    hexagon_seats,
    randomize_presentation,
    run_scenario,
    run_suite,
    suite_traces,
)
from turncue.session import IDLE, tick
from turncue.trace import Trace, read_trace, write_trace

REPO = Path(__file__).resolve().parents[1]
AHEAD = Vec3(0.0, 0.0, 1.0)


def test_shipped_default_config_matches_defaults():
    cfg = parse_config((REPO / "configs" / "default.cfg").read_text())
    assert isinstance(cfg, GuidanceConfig)
    assert cfg == GuidanceConfig()


def test_empty_file_is_all_defaults():
    assert parse_config("") == GuidanceConfig()


def test_negative_gamma_cites_constraint():
    with pytest.raises(ConfigError, match="> 0"):
        parse_config("[lights]\ngamma_env = -1\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key 'gama_env'"):
        parse_config("[lights]\ngama_env = 1\n")


@pytest.mark.parametrize(
    "text", ["[agent]\ngaze_speed = 240\n", "[plan]\ntopics = 8\n"], ids=["gaze_speed", "topics"]
)
def test_removed_keys_rejected(text):
    with pytest.raises(ConfigError, match="unknown key"):
        load_suite(text)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"^unknown section 'lighting'$"):
        parse_config("[lighting]\nenv_min = 0.5\n")


def test_syntax_error_carries_line_number():
    # The line's number, what is wrong with it, and the line itself, cut short as any shown value is.
    for text, message in (
        ("[lights]\nthis is not a key value pair\n", "line 2, not a [section] or key = value: "
                                                     "'this is not a key value pair'"),
        ("env_min = 0.5\n[lights]\n", "line 1, before any [section]: 'env_min = 0.5'"),
        ("[lights]\nenv_min = 0.5\n\n[audio]\n[lights]\n", "line 5, a repeated section: '[lights]'"),
        ("[lights]\nenv_min = 0.5\r\nenv_min = 0.6\r\n", "line 3, a repeated key: 'env_min = 0.6\\r'"),
    ):
        with pytest.raises(ConfigError) as caught:
            parse_config(text)
        assert str(caught.value) == "config syntax error: " + message


def test_range_violation_names_field():
    with pytest.raises(ConfigError, match="env_min"):
        parse_config("[lights]\nenv_min = 2.0\nenv_max = 1.0\n")


@pytest.mark.parametrize(
    "line,message",
    [
        ("env_min = 2", "[lights] env_min/env_max: light levels require 0 <= l_min < l_max < inf, got [2.0, 1.1]"),
        ("spot_max = 0.5", "[lights] spot_min/spot_max: light levels require 0 <= l_min < l_max < inf, got [0.8, 0.5]"),
        ("warm = 2, 0, 0", "[lights] warm: color channel r=2.0 must lie in [0, 1]"),
        ("cold = 1, -0.5, 1", "[lights] cold: color channel g=-0.5 must lie in [0, 1]"),
        ("cone_min = 70", "[lights] cone_min/cone_max: spotlight cone requires 0 < a_min < a_max <= 180, got [70.0, 60.0]"),
    ],
    ids=["env", "spot", "warm", "cold", "cone"],
)
def test_light_range_error_names_its_key(line, message):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(f"[lights]\n{line}\n")
    assert str(excinfo.value) == message


def test_partial_override_keeps_other_defaults():
    cfg = parse_config("[session]\nack_threshold = 5\n")
    assert cfg.ack_threshold == 5.0
    assert cfg.miss_timeout == 5.0
    assert cfg.env_levels.l_max == 1.1


def test_scenario_file_parses_to_script():
    script, _, _ = load_simulation((REPO / "configs" / "listener_light_audio.cfg").read_text())
    assert isinstance(script, ScenarioScript)
    assert script.role is Role.LISTENER
    assert script.method is Method.LIGHT_AUDIO
    assert script.topic == 4
    assert script.names == ("Alex", "Blair", "Casey", "Drew", "Emery")
    assert len(script.seats) == 6
    assert script.signal_offset == 5.0


def test_scenario_custom_turns_and_seats():
    text = """
[scenario]
role = speaker
method = sgd
user_seat = 0
seats = 0,1,0 | 0,1,2 | 2,1,0 | -2,1,0 | 0,1,-2 | 1,1,1
turns = a1:10 | user:12 | a2:8
desk_anchor = 0.4, 0.8, 0
signal_offset = 4
"""
    script, _, _ = load_simulation(text)
    assert [t.speaker for t in script.turn_order] == ["a1", "user", "a2"]
    assert script.turn_order[1].duration == 12.0
    assert script.seats[2].x == 2.0
    assert script.signal_offset == 4.0
    assert script.desk_anchor.y == 0.8


def test_bad_turn_entry():
    with pytest.raises(ConfigError, match="speaker:duration"):
        load_simulation("[scenario]\nturns = a1 10\n")


def test_script_validated_at_parse_time():
    with pytest.raises(ScriptError, match=r"^turn references unknown speaker id 'a9'$"):
        load_simulation("[scenario]\nturns = a9:5\n")
    with pytest.raises(ConfigError, match="seats"):
        load_simulation("[scenario]\nseats = 0,1,0 | 0,1,2\n")


def test_seats_override_leaves_the_desk_default_to_the_run():
    script, _, _ = load_simulation("[scenario]\nuser_seat = 2\nseats = 0,1,0 | 0,1,2 | 2,1,0 | -2,1,0 | 0,1,-2 | 1,1,1\n")
    assert script.desk_anchor is None
    meta = run_scenario(script, GazeAgentModel(), GuidanceConfig(), dt=0.1).meta
    assert meta.desk_anchor == pytest.approx(default_desk_anchor(script.seats, 2))


def test_plan_file_parses():
    plan, _, _ = load_suite((REPO / "configs" / "study.cfg").read_text())
    assert isinstance(plan, StudyPlan)
    assert plan.participants == 1


def test_plan_and_scenario_conflict():
    # Each entry point would drop one of the two sections; it names the first it does not read.
    for load, unread in ((parse_config, "plan"), (load_simulation, "plan"), (load_suite, "scenario")):
        with pytest.raises(ConfigError, match=rf"^this file may hold \[.*, not \[{unread}\]$"):
            load("[plan]\nparticipants = 1\n[scenario]\nrole = listener\n")


def test_guidance_config_rejects_the_sections_it_does_not_read():
    with pytest.raises(ConfigError, match=r"^this file may hold \[lights\], \[audio\] and \[session\], not \[scenario\]$"):
        parse_config("[scenario]\nrole = listener\n[agent]\nhead_speed = 5\n[session]\nmiss_timeout = 1\n")


def test_load_simulation_returns_triple():
    script, agent, cfg = load_simulation((REPO / "configs" / "listener_light_audio.cfg").read_text())
    assert isinstance(script, ScenarioScript)
    assert agent.head_speed == 120.0
    assert agent.latency_jitter == 0.05
    assert cfg == GuidanceConfig()


def test_agent_latency_overrides():
    text = """
[scenario]
role = listener

[agent]
latency_in = 0.4
latency_text_icon_out = 1.2
"""
    _, agent, _ = load_simulation(text)
    assert agent.latency_for(Method.TEXT_ICON, in_view=False) == (1.2, 0.05)
    assert agent.latency_for(Method.TEXT_ICON, in_view=True) == (0.4, 0.05)
    assert agent.latency_for(Method.LIGHT, in_view=False) == (0.6, 0.05)


def test_load_suite_returns_triple():
    plan, agent, cfg = load_suite((REPO / "configs" / "study.cfg").read_text())
    assert plan.participants == 1
    assert agent.latency_out == 0.6
    assert cfg == GuidanceConfig()


def test_guidance_overrides_from_scenario_file():
    text = """
[lights]
gamma_env = 2

[audio]
duck_gain = 0.3

[scenario]
role = listener
"""
    script, _, cfg = load_simulation(text)
    assert cfg.gamma_env == 2.0
    assert cfg.duck_gain == 0.3
    assert isinstance(script, ScenarioScript)


def _a_trial():
    return randomize_presentation(StudyPlan(participants=1), 0).trials[0]


def _plan_with_second_trial(**changes):
    """A randomized one-participant plan whose second trial takes changes."""
    trials = randomize_presentation(StudyPlan(participants=1), 0).trials
    return StudyPlan(participants=1, trials=(trials[0], trials[1]._replace(**changes), *trials[2:]))


@pytest.mark.parametrize(
    "build,named",
    [
        (lambda: GuidanceConfig(ack_threshold=math.nan), "ack_threshold"),
        (lambda: GuidanceConfig(miss_timeout=math.inf), "miss_timeout"),
        (lambda: GuidanceConfig(gamma_spot=math.nan), "gamma_spot"),
        (lambda: GuidanceConfig(chime_repeat_interval=math.nan), "chime_repeat_interval"),
        (lambda: LightLevels(math.nan, 1.0), "l_min"),
        (lambda: GazeAgentModel(head_speed=math.nan), "head_speed"),
        (lambda: GazeAgentModel(latency_overrides=(("sgd", "in", math.nan),)), "latency_sgd_in"),
        (lambda: default_script(Method.SGD, Role.LISTENER)._replace(signal_offset=math.inf), "signal_offset"),
        (lambda: StudyPlan(participants=-2), "participants"),
        (lambda: GuidanceConfig(theta_min=179.5), r"theta_min=179\.5 must lie in \[0, 179\]"),
        (lambda: StudyPlan(participants=1, seat_radius=0.0), "seat_radius=0.0"),
        (lambda: StudyPlan(participants=1, seat_radius=math.inf), "seat_radius=inf"),
        (lambda: StudyPlan(participants=1, eye_height=math.nan), "eye_height=nan must be finite"),
        (lambda: StudyPlan(participants=1, trials=(1,)), r"trials\[0\]=1 is not a TrialSpec"),
        (lambda: _a_trial()._replace(order_index=1.5), r"order_index=1\.5 is not an integer"),
        (lambda: _a_trial()._replace(participant=True), "participant=True is not an integer"),
        (lambda: _a_trial()._replace(order_index=-1), "order_index=-1 must be >= 0"),
        (lambda: _a_trial()._replace(participant=-3), "participant=-3 must be >= 0"),
        (lambda: hexagon_seats(-1.2), "seat_radius=-1.2"),
        (lambda: hexagon_seats(math.nan), "seat_radius=nan"),
        (lambda: default_script(Method.SGD, Role.LISTENER, eye_height=math.inf), "eye_height=inf must be finite"),
        (lambda: GuidanceConfig(chime_max_repeats=2), "chime_repeat_interval must be > 0 when repeats > 1"),
        (lambda: GuidanceConfig(subtlety=1.5), r"subtlety=1\.5 must lie in \[0, 1\]"),
        (lambda: GuidanceConfig(subtlety=-0.1), r"subtlety=-0\.1 must lie in \[0, 1\]"),
        # Integers: a float or a bool is rejected where it enters, naming the field.
        (lambda: StudyPlan(participants=1.5), r"participants=1\.5 is not an integer"),
        (lambda: StudyPlan(participants=True), "participants=True is not an integer"),
        (lambda: default_script(Method.SGD, Role.LISTENER)._replace(user_seat_index=1.0),
         r"user_seat_index=1\.0 is not an integer"),
        (lambda: default_script(Method.SGD, Role.LISTENER, user_seat_index=1.0),
         r"user_seat_index=1\.0 is not an integer"),
        (lambda: default_script(Method.SGD, Role.LISTENER)._replace(user_seat_index=True),
         "user_seat_index=True is not an integer"),
        (lambda: default_script(Method.SGD, Role.LISTENER)._replace(topic=1.5), r"topic=1\.5 is not an integer"),
        (lambda: run_scenario(default_script(Method.SGD, Role.LISTENER), GazeAgentModel(), GuidanceConfig(),
                              participant=1.5), r"participant=1\.5 is not an integer"),
        (lambda: run_scenario(default_script(Method.SGD, Role.LISTENER), GazeAgentModel(), GuidanceConfig(),
                              seed=2.5), r"seed=2\.5 is not an integer"),
        (lambda: run_suite(StudyPlan(participants=0), GazeAgentModel(), GuidanceConfig(), seed=2.5),
         r"seed=2\.5 is not an integer"),
        (lambda: run_suite(StudyPlan(participants=0), GazeAgentModel(), GuidanceConfig(), jobs=1.5),
         r"jobs=1\.5 is not an integer"),
        # suite_traces checks on the call, before the first trace is asked for.
        (lambda: suite_traces(StudyPlan(participants=1), GazeAgentModel(), GuidanceConfig(), seed=2.5),
         r"seed=2\.5 is not an integer"),
        (lambda: suite_traces(StudyPlan(participants=1), GazeAgentModel(), GuidanceConfig(), jobs=0),
         "jobs=0 must be >= 1"),
        # The plan's seed is checked as suite_traces checks it.
        (lambda: randomize_presentation(StudyPlan(participants=1), 1.5), r"^seed=1\.5 is not an integer$"),
        (lambda: randomize_presentation(StudyPlan(participants=1), "x"), r"^seed='x' is not an integer$"),
        (lambda: randomize_presentation(StudyPlan(participants=1), True), r"^seed=True is not an integer$"),
        (lambda: randomize_presentation(StudyPlan(participants=1), None), r"^seed=None is not an integer$"),
        # A pose's numbers and a tick's dt are finite ints or floats: a str, a bool or None is rejected, naming it.
        (lambda: Pose(Vec3(0, 0, 0), AHEAD, AHEAD, "x"), r"^timestamp='x' must be finite$"),
        (lambda: Pose(Vec3(0, 0, 0), AHEAD, AHEAD, True), r"^timestamp=True must be finite$"),
        (lambda: Pose(Vec3(0, "a", 0), AHEAD, AHEAD, 0.0), r"^position=\(0, 'a', 0\) must be finite$"),
        (lambda: Pose(Vec3(0, 0, False), AHEAD, AHEAD, 0.0), r"^position=\(0, 0, False\) must be finite$"),
        (lambda: tick(IDLE, Pose(Vec3(0, 0, 0), AHEAD, AHEAD, 0.0), None, "0.1", GuidanceConfig()),
         r"^dt='0\.1' must be finite and > 0$"),
        (lambda: tick(IDLE, Pose(Vec3(0, 0, 0), AHEAD, AHEAD, 0.0), None, None, GuidanceConfig()),
         r"^dt=None must be finite and > 0$"),
        (lambda: tick(IDLE, Pose(Vec3(0, 0, 0), AHEAD, AHEAD, 0.0), None, True, GuidanceConfig()),
         r"^dt=True must be finite and > 0$"),
        (lambda: GazeAgentModel(seed=1.5), r"seed=1\.5 is not an integer"),
        (lambda: GuidanceConfig(chime_max_repeats=2.5), r"chime_max_repeats=2\.5 must be an integer >= 1"),
        (lambda: GuidanceConfig(chime_max_repeats=True), "chime_max_repeats=True must be an integer >= 1"),
        # tick scales the repeat count as a float: one that float() cannot hold fails here, briefly.
        (lambda: GuidanceConfig(chime_max_repeats=10**400, chime_repeat_interval=0.7),
         r"^chime_max_repeats of about 10\*\*400 is beyond the float range \(about 1\.8e\+308\)$"),
        (lambda: GuidanceConfig(chime_max_repeats=2**1024 - 2**970, chime_repeat_interval=0.7),
         r"^chime_max_repeats of about 10\*\*308 is beyond the float range"),
        (lambda: parse_config("[audio]\nchime_repeat_interval = 0.7\nchime_max_repeats = 1" + "0" * 400 + "\n"),
         r"^chime_max_repeats of about 10\*\*400 is beyond the float range \(about 1\.8e\+308\)$"),
        # A value past int()'s 4,300 digits, or one that str() refuses, shows at a bounded length.
        (lambda: GuidanceConfig(chime_max_repeats=-10**5000),
         r"^chime_max_repeats=about -10\*\*5000 must be an integer >= 1$"),
        (lambda: parse_config("[audio]\nchime_max_repeats = " + "1" * 5000 + "\n"),
         r"^\[audio\] chime_max_repeats: '1{12}\.\.\.1{13}' is not an integer$"),
        (lambda: parse_config("[audio]\nchime_max_repeats = -1" + "0" * 4000 + "\n"),
         r"^chime_max_repeats=about -10\*\*4000 must be an integer >= 1$"),
        (lambda: parse_config("[audio]\nduck_gain = " + "9" * 5000 + "\n"),
         r"^\[audio\] duck_gain: '9{12}\.\.\.9{13}' is not a finite number$"),
        # Latency overrides name a real (method, view) cell, once.
        (lambda: GazeAgentModel(latency_overrides=(("lite", "in", 0.1),)), "'latency_lite_in' names no method"),
        (lambda: GazeAgentModel(latency_overrides=(("sgd", "sideways", 0.2),)), "'latency_sgd_sideways' names no method"),
        (lambda: GazeAgentModel(latency_overrides=(("light", "audio_in", 0.2),)),
         "'latency_light_audio_in' names no method"),
        (lambda: GazeAgentModel(latency_overrides=(("sgd", "in", 0.1), ("sgd", "in", 0.2))),
         "latency_sgd_in is given twice"),
        # The method and role are the enums, and a plan's trials are of exactly its participants.
        (lambda: default_script("light", Role.LISTENER), "method='light' is not a Method"),
        (lambda: default_script(Method.LIGHT, "listener"), "role='listener' is not a Role"),
        (lambda: run_suite(StudyPlan(participants=1, trials=(_a_trial()._replace(method="sgd"),)), GazeAgentModel(),
                           GuidanceConfig()), "method='sgd' is not a Method"),
        (lambda: StudyPlan(participants=3, trials=(_a_trial(),)), "participants=3 is not the set of the trials' participants"),
        (lambda: StudyPlan(participants=1, trials=(_a_trial()._replace(participant=1),)),
         "participants=1 is not the set of the trials' participants"),
        (lambda: StudyPlan(participants=0, trials=(_a_trial(),)), "participants=0 is not the set"),
        # A plan builds each trial's script, so it fails whole, naming the trial, before any trial runs.
        (lambda: _plan_with_second_trial(method="sgd"), r"^trials\[1\]: method='sgd' is not a Method$"),
        (lambda: _plan_with_second_trial(names=("A",)), r"^trials\[1\]: names: expected 5, got 1$"),
        (lambda: _plan_with_second_trial(user_seat_index=9), r"^trials\[1\]: user_seat_index=9 out of range$"),
        # Opposite seats 2 * seat_radius apart: an offset without a finite norm has no direction.
        (lambda: hexagon_seats(1e200),
         r"^seat_radius=1e\+200 is too large: the table width 2 \* seat_radius has no finite norm$"),
        (lambda: StudyPlan(participants=1, seat_radius=7e153), r"^seat_radius=7e\+153 is too large"),
        # The default desk lies 0.25 below the eyes, which a huge eye height rounds away.
        (lambda: hexagon_seats(1.2, 1e300),
         r"^eye_height=1e\+300 leaves the default desk no exact 0\.25 drop below it$"),
        (lambda: StudyPlan(participants=1, eye_height=2.0**53), r"^eye_height=9007199254740992\.0 leaves the default desk"),
        (lambda: default_script(Method.TEXT_ICON, Role.SPEAKER, eye_height=1e17), r"^eye_height=1e\+17 leaves"),
    ],
    ids=["ack_threshold", "miss_timeout", "gamma_spot", "chime_repeat_interval", "light_levels",
         "head_speed", "latency_override", "signal_offset", "participants",
         "theta_min-above-179", "plan-seat_radius-zero", "plan-seat_radius-inf", "plan-eye_height-nan",
         "plan-trials-not-TrialSpec", "trial-order_index-float", "trial-participant-bool",
         "trial-order_index-negative", "trial-participant-negative", "seat_radius-negative",
         "seat_radius-nan", "default_script-eye_height-inf", "chime-repeats-without-interval", "subtlety-above-1", "subtlety-negative",
         "participants-float", "participants-bool", "user_seat_index-float", "default_script-user_seat_index-float",
         "user_seat_index-bool", "topic-float", "run_scenario-participant-float", "run_scenario-seed-float",
         "run_suite-seed-float", "run_suite-jobs-float", "suite_traces-seed-float", "suite_traces-jobs-zero",
         "randomize_presentation-seed-float", "randomize_presentation-seed-str", "randomize_presentation-seed-bool",
         "randomize_presentation-seed-none", "pose-timestamp-str", "pose-timestamp-bool", "pose-position-str",
         "pose-position-bool", "tick-dt-str", "tick-dt-none", "tick-dt-bool",
         "agent-seed-float", "chime_max_repeats-float",
         "chime_max_repeats-bool", "chime_max_repeats-beyond-float", "chime_max_repeats-rounds-past-float",
         "config-chime_max_repeats-401-digits", "chime_max_repeats-negative-5001-digits",
         "config-chime_max_repeats-5000-digits", "config-chime_max_repeats-negative-4001-digits",
         "config-duck_gain-5000-digits", "latency-unknown-method", "latency-unknown-view", "latency-split-method",
         "latency-repeated-cell", "method-str", "role-str", "run_suite-trial-method-str", "plan-participants-above-trials",
         "plan-trial-participant-outside", "plan-participants-zero-with-trials", "plan-trial-method-str",
         "plan-trial-names-short", "plan-trial-user_seat-range", "seat_radius-huge", "plan-seat_radius-huge",
         "eye_height-huge", "plan-eye_height-huge", "default_script-eye_height-huge"],
)
def test_constructors_reject_non_finite_and_out_of_range(build, named):
    with pytest.raises(ConfigError, match=named) as info:
        build()
    assert len(str(info.value)) < 200


_LONG = "x" * 100_000
_HUGE = -(10**5000)  # more digits than str() converts, 4,300 unless set otherwise


@pytest.mark.parametrize(
    "build,error,named",
    [
        (lambda: load_suite("[plan]\nparticipants = -1" + "0" * 4000 + "\n"), ScriptError, "participants"),
        (lambda: StudyPlan(participants=_HUGE), ScriptError, "participants"),
        (lambda: default_script(Method.SGD, Role.LISTENER)._replace(user_seat_index=_HUGE), ScriptError,
         "user_seat_index"),
        (lambda: _a_trial()._replace(order_index=_HUGE), ScriptError, "order_index"),
        (lambda: run_scenario(default_script(Method.SGD, Role.LISTENER), GazeAgentModel(), GuidanceConfig(),
                              participant=_HUGE), ScriptError, "participant"),
        (lambda: suite_traces(StudyPlan(participants=1), GazeAgentModel(), GuidanceConfig(), jobs=_HUGE), ScriptError,
         "jobs"),
        (lambda: GazeAgentModel(seed=_LONG), ScriptError, "seed"),
        (lambda: default_script(_LONG, Role.LISTENER), ScriptError, "method"),
        (lambda: load_simulation("[scenario]\nmethod = " + _LONG + "\n"), ConfigError, "[scenario] method"),
        (lambda: load_simulation("[scenario]\nturns = " + _LONG + "\n"), ConfigError, "[scenario] turns"),
        (lambda: parse_config(f"[audio]\n{_LONG} = 1\n"), ConfigError, "unknown key"),
        (lambda: parse_config(f"[{_LONG}]\n"), ConfigError, "unknown section 'xxxx"),
        (lambda: parse_config(f"[lights]\n{_LONG}\n"), ConfigError,
         "config syntax error: line 2, not a [section] or key = value: 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
        (lambda: parse_config(f"{_LONG}\n[lights]\n"), ConfigError,
         "config syntax error: line 1, before any [section]: 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
        (lambda: GazeAgentModel(latency_overrides=((_LONG, "in", 0.1),)), ScriptError, "agent 'latency_xxxx"),
        (lambda: run_scenario(default_script(Method.SGD, Role.LISTENER, topic=_HUGE), GazeAgentModel(),
                              GuidanceConfig()), TraceIntegrityError, "topic=about -10**5000 is not a valid int"),
        (lambda: run_scenario(default_script(Method.SGD, Role.LISTENER), GazeAgentModel(), GuidanceConfig(), seed=_HUGE),
         TraceIntegrityError, "seed=about -10**5000 is not a valid int"),
        (lambda: Turn(_LONG, 1.0), ScriptError, "speaker"),
        (lambda: GuidanceConfig(sound_easing=_LONG), ConfigError, "sound_easing"),
        (lambda: sound_source_position(Vec3(0.0, 0.0, 0.0), Vec3(1.0, 0.0, 0.0), 45.0, AngularRange(0.0, 90.0), _LONG),
         ConfigError, "easing"),
        (lambda: read_trace(write_trace([make_record(0, 0.0)], make_meta()).replace(
            '{"kind":"frame",', '{"kind":"frame","sgd_phase":[' + ",".join(["0"] * 50_000) + "],")),
         TraceIntegrityError, "sgd_phase"),
        (lambda: make_record(0, 0.0)._replace(t=_HUGE), TraceIntegrityError, "t="),
        (lambda: extract_metrics([Trace(make_meta(), (make_record(0, 0.0, state=_LONG),))]), TraceIntegrityError,
         "session state"),
        (lambda: StudyPlan(participants=1, trials=(_LONG,)), ScriptError, "trials[0]"),
        (lambda: list(_eval_rows("env", AngularRange(0.0, 90.0), 1.0, _HUGE, GuidanceConfig())), GuidanceError,
         "steps"),
    ],
    ids=["plan-participants-negative-4001-digits", "participants-negative-5001-digits",
         "user_seat_index-negative-5001-digits", "trial-order_index-negative-5001-digits",
         "run_scenario-participant-negative-5001-digits", "suite_traces-jobs-negative-5001-digits",
         "agent-seed-long-str", "default_script-method-long-str", "config-method-long", "config-turns-entry-long",
         "config-key-long", "config-section-long", "config-syntax-long-line", "config-syntax-long-line-before-header",
         "agent-latency-override-long", "run_scenario-topic-5001-digits",
         "run_scenario-seed-5001-digits",
         "turn-speaker-long", "sound_easing-long", "sound_source_position-easing-long",
         "read-sgd_phase-long-list", "record-t-5001-digits", "metrics-state-long", "plan-trial-long-str",
         "eval-steps-negative-5001-digits"],
)
def test_an_error_shows_a_huge_or_long_value_bounded(build, error, named):
    # Each value is shown through trace._SHOWN: a long int by its size, a long str or list cut short.
    with pytest.raises(GuidanceError) as info:
        build()
    assert type(info.value) is error and named in str(info.value) and len(str(info.value)) <= 200


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_config_number_rejected(raw):
    with pytest.raises(ConfigError, match=r"\[session\] ack_dwell: .* is not a finite number"):
        parse_config(f"[session]\nack_dwell = {raw}\n")


def test_readme_config_table_lists_exactly_the_parsed_keys():
    readme = (REPO / "README.md").read_text()
    rows = dict(re.findall(r"^\| `\[(\w+)\]` \| (.*) \|$", readme, re.MULTILINE))
    documented = {section: set(re.findall(r"`([^`]+)`", keys)) for section, keys in rows.items()}
    assert documented == {section: set(keys) for section, keys in _SCHEMA.items()}


# A value differing from the default for every config key; CONTEXT is what a
# key needs beside it to be valid.
SAMPLES = {
    "lights": {
        "env_min": "0.4", "env_max": "1.2", "spot_min": "0.7", "spot_max": "1.6", "cone_min": "25",
        "cone_max": "70", "warm": "1, 0.8, 0.2", "cold": "0.9, 0.9, 0.9", "gamma_env": "2",
        "gamma_point": "2", "gamma_spot": "2", "point_azimuth": "60", "point_radius": "0.7",
        "fade_duration": "1", "viewport_half_angle": "50", "spot_deactivate_at_min": "false",
    },
    "audio": {
        "duck_duration": "1", "duck_gain": "0.3", "sound_easing": "cosine",
        "chime_repeat_interval": "0.5", "chime_max_repeats": "2", "subtlety": "0.5",
    },
    "session": {"ack_threshold": "5", "ack_dwell": "1", "miss_timeout": "4", "theta_min": "2"},
    "scenario": {
        "role": "speaker", "method": "sgd", "topic": "3", "user_seat": "3",
        "seats": "0,1,0 | 0,1,2 | 2,1,0 | -2,1,0 | 0,1,-2 | 1,1,1", "seat_radius": "1.5",
        "eye_height": "1.0", "desk_anchor": "0.4, 0.8, 0", "signal_offset": "4",
        "turns": "a1:10 | a2:8", "names": "A, B, C, D, E",
    },
    "agent": {
        "head_speed": "90", "gaze_lead": "2", "latency_in": "0.2", "latency_out": "0.9",
        "latency_jitter": "0", "seed": "4",
        **{f"latency_{m.value}_{v}": "0.8" for m in Method for v in ("in", "out")},
    },
    "plan": {"participants": "2", "seat_radius": "1.5", "eye_height": "1.0"},
}
CONTEXT = {"audio": {"chime_repeat_interval": "0.25"}}


def _load(section: str, values: dict) -> tuple:
    body = f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
    if section == "scenario":
        return load_simulation(body)
    return load_suite(body if section == "plan" else "[plan]\n" + body)


def test_every_config_key_reaches_the_parsed_objects():
    ignored = []
    for section, keys in _SCHEMA.items():
        base = CONTEXT.get(section, {})
        for key in keys:
            if _load(section, {**base, key: SAMPLES[section][key]}) == _load(section, base):
                ignored.append(f"[{section}] {key}")
    assert ignored == []
