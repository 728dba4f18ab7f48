from pathlib import Path

import pytest

from turncue.audio import Role
from turncue.config import GuidanceConfig
from turncue.configio import load_simulation, load_suite, parse_config
from turncue.errors import ConfigError
from turncue.scenario import Method, ScenarioScript, StudyPlan

REPO = Path(__file__).resolve().parents[1]


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
        parse_config(text)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"unknown section \[lighting\]"):
        parse_config("[lighting]\nenv_min = 0.5\n")


def test_syntax_error_carries_line_number():
    with pytest.raises(ConfigError, match="line"):
        parse_config("[lights]\nthis is not a key value pair\n")


def test_range_violation_names_field():
    with pytest.raises(ConfigError, match="env_min|l_min"):
        parse_config("[lights]\nenv_min = 2.0\nenv_max = 1.0\n")


def test_partial_override_keeps_other_defaults():
    cfg = parse_config("[session]\nack_threshold = 5\n")
    assert cfg.ack_threshold == 5.0
    assert cfg.miss_timeout == 5.0
    assert cfg.env_levels.l_max == 1.1


def test_scenario_file_parses_to_script():
    script = parse_config((REPO / "configs" / "listener_light_audio.cfg").read_text())
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
    script = parse_config(text)
    assert [t.speaker for t in script.turn_order] == ["a1", "user", "a2"]
    assert script.turn_order[1].duration == 12.0
    assert script.seats[2].x == 2.0
    assert script.signal_offset == 4.0
    assert script.desk_anchor.y == 0.8


def test_bad_turn_entry():
    with pytest.raises(ConfigError, match="speaker:duration"):
        parse_config("[scenario]\nturns = a1 10\n")


def test_script_validated_at_parse_time():
    with pytest.raises(ConfigError, match="unknown speaker"):
        parse_config("[scenario]\nturns = a9:10\n")
    with pytest.raises(ConfigError, match="seats"):
        parse_config("[scenario]\nseats = 0,1,0 | 0,1,2\n")


def test_plan_file_parses():
    plan = parse_config((REPO / "configs" / "study.cfg").read_text())
    assert isinstance(plan, StudyPlan)
    assert plan.participants == 1


def test_plan_and_scenario_conflict():
    with pytest.raises(ConfigError, match="both"):
        parse_config("[plan]\nparticipants = 1\n[scenario]\nrole = listener\n")


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
