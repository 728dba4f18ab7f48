"""Config file parsing: hierarchical key-value text with sections.

Sections: [lights], [audio], [session] feed GuidanceConfig; [scenario] and
[agent] define a trial script and the synthetic gaze agent; [plan] defines a
study plan. Parsing is strict: unknown sections or keys are rejected so a
typo cannot silently fall back to a default mid-experiment. The full key
list is documented in the README.
"""

from __future__ import annotations

import configparser

from .audio import Role
from .config import GuidanceConfig
from .errors import ConfigError
from .geometry import Vec3
from .lights import ColorRGB, LightLevels, SpotlightGeometry
from .scenario import (
    DEFAULT_EYE_HEIGHT,
    DEFAULT_SEAT_RADIUS,
    GazeAgentModel,
    Method,
    ScenarioScript,
    StudyPlan,
    Turn,
    default_desk_anchor,
    default_script,
    validate_script,
)

_LATENCY_OVERRIDE_KEYS = tuple(
    f"latency_{m.value}_{v}" for m in Method for v in ("in", "out")
)

_SECTION_KEYS = {
    "lights": {
        "env_min", "env_max", "spot_min", "spot_max", "cone_min", "cone_max",
        "warm", "cold", "gamma_env", "gamma_point", "gamma_spot",
        "point_azimuth", "point_radius", "fade_duration",
        "viewport_half_angle", "spot_deactivate_at_min",
    },
    "audio": {
        "duck_duration", "duck_gain", "sound_easing",
        "chime_repeat_interval", "chime_max_repeats", "subtlety",
    },
    "session": {"ack_threshold", "ack_dwell", "miss_timeout", "theta_min"},
    "scenario": {
        "role", "method", "topic", "user_seat", "seats", "seat_radius",
        "eye_height", "desk_anchor", "signal_offset", "turns", "names",
    },
    "agent": {
        "head_speed", "gaze_lead", "latency_in", "latency_out",
        "latency_jitter", "seed", *_LATENCY_OVERRIDE_KEYS,
    },
    "plan": {"participants", "seat_radius", "eye_height"},
}


def _parse_sections(text: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc
    for section in cp.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(f"unknown key '{key}' in [{section}]")
    return cp


def _float(section, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: '{raw}' is not a number") from exc


def _int(section, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: '{raw}' is not an integer") from exc


def _bool(section, key: str, raw: str) -> bool:
    value = raw.strip().lower()
    if value in ("true", "yes", "on", "1"):
        return True
    if value in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"[{section}] {key}: '{raw}' is not a boolean")


def _triple(section, key: str, raw: str) -> tuple[float, float, float]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"[{section}] {key}: expected three comma-separated numbers")
    return tuple(_float(section, key, p) for p in parts)  # type: ignore[return-value]


def _enum(section, key: str, raw: str, enum_cls):
    try:
        return enum_cls(raw.strip().lower())
    except ValueError as exc:
        valid = ", ".join(e.value for e in enum_cls)
        raise ConfigError(f"[{section}] {key}: '{raw}' is not one of {valid}") from exc


def guidance_from_sections(cp: configparser.ConfigParser) -> GuidanceConfig:
    base = GuidanceConfig()
    kwargs = {}

    if cp.has_section("lights"):
        s = cp["lights"]
        get = lambda k, d: _float("lights", k, s[k]) if k in s else d
        kwargs["env_levels"] = LightLevels(
            get("env_min", base.env_levels.l_min), get("env_max", base.env_levels.l_max)
        )
        kwargs["spot_levels"] = LightLevels(
            get("spot_min", base.spot_levels.l_min), get("spot_max", base.spot_levels.l_max)
        )
        kwargs["spot_geometry"] = SpotlightGeometry(
            get("cone_min", base.spot_geometry.a_min), get("cone_max", base.spot_geometry.a_max)
        )
        if "warm" in s:
            kwargs["warm"] = ColorRGB(*_triple("lights", "warm", s["warm"]))
        if "cold" in s:
            kwargs["cold"] = ColorRGB(*_triple("lights", "cold", s["cold"]))
        for k in ("gamma_env", "gamma_point", "gamma_spot", "point_azimuth",
                  "point_radius", "fade_duration", "viewport_half_angle"):
            if k in s:
                kwargs[k] = _float("lights", k, s[k])
        if "spot_deactivate_at_min" in s:
            kwargs["spot_deactivate_at_min"] = _bool(
                "lights", "spot_deactivate_at_min", s["spot_deactivate_at_min"]
            )

    if cp.has_section("audio"):
        s = cp["audio"]
        for k in ("duck_duration", "duck_gain", "chime_repeat_interval", "subtlety"):
            if k in s:
                kwargs[k] = _float("audio", k, s[k])
        if "chime_max_repeats" in s:
            kwargs["chime_max_repeats"] = _int("audio", "chime_max_repeats", s["chime_max_repeats"])
        if "sound_easing" in s:
            kwargs["sound_easing"] = s["sound_easing"].strip().lower()

    if cp.has_section("session"):
        s = cp["session"]
        for k in ("ack_threshold", "ack_dwell", "miss_timeout", "theta_min"):
            if k in s:
                kwargs[k] = _float("session", k, s[k])

    return GuidanceConfig(**kwargs)


def agent_from_sections(cp: configparser.ConfigParser) -> GazeAgentModel:
    if not cp.has_section("agent"):
        return GazeAgentModel()
    s = cp["agent"]
    kwargs = {}
    for k in ("head_speed", "gaze_lead", "latency_in", "latency_out", "latency_jitter"):
        if k in s:
            kwargs[k] = _float("agent", k, s[k])
    if "seed" in s:
        kwargs["seed"] = _int("agent", "seed", s["seed"])
    overrides = []
    for m in Method:
        for v in ("in", "out"):
            key = f"latency_{m.value}_{v}"
            if key in s:
                overrides.append((m.value, v, _float("agent", key, s[key])))
    if overrides:
        kwargs["latency_overrides"] = tuple(overrides)
    return GazeAgentModel(**kwargs)


def _parse_turns(raw: str) -> tuple[Turn, ...]:
    turns = []
    for part in raw.split("|"):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ConfigError(f"[scenario] turns: entry '{part}' must be speaker:duration")
        who, dur = part.split(":", 1)
        turns.append(Turn(who.strip(), _float("scenario", "turns", dur.strip())))
    if not turns:
        raise ConfigError("[scenario] turns: no entries")
    return tuple(turns)


def script_from_sections(cp: configparser.ConfigParser) -> ScenarioScript:
    if not cp.has_section("scenario"):
        raise ConfigError("missing [scenario] section")
    s = cp["scenario"]
    role = _enum("scenario", "role", s.get("role", "listener"), Role)
    method = _enum("scenario", "method", s.get("method", "light_audio"), Method)
    topic = _int("scenario", "topic", s["topic"]) if "topic" in s else 0
    user_seat = _int("scenario", "user_seat", s["user_seat"]) if "user_seat" in s else 0
    radius = _float("scenario", "seat_radius", s["seat_radius"]) if "seat_radius" in s else DEFAULT_SEAT_RADIUS
    eye = _float("scenario", "eye_height", s["eye_height"]) if "eye_height" in s else DEFAULT_EYE_HEIGHT

    names: tuple[str, ...] = ("Agent1", "Agent2", "Agent3", "Agent4", "Agent5")
    if "names" in s:
        names = tuple(n.strip() for n in s["names"].split(",") if n.strip())

    base = default_script(method, role, topic, user_seat, names, radius, eye)

    seats = base.seats
    if "seats" in s:
        entries = [e.strip() for e in s["seats"].split("|") if e.strip()]
        seats = tuple(Vec3(*_triple("scenario", "seats", e)) for e in entries)

    turns = base.turn_order
    if "turns" in s:
        turns = _parse_turns(s["turns"])

    if "desk_anchor" in s:
        desk = Vec3(*_triple("scenario", "desk_anchor", s["desk_anchor"]))
    else:
        desk = default_desk_anchor(seats, user_seat) if "seats" in s else base.desk_anchor

    offset = _float("scenario", "signal_offset", s["signal_offset"]) if "signal_offset" in s else base.signal_offset

    script = ScenarioScript(
        seats=seats,
        user_seat_index=user_seat,
        role=role,
        method=method,
        turn_order=turns,
        signal_offset=offset,
        topic=topic,
        desk_anchor=desk,
        names=names,
    )
    validate_script(script)
    return script


def plan_from_sections(cp: configparser.ConfigParser) -> StudyPlan:
    if not cp.has_section("plan"):
        raise ConfigError("missing [plan] section")
    s = cp["plan"]
    kwargs = {}
    kwargs["participants"] = _int("plan", "participants", s["participants"]) if "participants" in s else 1
    if "seat_radius" in s:
        kwargs["seat_radius"] = _float("plan", "seat_radius", s["seat_radius"])
    if "eye_height" in s:
        kwargs["eye_height"] = _float("plan", "eye_height", s["eye_height"])
    if kwargs["participants"] < 0:
        raise ConfigError(f"[plan] participants={kwargs['participants']} must be >= 0")
    return StudyPlan(**kwargs)


def parse_config(text: str):
    """Parse a config file into the object its sections declare.

    [plan] yields a StudyPlan, [scenario] a ScenarioScript, otherwise a
    GuidanceConfig. An empty file is the all-defaults GuidanceConfig.
    """
    cp = _parse_sections(text)
    if cp.has_section("plan") and cp.has_section("scenario"):
        raise ConfigError("a file cannot define both [plan] and [scenario]")
    if cp.has_section("plan"):
        return plan_from_sections(cp)
    if cp.has_section("scenario"):
        return script_from_sections(cp)
    return guidance_from_sections(cp)


def load_simulation(text: str) -> tuple[ScenarioScript, GazeAgentModel, GuidanceConfig]:
    """Everything the simulate subcommand needs from one script file."""
    cp = _parse_sections(text)
    return script_from_sections(cp), agent_from_sections(cp), guidance_from_sections(cp)


def load_suite(text: str) -> tuple[StudyPlan, GazeAgentModel, GuidanceConfig]:
    """Everything the suite subcommand needs from one plan file."""
    cp = _parse_sections(text)
    return plan_from_sections(cp), agent_from_sections(cp), guidance_from_sections(cp)
