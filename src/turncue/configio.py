"""Config file parsing: hierarchical key-value text with sections.

Sections: [lights], [audio], [session] feed GuidanceConfig; [scenario] and
[agent] define a trial script and the synthetic gaze agent; [plan] defines a
study plan. Parsing is strict: unknown sections or keys are rejected so a
typo cannot silently fall back to a default mid-experiment, and every number
must be finite. _SCHEMA is the full key list (documented in the README).
Each reader names the sections it reads and rejects any other, each key is
handed to a constructor argument, and [scenario] seats cannot be paired with
seat_radius or eye_height, so nothing can be parsed and then ignored. Only
the readers of [scenario], [agent] and [plan] import the scenario.
"""

from __future__ import annotations

import configparser
import math
from typing import TYPE_CHECKING

from .config import LATENCY_OVERRIDES, GuidanceConfig
from .errors import ConfigError
from .geometry import Vec3
from .lights import ColorRGB
from .trace import _SHOWN, Method, Role

if TYPE_CHECKING:
    from .scenario import GazeAgentModel, ScenarioScript, StudyPlan, Turn


def _float(where: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{where}: {_SHOWN.repr(raw)} is not a finite number")
    return value


def _int(where: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {_SHOWN.repr(raw)} is not an integer") from exc


def _bool(where: str, raw: str) -> bool:
    value = raw.strip().lower()
    if value in ("true", "yes", "on", "1"):
        return True
    if value in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{where}: {_SHOWN.repr(raw)} is not a boolean")


def _triple(where: str, raw: str) -> tuple[float, float, float]:
    parts = raw.split(",")
    if len(parts) != 3:
        raise ConfigError(f"{where}: expected three comma-separated numbers")
    return tuple(_float(where, p.strip()) for p in parts)  # type: ignore[return-value]


def _enum(enum_cls):
    def parse(where: str, raw: str):
        try:
            return enum_cls(raw.strip().lower())
        except ValueError as exc:
            valid = ", ".join(e.value for e in enum_cls)
            raise ConfigError(f"{where}: {_SHOWN.repr(raw)} is not one of {valid}") from exc

    return parse


def _turns(where: str, raw: str) -> tuple[Turn, ...]:
    from .scenario import Turn

    turns = []
    for part in raw.split("|"):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ConfigError(f"{where}: entry {_SHOWN.repr(part)} must be speaker:duration")
        who, dur = part.split(":", 1)
        turns.append(Turn(who.strip(), _float(where, dur.strip())))
    if not turns:
        raise ConfigError(f"{where}: no entries")
    return tuple(turns)


def _vec(where: str, raw: str) -> Vec3:
    return Vec3(*_triple(where, raw))


def _at(where: str, build, *args):
    """build(*args), with a range error prefixed by the key it came from."""
    try:
        return build(*args)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _color(where: str, raw: str) -> ColorRGB:
    return _at(where, ColorRGB, *_triple(where, raw))


def _seats(where: str, raw: str) -> tuple[Vec3, ...]:
    return tuple(_vec(where, e) for e in raw.split("|") if e.strip())


def _names(where: str, raw: str) -> tuple[str, ...]:
    return tuple(n.strip() for n in raw.split(",") if n.strip())


def _lower(where: str, raw: str) -> str:
    return raw.strip().lower()


# Section -> key -> parser(where, raw). The *_from_sections builders below
# pass every parsed key on as a constructor argument (renaming a few), so a
# key without an argument fails there instead of being ignored.
_SCHEMA = {
    "lights": {
        **dict.fromkeys(
            ("env_min", "env_max", "spot_min", "spot_max", "cone_min", "cone_max",
             "gamma_env", "gamma_point", "gamma_spot", "point_azimuth", "point_radius",
             "fade_duration", "viewport_half_angle"),
            _float,
        ),
        "warm": _color,
        "cold": _color,
        "spot_deactivate_at_min": _bool,
    },
    "audio": {
        **dict.fromkeys(("duck_duration", "duck_gain", "chime_repeat_interval", "subtlety"), _float),
        "chime_max_repeats": _int,
        "sound_easing": _lower,
    },
    "session": dict.fromkeys(("ack_threshold", "ack_dwell", "miss_timeout", "theta_min"), _float),
    "scenario": {
        "role": _enum(Role),
        "method": _enum(Method),
        "topic": _int,
        "user_seat": _int,
        "seats": _seats,
        "seat_radius": _float,
        "eye_height": _float,
        "desk_anchor": _vec,
        "signal_offset": _float,
        "turns": _turns,
        "names": _names,
    },
    "agent": {
        **dict.fromkeys(
            ("head_speed", "gaze_lead", "latency_in", "latency_out", "latency_jitter", *LATENCY_OVERRIDES),
            _float,
        ),
        "seed": _int,
    },
    "plan": {"participants": _int, "seat_radius": _float, "eye_height": _float},
}

GUIDANCE_SECTIONS = ("lights", "audio", "session")  # the sections a GuidanceConfig reads

# GuidanceConfig band fields and the [lights] keys of their two bounds.
_BANDS = {
    "env_levels": ("env_min", "env_max"),
    "spot_levels": ("spot_min", "spot_max"),
    "spot_geometry": ("cone_min", "cone_max"),
}


# What a configparser error says of its line; any other error's line is neither a header nor a key.
_SYNTAX = {configparser.MissingSectionHeaderError: "before any [section]",
           configparser.DuplicateSectionError: "a repeated section",
           configparser.DuplicateOptionError: "a repeated key"}


def parse_sections(text: str, reads: tuple[str, ...]) -> dict[str, dict[str, object]]:
    """Section -> key -> typed value; a section its caller does not read is an error."""
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        cp.read_string(text)
    except configparser.Error as exc:  # its text quotes the whole line, which the message shows cut short
        lineno = getattr(exc, "lineno", None) or exc.errors[0][0]
        what, line = _SYNTAX.get(type(exc), "not a [section] or key = value"), text.split("\n")[lineno - 1]
        raise ConfigError(f"config syntax error: line {lineno}, {what}: {_SHOWN.repr(line)}") from None
    sections = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section {_SHOWN.repr(section)}")
        if section not in reads:
            listing = ", ".join(f"[{name}]" for name in reads[:-1])
            raise ConfigError(f"this file may hold {listing} and [{reads[-1]}], not [{section}]")
        parsers = _SCHEMA[section]
        values = sections[section] = {}
        for key, raw in cp[section].items():
            if key not in parsers:
                raise ConfigError(f"unknown key {_SHOWN.repr(key)} in [{section}]")
            values[key] = parsers[key](f"[{section}] {key}", raw)
    return sections


def guidance_from_sections(sections: dict) -> GuidanceConfig:
    values = {key: v for name in GUIDANCE_SECTIONS for key, v in sections.get(name, {}).items()}
    defaults = GuidanceConfig()
    for field, keys in _BANDS.items():
        band = getattr(defaults, field)
        bounds = (values.pop(k, d) for k, d in zip(keys, band))
        values[field] = _at(f"[lights] {'/'.join(keys)}", type(band), *bounds)
    return GuidanceConfig(**values)


def agent_from_sections(sections: dict) -> GazeAgentModel:
    from .scenario import GazeAgentModel

    values = dict(sections.get("agent", {}))
    overrides = tuple((*mv, values.pop(key)) for key, mv in LATENCY_OVERRIDES.items() if key in values)
    return GazeAgentModel(**values, latency_overrides=overrides)


def script_from_sections(sections: dict) -> ScenarioScript:
    """The role's default trial template with the [scenario] keys applied."""
    from .scenario import default_script

    if "scenario" not in sections:
        raise ConfigError("missing [scenario] section")
    values = dict(sections["scenario"])
    user_seat = values.pop("user_seat", 0)
    layout = {k: values.pop(k) for k in ("topic", "names", "seat_radius", "eye_height") if k in values}
    for key in ("seat_radius", "eye_height"):
        if key in layout and "seats" in values:
            raise ConfigError(f"[scenario] {key} has no effect when seats is set")
    base = default_script(
        values.pop("method", Method.LIGHT_AUDIO), values.pop("role", Role.LISTENER),
        user_seat_index=user_seat, **layout,
    )
    return base._replace(**{"turn_order" if k == "turns" else k: v for k, v in values.items()})


def plan_from_sections(sections: dict) -> StudyPlan:
    from .scenario import StudyPlan

    if "plan" not in sections:
        raise ConfigError("missing [plan] section")
    return StudyPlan(**{"participants": 1, **sections["plan"]})


def parse_config(text: str) -> GuidanceConfig:
    """A guidance config from [lights], [audio] and [session]; an empty file
    is the all-defaults GuidanceConfig."""
    return guidance_from_sections(parse_sections(text, GUIDANCE_SECTIONS))


def load_simulation(text: str) -> tuple[ScenarioScript, GazeAgentModel, GuidanceConfig]:
    """Everything the simulate subcommand needs from one script file."""
    sections = parse_sections(text, ("scenario", "agent", *GUIDANCE_SECTIONS))
    return script_from_sections(sections), agent_from_sections(sections), guidance_from_sections(sections)


def load_suite(text: str) -> tuple[StudyPlan, GazeAgentModel, GuidanceConfig]:
    """Everything the suite subcommand needs from one plan file."""
    sections = parse_sections(text, ("plan", "agent", *GUIDANCE_SECTIONS))
    return plan_from_sections(sections), agent_from_sections(sections), guidance_from_sections(sections)
