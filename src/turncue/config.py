"""Tunable parameters of the guidance method.

Defaults are the empirically set values the method ships with: environment
light 0.5-1.1, spotlight 0.8-1.5 with a 30-60 degree cone, warm yellow
(1, 0.902, 0.259) to cold white, linear curvature, 2 s fades and ducks,
10 degree acknowledgment threshold held for 1.5 s, 5 s miss timeout.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConfigError, checked
from .geometry import _finite
from .lights import ColorRGB, LightLevels, SpotlightGeometry
from .trace import _SHOWN, Method

# Minimum captured range width, degrees: keeps the cue formulas well-defined
# when a signal arrives with the user already aligned.
MIN_RANGE_WIDTH = 1.0


METHODS = tuple(Method)  # Method is re-exported: turncue.config.Method is public

# GazeAgentModel's per-method latency override keys -> (method, view).
LATENCY_OVERRIDES = {f"latency_{m.value}_{v}": (m.value, v) for m in METHODS for v in ("in", "out")}


@checked
class GuidanceConfig(NamedTuple):
    env_levels: LightLevels = LightLevels(0.5, 1.1)
    spot_levels: LightLevels = LightLevels(0.8, 1.5)
    spot_geometry: SpotlightGeometry = SpotlightGeometry(30.0, 60.0)
    warm: ColorRGB = ColorRGB(1.0, 0.902, 0.259)
    cold: ColorRGB = ColorRGB(1.0, 1.0, 1.0)
    gamma_env: float = 1.0
    gamma_point: float = 1.0
    gamma_spot: float = 1.0
    viewport_half_angle: float = 45.0
    point_azimuth: float = 75.0
    point_radius: float = 0.5
    fade_duration: float = 2.0
    duck_duration: float = 2.0
    duck_gain: float = 0.5
    ack_threshold: float = 10.0
    ack_dwell: float = 1.5
    miss_timeout: float = 5.0
    theta_min: float = 0.0
    spot_deactivate_at_min: bool = True
    sound_easing: str = "linear"
    chime_repeat_interval: float = 0.0  # 0 means a single chime per signal
    chime_max_repeats: int = 1
    subtlety: float = 1.0

    def _check(self) -> None:
        for name in ("env_levels", "spot_levels", "spot_geometry", "warm", "cold"):  # checked where built
            if (value := getattr(self, name)).__class__ is not (kind := type(self._field_defaults[name])):
                raise ConfigError(f"{name}={_SHOWN.repr(value)} must be a {kind.__name__}")

        def number(name: str, holds, rule: str) -> None:  # a finite int or float (geometry._finite) in its range
            if not (_finite(value := getattr(self, name)) and holds(value)):
                raise ConfigError(f"{name}={_SHOWN.repr(value)} {rule}")

        for name in ("gamma_env", "gamma_point", "gamma_spot"):
            number(name, lambda v: v > 0.0, "must be finite and > 0")
        number("viewport_half_angle", lambda v: 0.0 < v < 180.0, "must lie in (0, 180)")
        number("point_azimuth", lambda v: 0.0 <= v <= 180.0, "must lie in [0, 180]")
        for name in ("point_radius", "fade_duration", "duck_duration", "ack_threshold", "ack_dwell", "miss_timeout"):
            number(name, lambda v: v > 0.0, "must be finite and > 0")
        number("duck_gain", lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)")
        top = 180.0 - MIN_RANGE_WIDTH
        number("theta_min", lambda v: 0.0 <= v <= top, f"must lie in [0, {top:g}]")
        if self.spot_deactivate_at_min.__class__ is not bool:
            raise ConfigError(f"spot_deactivate_at_min={_SHOWN.repr(self.spot_deactivate_at_min)} must be a bool")
        if self.sound_easing not in ("linear", "cosine"):
            raise ConfigError(f"sound_easing={_SHOWN.repr(self.sound_easing)} must be linear or cosine")
        n = self.chime_max_repeats
        if type(n) is not int or n < 1:  # bools too
            raise ConfigError(f"chime_max_repeats={_SHOWN.repr(n)} must be an integer >= 1")
        if not _finite(n):  # tick scales it as a float
            raise ConfigError(f"chime_max_repeats of about 10**{math.log10(n):.0f} is beyond "
                              "the float range (about 1.8e+308)")
        number("chime_repeat_interval", lambda v: v >= 0.0, "must be finite and >= 0")
        if n > 1 and self.chime_repeat_interval == 0.0:
            raise ConfigError("chime_repeat_interval must be > 0 when repeats > 1")
        number("subtlety", lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")
