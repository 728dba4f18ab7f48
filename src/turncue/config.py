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
        for name in ("gamma_env", "gamma_point", "gamma_spot"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name}={getattr(self, name)}: gamma must be finite and > 0")
        if not 0.0 < self.viewport_half_angle < 180.0:
            raise ConfigError(
                f"viewport_half_angle={self.viewport_half_angle} must lie in (0, 180)"
            )
        if not 0.0 <= self.point_azimuth <= 180.0:
            raise ConfigError(f"point_azimuth={self.point_azimuth} must lie in [0, 180]")
        for name in ("point_radius", "fade_duration", "duck_duration", "ack_threshold", "ack_dwell", "miss_timeout"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name}={getattr(self, name)} must be finite and > 0")
        if not 0.0 <= self.duck_gain < 1.0:
            raise ConfigError(f"duck_gain={self.duck_gain} must lie in [0, 1)")
        if not 0.0 <= self.theta_min <= 180.0 - MIN_RANGE_WIDTH:
            raise ConfigError(f"theta_min={self.theta_min} must lie in [0, {180.0 - MIN_RANGE_WIDTH:g}]")
        if self.sound_easing not in ("linear", "cosine"):
            raise ConfigError(f"sound_easing='{self.sound_easing}' must be linear or cosine")
        n = self.chime_max_repeats
        if type(n) is not int or n < 1:  # bools too; a long int, which str() may refuse, shows its size
            shown = f" of about -10**{math.log10(-n):.0f}" if type(n) is int and n < -10**40 else f"={_SHOWN.repr(n)}"
            raise ConfigError(f"chime_max_repeats{shown} must be an integer >= 1")
        if n >= 2**1024 - 2**970:  # rounds past the largest float: tick scales it as one
            raise ConfigError(f"chime_max_repeats of about 10**{math.log10(n):.0f} is beyond "
                              "the float range (about 1.8e+308)")
        if not 0.0 <= self.chime_repeat_interval < math.inf:
            raise ConfigError(f"chime_repeat_interval={self.chime_repeat_interval} must be finite and >= 0")
        if n > 1 and self.chime_repeat_interval == 0.0:
            raise ConfigError("chime_repeat_interval must be > 0 when repeats > 1")
        if not 0.0 <= self.subtlety <= 1.0:
            raise ConfigError(f"subtlety={self.subtlety} must lie in [0, 1]")
