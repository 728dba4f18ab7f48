"""Spatial audio cues: chime source placement and speaker ducking.

No waveforms are produced here; the module computes where the chime source
sits on the user-to-target path and how deep the current speaker's voice
is ducked. session.tick applies that duck to listeners inside each chime's
window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError, DegenerateGeometryError
from .geometry import AngularRange, Vec3


class Role(Enum):
    SPEAKER = "speaker"
    LISTENER = "listener"


@dataclass(frozen=True)
class SoundSourceState:
    position: Vec3
    chime_active: bool


def sound_source_position(
    u: Vec3,
    t: Vec3,
    theta: float,
    rng: AngularRange,
    easing: str = "linear",
) -> Vec3:
    """Chime source position along the segment from the user to the target.

    At theta >= theta_max the source sits at the user's head, at
    theta <= theta_min it rests at the target; between, it slides along the
    path continuously. "cosine" easing slows departure from the head end.
    """
    d = t - u
    if d.norm() <= 1e-12:
        raise DegenerateGeometryError("sound path is degenerate: u == t")
    if theta >= rng.theta_max:
        return u
    if theta <= rng.theta_min:
        return t
    s = (rng.theta_max - theta) / (rng.theta_max - rng.theta_min)
    if easing == "cosine":
        s = 1.0 - math.cos(s * math.pi / 2.0)
    elif easing != "linear":
        raise ConfigError(f"unknown sound easing '{easing}' (linear or cosine)")
    return Vec3(u.x + d.x * s, u.y + d.y * s, u.z + d.z * s)


def chime_schedule(
    signal_time: float,
    repeat_interval: float | None = None,
    max_repeats: int = 1,
) -> list[float]:
    """Chime onset times for one signal; a single play by default."""
    if signal_time < 0.0:
        raise ConfigError(f"signal_time={signal_time} must be >= 0")
    if max_repeats < 1:
        raise ConfigError(f"max_repeats={max_repeats} must be >= 1")
    if max_repeats > 1:
        if repeat_interval is None or repeat_interval <= 0.0:
            raise ConfigError("repeat_interval must be > 0 when max_repeats > 1")
        return [signal_time + i * repeat_interval for i in range(max_repeats)]
    return [signal_time]


def scaled_duck_gain(base_gain: float, subtlety: float) -> float:
    """Duck depth scaled by the configured subtlety weight.

    subtlety 1 keeps the configured gain; smaller values shallow the duck,
    and weight 0 disables it (gain 1).
    """
    if not 0.0 <= subtlety <= 1.0:
        raise ConfigError(f"subtlety={subtlety} must lie in [0, 1]")
    return 1.0 - subtlety * (1.0 - base_gain)
