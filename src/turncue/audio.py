"""Spatial audio cue: where the chime source sits on the user-to-target path.

No waveforms are produced here. The chime onsets, the chime window and the
duck of the current speaker's voice are session timing: tick works out which
chime plays from its index, and ducks listeners while one does.
"""

from __future__ import annotations

import math

from .errors import ConfigError, DegenerateGeometryError
from .geometry import AngularRange, Vec3
from .trace import _SHOWN, Role  # noqa: F401  (Role is re-exported: turncue.audio.Role is public)


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
    (ux, uy, uz), (tx, ty, tz) = u, t
    dx, dy, dz = tx - ux, ty - uy, tz - uz  # t - u and its norm, on scalars
    if math.sqrt(dx * dx + dy * dy + dz * dz) <= 1e-12:
        raise DegenerateGeometryError("sound path is degenerate: u == t")
    if theta >= rng.theta_max:
        return u
    if theta <= rng.theta_min:
        return t
    s = (rng.theta_max - theta) / (rng.theta_max - rng.theta_min)
    if easing == "cosine":
        s = 1.0 - math.cos(s * math.pi / 2.0)
    elif easing != "linear":
        raise ConfigError(f"unknown sound easing {_SHOWN.repr(easing)} (linear or cosine)")
    return tuple.__new__(Vec3, (ux + dx * s, uy + dy * s, uz + dz * s))
