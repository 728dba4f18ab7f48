"""Angular math shared by every cue channel.

All angles in this package are degrees (the thresholds and ranges the cue
formulas are quoted in), all positions are meters. The coordinate system is
y-up; the horizontal plane is x-z.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .errors import ConfigError, DegenerateGeometryError, InvalidDirectionError, checked
from .trace import _NUMBER, _SHOWN, Side  # Side re-exported: turncue.geometry.Side is public

# Tolerance on |v| - 1 for direction-valued vectors.
UNIT_TOLERANCE = 1e-6

# Guard on inclusive angular comparisons so exact-boundary cases survive
# acos rounding.
_BOUNDARY_EPS = 1e-9


class Vec3(NamedTuple):
    """3-component vector, position (m) or unit direction: a tuple, equal to (x, y, z)."""

    x: float
    y: float
    z: float

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def scaled(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def normalized(self) -> "Vec3":
        n = self.norm()
        if n <= 1e-12:
            raise DegenerateGeometryError("cannot normalize a zero-length vector")
        return Vec3(self.x / n, self.y / n, self.z / n)

    def is_unit(self) -> bool:
        return abs(self.norm() - 1.0) <= UNIT_TOLERANCE


_FLOAT_END = 2**1024 - 2**970  # the least int that float() rounds past the largest float


def _finite(x) -> bool:
    """x is a finite int or float that float() holds: a bool, a str, None or an int of _FLOAT_END or more is not."""
    return x.__class__ in _NUMBER and abs(x) < _FLOAT_END  # inf and nan fail too


def _finite_fields(value: tuple) -> None:
    """Raise a ConfigError naming the first field of the NamedTuple value that is not _finite."""
    for name, x in zip(value._fields, value):
        if not _finite(x):
            raise ConfigError(f"{name}={_SHOWN.repr(x)} must be a finite number")


@checked
class Pose(NamedTuple):
    """User position plus head and gaze forward directions at a timestamp;
    the position and timestamp are checked finite and the directions unit
    length here, where they enter."""

    position: Vec3
    head_forward: Vec3
    gaze_forward: Vec3
    timestamp: float

    def _check(self) -> None:
        if not all(map(_finite, self.position)):
            raise ConfigError(f"position={_SHOWN.repr(tuple(self.position))} must be finite")
        if not _finite(self.timestamp):
            raise ConfigError(f"timestamp={_SHOWN.repr(self.timestamp)} must be finite")
        if not self.head_forward.is_unit():
            raise InvalidDirectionError(
                f"head_forward has length {self.head_forward.norm():.8f}, expected 1"
            )
        if self.gaze_forward is not self.head_forward and not self.gaze_forward.is_unit():
            raise InvalidDirectionError(
                f"gaze_forward has length {self.gaze_forward.norm():.8f}, expected 1"
            )


@checked
class AngularRange(NamedTuple):
    """[theta_min, theta_max] band over which a cue parameter modulates."""

    theta_min: float
    theta_max: float

    def _check(self) -> None:
        _finite_fields(self)
        if not 0.0 <= self.theta_min <= 180.0:
            raise ConfigError(f"theta_min={self.theta_min} must lie in [0, 180]")
        if not 0.0 <= self.theta_max <= 180.0:
            raise ConfigError(f"theta_max={self.theta_max} must lie in [0, 180]")
        if self.theta_max <= self.theta_min:
            raise ConfigError(
                f"theta_max={self.theta_max} must exceed theta_min={self.theta_min}"
            )


class DeviationReference(Enum):
    """Which pair of directions a channel's running angle is measured between."""

    HEAD_TO_TARGET = "head_to_target"
    GAZE_TO_TARGET = "gaze_to_target"


def angular_deviation(a: Vec3, b: Vec3) -> float:
    """Unsigned angle between two unit directions, in degrees [0, 180].

    Raises InvalidDirectionError when either input is not unit-length
    within 1e-6.
    """
    for name, v in (("a", a), ("b", b)):
        if not v.is_unit():
            raise InvalidDirectionError(
                f"argument {name} has length {v.norm():.8f}, expected unit"
            )
    return _unit_angle(a, b)


def _unit_angle(a: Vec3, b: Vec3) -> float:
    """angular_deviation without its checks, for directions that a Pose
    checked or that direction_to or normalized made unit."""
    return math.degrees(math.acos(max(-1.0, min(1.0, a.x * b.x + a.y * b.y + a.z * b.z))))


def direction_to(origin: Vec3, target: Vec3) -> Vec3:
    """Unit vector from origin to target; degenerate if they coincide."""
    dx, dy, dz = target.x - origin.x, target.y - origin.y, target.z - origin.z
    if (n := math.sqrt(dx * dx + dy * dy + dz * dz)) <= 1e-12:
        raise DegenerateGeometryError("target coincides with origin")
    return Vec3(dx / n, dy / n, dz / n)


def deviation_to_target(
    pose: Pose,
    target: Vec3,
    ref: DeviationReference,
) -> float:
    """Running angle for one cue channel: head or gaze against the direction
    from the user to the target."""
    to_target = direction_to(pose.position, target)
    if ref is DeviationReference.HEAD_TO_TARGET:
        return angular_deviation(pose.head_forward, to_target)
    return angular_deviation(pose.gaze_forward, to_target)


def target_view(pose: Pose, target: Vec3, half_angle: float) -> tuple[float, float, bool]:
    """(head, gaze) angles to the target and whether it lies within half_angle
    of head forward (inclusive): one direction, and one angle when gaze is head."""
    if not 0.0 < half_angle < 180.0:
        raise ConfigError(f"viewport half_angle={half_angle} must lie in (0, 180)")
    return _view(pose, direction_to(pose.position, target), half_angle)


def _view(pose: Pose, to_target: Vec3, half_angle: float) -> tuple[float, float, bool]:
    """target_view for to_target, the direction_to from the user to the target, and a half_angle checked where it
    entered (target_view, or GuidanceConfig's viewport_half_angle)."""
    head_theta = _unit_angle(pose.head_forward, to_target)
    gaze = pose.gaze_forward
    gaze_theta = head_theta if gaze is pose.head_forward else _unit_angle(gaze, to_target)
    return head_theta, gaze_theta, head_theta <= half_angle + _BOUNDARY_EPS


def lateral_side(pose: Pose, target: Vec3) -> Side:
    """Which side of head forward the target lies on, in the horizontal plane.

    Exactly-behind (and exactly-ahead) ties resolve to RIGHT so traces have
    a total order.
    """
    h, p = pose.head_forward, pose.position
    # y-component of cross(up, head) dotted with the offset: right-handed
    # horizontal convention, head +z / target +x -> RIGHT.
    lateral = h.z * (target.x - p.x) - h.x * (target.z - p.z)
    return Side.LEFT if lateral < 0.0 else Side.RIGHT


def _progress(theta: float, rng: AngularRange, gamma: float) -> float:
    """Progress of theta through rng, ((clamp(theta) - theta_min) / (theta_max - theta_min)) ** gamma: exactly 0
    at theta_min, 1 at theta_max, monotone for any gamma > 0, which GuidanceConfig and eval --gamma check."""
    clamped = min(rng.theta_max, max(theta, rng.theta_min))
    frac = (clamped - rng.theta_min) / (rng.theta_max - rng.theta_min)
    return frac**gamma
