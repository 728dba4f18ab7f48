"""Light cue channels: environment light, point light, spotlight.

Each channel maps the running angular deviation through normalized_progress
and interpolates its engine parameter between a configured min and max.
The point light serves out-of-view guidance, the spotlight within-view;
the viewport test gates which one is active.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .geometry import (
    AngularRange,
    Pose,
    Side,
    Vec3,
    lateral_side,
    normalized_progress,
    target_view,
)


@dataclass(frozen=True)
class LightLevels:
    """Intensity band in engine-light units."""

    l_min: float
    l_max: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.l_min < self.l_max < math.inf:
            raise ConfigError(
                f"light levels require 0 <= l_min < l_max < inf, got [{self.l_min}, {self.l_max}]"
            )


@dataclass(frozen=True)
class ColorRGB:
    r: float
    g: float
    b: float

    def __post_init__(self) -> None:
        for name, v in (("r", self.r), ("g", self.g), ("b", self.b)):
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"color channel {name}={v} must lie in [0, 1]")

    def to_tuple(self) -> tuple[float, float, float]:
        return (self.r, self.g, self.b)


@dataclass(frozen=True)
class SpotlightGeometry:
    """Cone angle band, degrees."""

    a_min: float
    a_max: float

    def __post_init__(self) -> None:
        if not 0.0 < self.a_min < self.a_max <= 180.0:
            raise ConfigError(
                f"spotlight cone requires 0 < a_min < a_max <= 180, got [{self.a_min}, {self.a_max}]"
            )


@dataclass(frozen=True)
class PointLightState:
    active: bool
    side: Side
    position: Vec3
    color: ColorRGB


@dataclass(frozen=True)
class SpotlightState:
    active: bool
    intensity: float
    cone_angle: float
    aim: Vec3


def lerp(lo: float, hi: float, p: float) -> float:
    """Linear interpolation: lo at p = 0, hi at p = 1."""
    return lo + (hi - lo) * p


def env_light_intensity(
    theta: float, rng: AngularRange, levels: LightLevels, gamma: float
) -> float:
    """Environment brightness at deviation theta."""
    return lerp(levels.l_min, levels.l_max, normalized_progress(theta, rng, gamma))


def env_light_with_fade(
    t_since_signal: float,
    theta: float,
    original: float,
    rng: AngularRange,
    levels: LightLevels,
    gamma: float,
    fade_duration: float = 2.0,
) -> float:
    """Environment brightness during the on-signal fade.

    Linear blend from the pre-signal brightness toward the modulated value;
    after fade_duration the modulated value applies exactly.
    """
    if fade_duration <= 0.0:
        raise ConfigError(f"fade_duration={fade_duration} must be > 0")
    if t_since_signal < 0.0:
        raise ConfigError(f"t_since_signal={t_since_signal} must be >= 0")
    target = env_light_intensity(theta, rng, levels, gamma)
    return lerp(original, target, min(t_since_signal / fade_duration, 1.0))


def spot_intensity(
    theta: float, rng: AngularRange, levels: LightLevels, gamma: float
) -> float:
    """Spotlight brightness at deviation theta; same form as the env light."""
    return lerp(levels.l_min, levels.l_max, normalized_progress(theta, rng, gamma))


def spot_cone_angle(
    theta: float, rng: AngularRange, geometry: SpotlightGeometry, gamma: float
) -> float:
    """Spotlight cone width at deviation theta."""
    return lerp(geometry.a_min, geometry.a_max, normalized_progress(theta, rng, gamma))


def point_light_color(
    theta: float,
    rng: AngularRange,
    warm: ColorRGB,
    cold: ColorRGB,
    gamma: float,
) -> ColorRGB:
    """Point-light color: cold at theta_min, warm at theta_max."""
    p = normalized_progress(theta, rng, gamma)

    def chan(w: float, c: float) -> float:
        return max(0.0, min(1.0, lerp(c, w, p)))

    return ColorRGB(chan(warm.r, cold.r), chan(warm.g, cold.g), chan(warm.b, cold.b))


def point_light_position(pose: Pose, side: Side, azimuth: float, radius: float) -> Vec3:
    """Head-affixed light position: radius meters from the head, azimuth
    degrees off the horizontal head forward (+z when the head looks straight
    up or down) toward side. Written on scalars, with the vector steps' float
    ops in their order and the zero y terms kept for their sign."""
    h, p = pose.head_forward, pose.position
    n = math.sqrt(h.x * h.x + h.z * h.z)
    ax, az = (h.x / n, h.z / n) if n > 1e-12 else (0.0, 1.0)
    sign = 1.0 if side is Side.RIGHT else -1.0  # the lateral is sign * (az, 0, -ax)
    a = math.radians(azimuth)
    c, s = math.cos(a), math.sin(a)
    dx = ax * c + az * sign * s
    dy = 0.0 * c + 0.0 * sign * s
    dz = az * c + -ax * sign * s
    m = math.sqrt(dx * dx + dy * dy + dz * dz)
    return Vec3(p.x + dx / m * radius, p.y + dy / m * radius, p.z + dz / m * radius)


def point_light(
    pose: Pose,
    target: Vec3,
    theta: float,
    in_view: bool,
    rng: AngularRange,
    *,
    azimuth: float,
    radius: float,
    warm: ColorRGB,
    cold: ColorRGB,
    gamma: float,
) -> PointLightState:
    """Point light for a given head-to-target angle and viewport flag."""
    side = lateral_side(pose, target)
    return PointLightState(
        active=not in_view,
        side=side,
        position=point_light_position(pose, side, azimuth, radius),
        color=point_light_color(theta, rng, warm, cold, gamma),
    )


def point_light_state(
    pose: Pose,
    target: Vec3,
    rng: AngularRange,
    *,
    half_angle: float,
    azimuth: float,
    radius: float,
    warm: ColorRGB,
    cold: ColorRGB,
    gamma: float,
) -> PointLightState:
    """Head-affixed directional point light; active only out of viewport.

    Placed radius meters from the head at azimuth degrees off head forward,
    on the lateral side of the target; colored by the head-to-target angle.
    """
    theta, _, in_view = target_view(pose, target, half_angle)
    return point_light(
        pose, target, theta, in_view, rng,
        azimuth=azimuth, radius=radius, warm=warm, cold=cold, gamma=gamma,
    )


def spotlight(
    target: Vec3,
    theta: float,
    in_view: bool,
    rng: AngularRange,
    levels: LightLevels,
    geometry: SpotlightGeometry,
    *,
    gamma: float,
    deactivate_at_min: bool,
) -> SpotlightState:
    """Spotlight for a given gaze-to-target angle and viewport flag."""
    if not in_view or (deactivate_at_min and theta <= rng.theta_min):
        return SpotlightState(active=False, intensity=0.0, cone_angle=geometry.a_min, aim=target)
    return SpotlightState(
        active=True,
        intensity=spot_intensity(theta, rng, levels, gamma),
        cone_angle=spot_cone_angle(theta, rng, geometry, gamma),
        aim=target,
    )


def spotlight_state(
    pose: Pose,
    target: Vec3,
    rng: AngularRange,
    levels: LightLevels,
    geometry: SpotlightGeometry,
    *,
    half_angle: float,
    gamma: float,
    deactivate_at_min: bool = True,
) -> SpotlightState:
    """Target-aimed spotlight; active only within the viewport.

    Intensity and cone angle both widen with the gaze-to-target angle.
    With deactivate_at_min the light switches off once the gaze has fully
    arrived (theta <= theta_min).
    """
    _, theta, in_view = target_view(pose, target, half_angle)
    return spotlight(
        target, theta, in_view, rng, levels, geometry,
        gamma=gamma, deactivate_at_min=deactivate_at_min,
    )
