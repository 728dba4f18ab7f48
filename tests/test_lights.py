import math
import random

import pytest
from hypothesis import example, given, strategies as st

from turncue.config import GuidanceConfig
from turncue.configio import parse_config
from turncue.errors import ConfigError
from turncue.geometry import AngularRange, Pose, Side, Vec3, target_view
from turncue.lights import (
    ColorRGB,
    LightLevels,
    SpotlightGeometry,
    env_light_with_fade,
    light_intensity,
    point_light_color,
    point_light_position,
    point_light_state,
    spotlight_state,
)

ENV = LightLevels(0.5, 1.1)
SPOT = LightLevels(0.8, 1.5)
CONE = SpotlightGeometry(30.0, 60.0)
WARM = ColorRGB(1.0, 0.902, 0.259)
COLD = ColorRGB(1.0, 1.0, 1.0)
R90 = AngularRange(0.0, 90.0)


def test_env_intensity_upper_boundary():
    assert light_intensity(90.0, R90, ENV, 1.0) == pytest.approx(1.1, abs=1e-12)


def test_env_intensity_lower_boundary():
    assert light_intensity(0.0, R90, ENV, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_env_intensity_midpoint():
    # 0.5 + 0.6 * 0.5, straight off the formula
    assert light_intensity(45.0, R90, ENV, 1.0) == pytest.approx(0.8, abs=1e-12)


def test_fade_not_started():
    assert env_light_with_fade(0.0, 0.0, 1.1, R90, ENV, 1.0) == pytest.approx(1.1, abs=1e-12)


def test_fade_complete_at_minimum():
    assert env_light_with_fade(2.0, 0.0, 1.1, R90, ENV, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_fade_midpoint_is_linear():
    assert env_light_with_fade(1.0, 0.0, 1.1, R90, ENV, 1.0) == pytest.approx(0.8, abs=1e-12)


def test_fade_rejects_bad_duration():
    with pytest.raises(ConfigError):
        env_light_with_fade(0.5, 0.0, 1.1, R90, ENV, 1.0, fade_duration=0.0)


def test_point_color_warm_at_max():
    c = point_light_color(90.0, R90, WARM, COLD, 1.0)
    assert (c.r, c.g, c.b) == pytest.approx((1.0, 0.902, 0.259), abs=1e-12)


def test_point_color_cold_at_min():
    c = point_light_color(0.0, R90, WARM, COLD, 1.0)
    assert (c.r, c.g, c.b) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)


def test_point_color_midpoint():
    # per-channel linear midpoint between cold and warm
    c = point_light_color(45.0, R90, WARM, COLD, 1.0)
    assert (c.r, c.g, c.b) == pytest.approx((1.0, 0.951, 0.6295), abs=1e-12)


def test_point_color_channels_monotone():
    rng = random.Random(31)
    for _ in range(2000):
        gamma = rng.uniform(0.1, 8.0)
        t1 = rng.uniform(0, 180)
        t2 = rng.uniform(t1, 180)
        c1 = point_light_color(t1, R90, WARM, COLD, gamma)
        c2 = point_light_color(t2, R90, WARM, COLD, gamma)
        for ch1, ch2, w, c in zip(tuple(c1), tuple(c2), tuple(WARM), tuple(COLD)):
            if w >= c:
                assert ch2 >= ch1 - 1e-12
            else:
                assert ch2 <= ch1 + 1e-12


def _pose(head, gaze, pos=Vec3(0, 0, 0), t=0.0):
    return Pose(position=pos, head_forward=head, gaze_forward=gaze, timestamp=t)


def _dir(deg):
    return Vec3(math.sin(math.radians(deg)), 0.0, math.cos(math.radians(deg)))


def test_point_light_behind_user_is_active_at_azimuth():
    pose = _pose(_dir(0), _dir(0))
    target = Vec3(0.0, 0.0, -2.0)
    state = point_light_state(
        pose, target, R90, half_angle=45.0, azimuth=75.0, radius=0.5,
        warm=WARM, cold=COLD, gamma=1.0,
    )
    assert state.active
    # placed 75 degrees off head forward at the configured radius
    offset = state.position - pose.position
    assert offset.norm() == pytest.approx(0.5, abs=1e-12)
    ang = math.degrees(math.acos(max(-1.0, min(1.0, offset.normalized().dot(_dir(0))))))
    assert ang == pytest.approx(75.0, abs=1e-9)


def test_point_light_inactive_within_viewport():
    pose = _pose(_dir(0), _dir(0))
    state = point_light_state(
        pose, Vec3(0, 0, 3), R90, half_angle=45.0, azimuth=75.0, radius=0.5,
        warm=WARM, cold=COLD, gamma=1.0,
    )
    assert not state.active


def test_point_light_at_75_right_is_active_on_right():
    pose = _pose(_dir(0), _dir(0))
    target = _dir(75.0).scaled(2.0)
    state = point_light_state(
        pose, target, R90, half_angle=45.0, azimuth=75.0, radius=0.5,
        warm=WARM, cold=COLD, gamma=1.0,
    )
    assert state.active
    assert state.side is Side.RIGHT


def test_spotlight_boundaries():
    # gaze at theta_max while the head faces the target
    target = Vec3(0.0, 0.0, 2.0)
    pose = _pose(head=_dir(0), gaze=Vec3(1.0, 0.0, 0.0))
    state = spotlight_state(
        pose, target, R90, SPOT, CONE, half_angle=45.0, gamma=1.0, deactivate_at_min=False
    )
    assert state.active
    assert state.intensity == pytest.approx(1.5, abs=1e-12)
    assert state.cone_angle == pytest.approx(60.0, abs=1e-12)

    aligned = _pose(head=_dir(0), gaze=_dir(0))
    state = spotlight_state(
        aligned, target, R90, SPOT, CONE, half_angle=45.0, gamma=1.0, deactivate_at_min=False
    )
    assert state.active
    assert state.intensity == pytest.approx(0.8, abs=1e-12)
    assert state.cone_angle == pytest.approx(30.0, abs=1e-12)


def test_spotlight_deactivates_at_min_when_configured():
    target = Vec3(0.0, 0.0, 2.0)
    aligned = _pose(head=_dir(0), gaze=_dir(0))
    state = spotlight_state(
        aligned, target, R90, SPOT, CONE, half_angle=45.0, gamma=1.0, deactivate_at_min=True
    )
    assert not state.active


def test_spotlight_midpoint():
    target = Vec3(0.0, 0.0, 2.0)
    pose = _pose(head=_dir(0), gaze=_dir(45.0))
    state = spotlight_state(
        pose, target, R90, SPOT, CONE, half_angle=45.0, gamma=1.0, deactivate_at_min=False
    )
    assert state.intensity == pytest.approx(1.15, abs=1e-9)
    assert state.cone_angle == pytest.approx(45.0, abs=1e-9)


@pytest.mark.parametrize("half_angle", [0.0, 180.0, math.nan])
def test_a_viewport_half_angle_outside_0_180_is_rejected_where_it_enters(half_angle):
    # target_view checks it for both lights; a session's ticks take GuidanceConfig's viewport_half_angle as checked.
    target, pose = Vec3(0.0, 0.0, 2.0), _pose(head=_dir(0), gaze=_dir(10.0))
    enters = (
        lambda: target_view(pose, target, half_angle),
        lambda: spotlight_state(pose, target, R90, SPOT, CONE, half_angle=half_angle, gamma=1.0),
        lambda: point_light_state(pose, target, R90, half_angle=half_angle, azimuth=75.0, radius=0.5,
                                  warm=WARM, cold=COLD, gamma=1.0),
    )
    for enter in enters:
        with pytest.raises(ConfigError, match=rf"^viewport half_angle={half_angle} must lie in \(0, 180\)$"):
            enter()
    assert target_view(pose, target, 45.0)[2] and not target_view(pose, Vec3(0.0, 0.0, -2.0), 179.9)[2]


def test_spotlight_inactive_out_of_viewport():
    target = Vec3(0.0, 0.0, -2.0)
    pose = _pose(head=_dir(0), gaze=_dir(0))
    state = spotlight_state(
        pose, target, R90, SPOT, CONE, half_angle=45.0, gamma=1.0, deactivate_at_min=False
    )
    assert not state.active
    assert state.intensity == 0.0


def test_all_channels_stay_in_range():
    rng = random.Random(9)
    for _ in range(3000):
        gamma = rng.uniform(0.05, 8.0)
        theta = rng.uniform(0.0, 180.0)
        lo = rng.uniform(0.0, 100.0)
        hi = rng.uniform(lo + 1.0, 180.0)
        band = AngularRange(lo, hi)
        env = light_intensity(theta, band, ENV, gamma)
        assert ENV.l_min - 1e-12 <= env <= ENV.l_max + 1e-12
        c = point_light_color(theta, band, WARM, COLD, gamma)
        for ch in tuple(c):
            assert 0.0 <= ch <= 1.0
        spot = light_intensity(theta, band, SPOT, gamma)
        assert SPOT.l_min - 1e-12 <= spot <= SPOT.l_max + 1e-12


def test_light_levels_validation():
    with pytest.raises(ConfigError):
        LightLevels(1.1, 0.5)
    with pytest.raises(ConfigError):
        SpotlightGeometry(60.0, 30.0)
    with pytest.raises(ConfigError):
        ColorRGB(1.2, 0.0, 0.0)


@pytest.mark.parametrize("channels,bad", [((1.2, 0, 0), "r=1.2"), ((0.5, -0.1, 0.5), "g=-0.1"), ((0, 0, 1.5), "b=1.5")])
def test_an_out_of_range_color_channel_is_a_config_error_naming_it(channels, bad):
    # The constructor, _make, _replace and a config file's color all check.
    message = rf"color channel {bad} must lie in \[0, 1\]$"
    for build in (lambda: ColorRGB(*channels), lambda: ColorRGB(**dict(zip("rgb", channels))),
                  lambda: ColorRGB._make(channels), lambda: COLD._replace(**dict(zip("rgb", channels)))):
        with pytest.raises(ConfigError, match=message):
            build()
    with pytest.raises(ConfigError, match=r"^\[lights\] warm: " + message):
        parse_config(f"[lights]\nwarm = {', '.join(map(str, channels))}\n")


def test_a_color_is_the_tuple_of_its_channels():
    assert WARM == (1.0, 0.902, 0.259) == tuple(WARM) == (WARM.r, WARM.g, WARM.b)
    # The point light's color is clamped, so it is built without the check, as a ColorRGB all the same.
    color = point_light_color(45.0, R90, WARM, COLD, 1.0)
    assert type(color) is ColorRGB and color == ColorRGB(*color)


def test_guidance_config_defaults_are_study_values():
    cfg = GuidanceConfig()
    assert (cfg.env_levels.l_min, cfg.env_levels.l_max) == (0.5, 1.1)
    assert (cfg.spot_levels.l_min, cfg.spot_levels.l_max) == (0.8, 1.5)
    assert (cfg.spot_geometry.a_min, cfg.spot_geometry.a_max) == (30.0, 60.0)
    assert tuple(cfg.warm) == (1.0, 0.902, 0.259)
    assert tuple(cfg.cold) == (1.0, 1.0, 1.0)
    assert cfg.point_azimuth == 75.0
    assert cfg.viewport_half_angle == 45.0


def _vector_point_light_position(pose, side, azimuth, radius):
    """Oracle: point_light_position as it was written on vectors."""
    forward = pose.head_forward
    flat = Vec3(forward.x, 0.0, forward.z)
    if flat.norm() <= 1e-12:
        flat = Vec3(0.0, 0.0, 1.0)
    ahead = flat.normalized()
    right = Vec3(ahead.z, 0.0, -ahead.x)
    lat = right if side is Side.RIGHT else right.scaled(-1.0)
    a = math.radians(azimuth)
    direction = (ahead.scaled(math.cos(a)) + lat.scaled(math.sin(a))).normalized()
    return pose.position + direction.scaled(radius)


_COORD = st.floats(-3.0, 3.0) | st.sampled_from((0.0, -0.0))
_HEAD = st.tuples(_COORD, _COORD, _COORD).filter(lambda v: math.hypot(*v) > 0.1).map(lambda v: Vec3(*v).normalized())
# Straight up and down, and heads just under and just over the 1e-12
# horizontal length below which the heading falls back to +z.
_VERTICAL = st.sampled_from([
    Vec3(0.0, 1.0, 0.0), Vec3(0.0, -1.0, 0.0), Vec3(-0.0, 1.0, -0.0),
    Vec3(5e-13, 1.0, 5e-13), Vec3(2e-12, -1.0, 0.0), Vec3(0.0, 1.0, -3e-12),
])


@given(
    position=st.tuples(_COORD, _COORD, _COORD),
    head=_HEAD | _VERTICAL,
    side=st.sampled_from(Side),
    azimuth=st.floats(0.0, 180.0) | st.sampled_from((0.0, 90.0, 180.0)),
    radius=st.floats(0.01, 5.0),
)
@example(position=(0.0, -0.0, 0.0), head=Vec3(0.0, 0.0, 1.0), side=Side.LEFT, azimuth=180.0, radius=0.5)
def test_point_light_position_is_the_vector_form_bit_for_bit(position, head, side, azimuth, radius):
    pose = Pose(Vec3(*position), head, head, 0.0)
    got = point_light_position(pose, side, azimuth, radius)
    expect = _vector_point_light_position(pose, side, azimuth, radius)
    assert tuple(map(float.hex, got)) == tuple(map(float.hex, expect))
