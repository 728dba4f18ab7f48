import math
import random

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from turncue.errors import ConfigError, DegenerateGeometryError, InvalidDirectionError
from turncue.geometry import (
    AngularRange,
    DeviationReference,
    Pose,
    Side,
    Vec3,
    _progress,
    _unit_angle,
    angular_deviation,
    deviation_to_target,
    lateral_side,
    target_view,
)

X = Vec3(1.0, 0.0, 0.0)
Y = Vec3(0.0, 1.0, 0.0)
Z = Vec3(0.0, 0.0, 1.0)


def pose_at(position=Vec3(0, 0, 0), head=Z, gaze=Z, t=0.0):
    return Pose(position=position, head_forward=head, gaze_forward=gaze, timestamp=t)


def random_unit(rng):
    while True:
        v = Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        if 1e-3 < v.norm() <= 1.0:
            return v.normalized()


def test_angular_deviation_identical():
    assert angular_deviation(X, X) == 0.0


def test_angular_deviation_orthogonal():
    assert angular_deviation(X, Z) == pytest.approx(90.0, abs=1e-12)


def test_angular_deviation_opposite():
    assert angular_deviation(X, Vec3(-1, 0, 0)) == pytest.approx(180.0, abs=1e-12)


def test_angular_deviation_rejects_non_unit():
    with pytest.raises(InvalidDirectionError):
        angular_deviation(Vec3(2, 0, 0), X)


def test_angular_deviation_symmetric_and_bounded():
    rng = random.Random(101)
    for _ in range(2000):
        a = random_unit(rng)
        b = random_unit(rng)
        d1 = angular_deviation(a, b)
        d2 = angular_deviation(b, a)
        assert d1 == d2
        assert 0.0 <= d1 <= 180.0


def test_deviation_to_target_head_reference():
    p = pose_at(head=X)
    assert deviation_to_target(p, Vec3(0, 0, 2), DeviationReference.HEAD_TO_TARGET) == pytest.approx(90.0)


def test_deviation_to_target_gaze_reference_aligned():
    p = pose_at(gaze=Z)
    assert deviation_to_target(p, Vec3(0, 0, 3), DeviationReference.GAZE_TO_TARGET) == pytest.approx(0.0)


def test_deviation_to_target_degenerate():
    p = pose_at(position=Vec3(1, 2, 3))
    with pytest.raises(DegenerateGeometryError):
        deviation_to_target(p, Vec3(1, 2, 3), DeviationReference.HEAD_TO_TARGET)


def test_target_view_dead_ahead():
    assert target_view(pose_at(), Vec3(0, 0, 4), 45.0) == (0.0, 0.0, True)


def test_target_view_lateral_target():
    # 75 degrees off head forward
    ang = math.radians(75.0)
    target = Vec3(math.sin(ang) * 2, 0.0, math.cos(ang) * 2)
    head, gaze, in_view = target_view(pose_at(), target, 45.0)
    assert head == pytest.approx(75.0) and gaze == pytest.approx(75.0)
    assert not in_view


def test_target_view_inclusive_boundary():
    target = Vec3(2.0, 0.0, 2.0)  # exactly 45 degrees off +z
    assert target_view(pose_at(), target, 45.0)[2]


def test_target_view_matches_deviation_oracle():
    rng = random.Random(77)
    for _ in range(10_000):
        pos = Vec3(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3))
        head = random_unit(rng)
        target = pos + random_unit(rng).scaled(rng.uniform(0.5, 5.0))
        half = rng.uniform(5.0, 175.0)
        p = pose_at(position=pos, head=head, gaze=head)
        expect = angular_deviation(head, (target - pos).normalized()) <= half + 1e-9
        assert target_view(p, target, half)[2] == expect


def _acos_angle(u: tuple, v: tuple) -> float:
    """Degrees between two nonzero 3-tuples, from their dot product alone."""
    cos = sum(a * b for a, b in zip(u, v)) / math.sqrt(sum(a * a for a in u) * sum(b * b for b in v))
    return math.degrees(math.acos(max(-1.0, min(1.0, cos))))


_COORD = st.floats(-3.0, 3.0)
_VECTOR = st.tuples(_COORD, _COORD, _COORD)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(position=_VECTOR, offset=_VECTOR, head=_VECTOR, gaze=st.none() | _VECTOR,
       half=st.floats(1.0, 179.0))
def test_target_view_matches_acos_oracle(angle_calls, position, offset, head, gaze, half):
    # gaze None: the pose's gaze is its head object, and one angle serves both.
    for v in (offset, head, gaze or head):
        assume(math.sqrt(sum(c * c for c in v)) > 0.1)
    head_dir = Vec3(*head).normalized()
    gaze_dir = head_dir if gaze is None else Vec3(*gaze).normalized()
    origin = Vec3(*position)
    target = origin + Vec3(*offset)
    to_target = tuple(t - o for t, o in zip(target, position))
    angle_calls.update(direction_to=0, angular_deviation=0)
    head_theta, gaze_theta, in_view = target_view(pose_at(origin, head_dir, gaze_dir), target, half)
    assert angle_calls == {"direction_to": 1, "angular_deviation": 1 if gaze is None else 2}
    expect_head = _acos_angle(head, to_target)
    assert head_theta == pytest.approx(expect_head, abs=1e-5)
    assert gaze_theta == pytest.approx(_acos_angle(gaze or head, to_target), abs=1e-5)
    if gaze is None:
        assert gaze_theta == head_theta
    if abs(expect_head - half) > 1e-5:
        assert in_view == (expect_head <= half)


_UNIT = _VECTOR.filter(lambda v: math.sqrt(sum(c * c for c in v)) > 0.1).map(lambda v: Vec3(*v).normalized())


@given(a=_UNIT, b=_UNIT)
@example(a=X, b=X)
@example(a=X, b=Vec3(-1.0, 0.0, 0.0))
def test_unchecked_angle_is_angular_deviation_bit_for_bit(a, b):
    # The kernel's angle on directions checked where they entered is the
    # public angle without its checks, and both are the vector formula.
    expect = math.degrees(math.acos(max(-1.0, min(1.0, a.dot(b)))))
    assert _unit_angle(a, b).hex() == angular_deviation(a, b).hex() == expect.hex()


def test_lateral_side_right():
    assert lateral_side(pose_at(head=Z), Vec3(1, 0, 0)) is Side.RIGHT


def test_lateral_side_left():
    assert lateral_side(pose_at(head=Z), Vec3(-1, 0, 0)) is Side.LEFT


def test_lateral_side_behind_tie_breaks_right():
    assert lateral_side(pose_at(head=Z), Vec3(0, 0, -1)) is Side.RIGHT


# Normalized progress is geometry._progress: gamma is checked where it enters, not here.
def test_normalized_progress_upper_boundary():
    assert _progress(90.0, AngularRange(0, 90), 1.0) == 1.0


def test_normalized_progress_lower_boundary():
    assert _progress(0.0, AngularRange(0, 90), 1.0) == 0.0


def test_normalized_progress_curved():
    # direct evaluation of (45/90)^2
    assert _progress(45.0, AngularRange(0, 90), 2.0) == pytest.approx(0.25, abs=1e-15)


def test_normalized_progress_clamps_above():
    assert _progress(120.0, AngularRange(0, 90), 1.0) == 1.0


def test_normalized_progress_exact_at_nonzero_theta_min():
    rng = AngularRange(20.0, 110.0)
    assert _progress(20.0, rng, 2.5) == 0.0
    assert _progress(110.0, rng, 2.5) == 1.0


def test_normalized_progress_gamma_one_is_affine():
    rng = AngularRange(10.0, 70.0)
    assert _progress(40.0, rng, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_normalized_progress_monotone():
    rng = random.Random(5)
    for _ in range(5000):
        lo = rng.uniform(0, 170)
        hi = rng.uniform(lo + 1.0, 180)
        r = AngularRange(lo, hi)
        gamma = rng.uniform(0.05, 8.0)
        t1 = rng.uniform(-10, 190)
        t2 = rng.uniform(t1, 190)
        assert _progress(t2, r, gamma) >= _progress(t1, r, gamma) - 1e-12


def test_angular_range_rejects_inverted():
    with pytest.raises(ConfigError):
        AngularRange(90.0, 30.0)


def test_pose_rejects_non_unit_directions():
    with pytest.raises(InvalidDirectionError):
        Pose(position=Vec3(0, 0, 0), head_forward=Vec3(0, 0, 2), gaze_forward=Z, timestamp=0.0)
