import math
import random

import pytest

from turncue.errors import ConfigError, DegenerateGeometryError, InvalidDirectionError
from turncue.geometry import (
    AngularRange,
    DeviationReference,
    Pose,
    Side,
    Vec3,
    angular_deviation,
    deviation_to_target,
    in_viewport,
    lateral_side,
    normalized_progress,
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


def test_in_viewport_dead_ahead():
    assert in_viewport(pose_at(), Vec3(0, 0, 4), 45.0)


def test_in_viewport_lateral_target():
    # 75 degrees off head forward
    ang = math.radians(75.0)
    target = Vec3(math.sin(ang) * 2, 0.0, math.cos(ang) * 2)
    assert not in_viewport(pose_at(), target, 45.0)


def test_in_viewport_inclusive_boundary():
    target = Vec3(2.0, 0.0, 2.0)  # exactly 45 degrees off +z
    assert in_viewport(pose_at(), target, 45.0)


def test_in_viewport_matches_deviation_oracle():
    rng = random.Random(77)
    for _ in range(10_000):
        pos = Vec3(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3))
        head = random_unit(rng)
        target = pos + random_unit(rng).scaled(rng.uniform(0.5, 5.0))
        half = rng.uniform(5.0, 175.0)
        p = pose_at(position=pos, head=head, gaze=head)
        expect = angular_deviation(head, (target - pos).normalized()) <= half + 1e-9
        assert in_viewport(p, target, half) == expect


def test_lateral_side_right():
    assert lateral_side(pose_at(head=Z), Vec3(1, 0, 0)) is Side.RIGHT


def test_lateral_side_left():
    assert lateral_side(pose_at(head=Z), Vec3(-1, 0, 0)) is Side.LEFT


def test_lateral_side_behind_tie_breaks_right():
    assert lateral_side(pose_at(head=Z), Vec3(0, 0, -1)) is Side.RIGHT


def test_normalized_progress_upper_boundary():
    assert normalized_progress(90.0, AngularRange(0, 90), 1.0) == 1.0


def test_normalized_progress_lower_boundary():
    assert normalized_progress(0.0, AngularRange(0, 90), 1.0) == 0.0


def test_normalized_progress_curved():
    # direct evaluation of (45/90)^2
    assert normalized_progress(45.0, AngularRange(0, 90), 2.0) == pytest.approx(0.25, abs=1e-15)


def test_normalized_progress_clamps_above():
    assert normalized_progress(120.0, AngularRange(0, 90), 1.0) == 1.0


def test_normalized_progress_exact_at_nonzero_theta_min():
    rng = AngularRange(20.0, 110.0)
    assert normalized_progress(20.0, rng, 2.5) == 0.0
    assert normalized_progress(110.0, rng, 2.5) == 1.0


def test_normalized_progress_gamma_one_is_affine():
    rng = AngularRange(10.0, 70.0)
    assert normalized_progress(40.0, rng, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_normalized_progress_monotone():
    rng = random.Random(5)
    for _ in range(5000):
        lo = rng.uniform(0, 170)
        hi = rng.uniform(lo + 1.0, 180)
        r = AngularRange(lo, hi)
        gamma = rng.uniform(0.05, 8.0)
        t1 = rng.uniform(-10, 190)
        t2 = rng.uniform(t1, 190)
        assert normalized_progress(t2, r, gamma) >= normalized_progress(t1, r, gamma) - 1e-12


def test_normalized_progress_rejects_bad_gamma():
    with pytest.raises(ConfigError):
        normalized_progress(45.0, AngularRange(0, 90), 0.0)


def test_angular_range_rejects_inverted():
    with pytest.raises(ConfigError):
        AngularRange(90.0, 30.0)


def test_pose_rejects_non_unit_directions():
    with pytest.raises(InvalidDirectionError):
        Pose(position=Vec3(0, 0, 0), head_forward=Vec3(0, 0, 2), gaze_forward=Z, timestamp=0.0)
