import random

import pytest

from turncue.audio import sound_source_position
from turncue.errors import ConfigError, DegenerateGeometryError
from turncue.geometry import AngularRange, Vec3

R90 = AngularRange(0.0, 90.0)
U = Vec3(0.0, 0.0, 0.0)
T = Vec3(2.0, 0.0, 0.0)


def test_source_at_user_when_theta_at_max():
    assert sound_source_position(U, T, 90.0, R90) == U


def test_source_at_target_when_theta_at_min():
    assert sound_source_position(U, T, 0.0, R90) == T


def test_source_midpoint():
    p = sound_source_position(U, T, 45.0, R90)
    assert (p.x, p.y, p.z) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)


def test_source_degenerate_path():
    with pytest.raises(DegenerateGeometryError):
        sound_source_position(U, U, 45.0, R90)


def test_source_always_on_segment():
    rng = random.Random(12)
    for _ in range(5000):
        u = Vec3(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5))
        t = u + Vec3(rng.uniform(0.1, 5), rng.uniform(-5, 5), rng.uniform(-5, 5))
        theta = rng.uniform(-20.0, 200.0)
        easing = rng.choice(("linear", "cosine"))
        p = sound_source_position(u, t, theta, R90, easing)
        seg = t - u
        s = (p - u).dot(seg) / seg.dot(seg)
        assert -1e-12 <= s <= 1.0 + 1e-12
        residual = (p - u) - seg.scaled(s)
        assert residual.norm() < 1e-9


def test_source_monotone_toward_target_as_theta_falls():
    seg = T - U
    prev = -1.0
    for theta in [90 - i * 0.5 for i in range(181)]:
        p = sound_source_position(U, T, theta, R90)
        s = (p - U).dot(seg) / seg.dot(seg)
        assert s >= prev - 1e-12
        prev = s


def test_source_cosine_easing_hits_same_endpoints():
    assert sound_source_position(U, T, 90.0, R90, "cosine") == U
    assert sound_source_position(U, T, 0.0, R90, "cosine") == T


def test_source_unknown_easing():
    with pytest.raises(ConfigError):
        sound_source_position(U, T, 45.0, R90, "bounce")

