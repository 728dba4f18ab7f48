import pytest

from turncue.audio import Role
from turncue.baselines import FLICKER_HZ, sgd_phase, sgd_state, text_icon_state
from turncue.config import GuidanceConfig
from turncue.geometry import Pose, Vec3
from turncue.session import IDLE, begin_signal, tick

CFG = GuidanceConfig()
TARGET = Vec3(2.0, 0.0, 0.0)
DESK = Vec3(0.0, -0.3, 0.6)
AHEAD = Vec3(0.0, 0.0, 1.0)


def pose(t, facing):
    return Pose(position=Vec3(0, 0, 0), head_forward=facing, gaze_forward=facing, timestamp=t)


def signaled_state():
    return begin_signal(IDLE, pose(0.0, AHEAD), TARGET, Role.LISTENER, CFG)


def test_text_icon_active_while_signaled():
    ti = text_icon_state(signaled_state(), TARGET, "Alex", DESK)
    assert ti.panel_active and ti.icon_active
    assert ti.panel_text == "Alex"
    assert ti.panel_anchor == DESK
    assert ti.icon_anchor.y > TARGET.y  # hand icon floats above the avatar


def test_text_icon_inactive_after_acknowledgment():
    state = signaled_state()
    for k in range(1, 30):
        state, _ = tick(state, pose(k * 0.1, Vec3(1.0, 0.0, 0.0)), TARGET, 0.1, CFG)
    ti = text_icon_state(state, TARGET, "Alex", DESK)
    assert not ti.panel_active and not ti.icon_active
    assert ti.panel_text == ""


def test_text_icon_inactive_when_idle():
    ti = text_icon_state(IDLE, TARGET, "Alex", DESK)
    assert not ti.panel_active and not ti.icon_active


def test_text_icon_anchors_world_fixed():
    state = signaled_state()
    anchors = set()
    for k in range(1, 10):
        state, _ = tick(state, pose(k * 0.1, AHEAD), TARGET, 0.1, CFG)
        ti = text_icon_state(state, TARGET, "Alex", DESK)
        anchors.add((ti.panel_anchor.to_tuple(), ti.icon_anchor.to_tuple()))
    assert len(anchors) == 1


def test_sgd_active_and_phase_on_early():
    s = sgd_state(signaled_state(), pose(0.01, AHEAD), TARGET, 0.01, CFG.ack_threshold)
    assert s.active
    assert s.phase_on
    assert FLICKER_HZ == 10.0


def test_sgd_phase_off_in_second_half_period():
    s = sgd_state(signaled_state(), pose(0.06, AHEAD), TARGET, 0.06, CFG.ack_threshold)
    assert s.active
    assert not s.phase_on


def test_sgd_inactive_when_nearly_aligned():
    import math

    facing = Vec3(math.cos(math.radians(2.0)), 0.0, math.sin(math.radians(2.0)))
    s = sgd_state(signaled_state(), pose(0.1, facing), TARGET, 0.1, CFG.ack_threshold)
    assert not s.active


def test_sgd_inactive_outside_signal():
    s = sgd_state(IDLE, pose(0.0, AHEAD), TARGET, 0.0, CFG.ack_threshold)
    assert not s.active


def test_sgd_phase_alternates_at_10hz():
    # over any 1 s window the on-fraction is half, within one frame
    dt = 1.0 / 72.0
    for start in (0.0, 0.17, 0.305, 1.9):
        on = sum(1 for k in range(72) if sgd_phase(start + k * dt))
        assert abs(on - 36) <= 1


def test_sgd_period_is_exactly_point_one_seconds():
    assert sgd_phase(0.0) and not sgd_phase(0.05 + 1e-9)
    assert sgd_phase(0.1 + 1e-9) and not sgd_phase(0.15 + 1e-9)


@pytest.mark.parametrize("now,expected", [(0.01, True), (0.04, True), (0.06, False), (0.09, False)])
def test_sgd_square_wave_samples(now, expected):
    assert sgd_phase(now) is expected
