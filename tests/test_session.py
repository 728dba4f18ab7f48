import math
from dataclasses import replace

import pytest

from turncue.audio import Role
from turncue.config import GuidanceConfig
from turncue.errors import ConcurrentSignalError, ConfigError, TraceOrderError
from turncue.geometry import AngularRange, Pose, Side, Vec3
from turncue.lights import lerp
from turncue.scenario import hexagon_seats
from turncue.session import (
    IDLE,
    Resolved,
    Signaled,
    begin_signal,
    response_time,
    settled,
    tick,
)

CFG = GuidanceConfig()
DT = 0.1
TARGET = Vec3(2.0, 0.0, 0.0)  # 90 degrees right of the initial +z facing

AHEAD = Vec3(0.0, 0.0, 1.0)
AT_TARGET = Vec3(1.0, 0.0, 0.0)


def pose(t: float, facing: Vec3) -> Pose:
    return Pose(position=Vec3(0, 0, 0), head_forward=facing, gaze_forward=facing, timestamp=t)


def facing_at_angle(deg_from_target: float) -> Vec3:
    # rotate away from +x (the target direction) toward +z
    a = math.radians(deg_from_target)
    return Vec3(math.cos(a), 0.0, math.sin(a))


def walk(aligned_from: float | None, until: float, cfg=CFG, aligned_gaps=(), aligned_facing=AT_TARGET):
    """Run a session: misaligned until aligned_from, then aligned, with
    optional [start, end) gaps where alignment breaks again."""
    state = begin_signal(IDLE, pose(0.0, AHEAD), TARGET, Role.LISTENER, cfg)
    frames = []
    k = 1
    while k * DT <= until + 1e-9:
        t = k * DT
        aligned = aligned_from is not None and t >= aligned_from - 1e-9
        for lo, hi in aligned_gaps:
            if lo - 1e-9 <= t < hi - 1e-9:
                aligned = False
        state, frame = tick(state, pose(t, aligned_facing if aligned else AHEAD), TARGET, DT, cfg)
        frames.append(frame)
        if isinstance(state, Resolved):
            break
        k += 1
    return state, frames


def test_begin_signal_captures_head_range():
    state = begin_signal(IDLE, pose(0.0, AHEAD), TARGET, Role.LISTENER, CFG)
    assert state.head_range.theta_max == pytest.approx(90.0, abs=1e-9)
    assert state.gaze_range.theta_max == pytest.approx(90.0, abs=1e-9)
    assert not state.target_in_view_at_signal


def test_begin_signal_floors_degenerate_range():
    state = begin_signal(IDLE, pose(0.0, AT_TARGET), TARGET, Role.LISTENER, CFG)
    assert state.head_range.theta_max == CFG.theta_min + 1.0
    assert state.target_in_view_at_signal


@pytest.mark.parametrize(
    "t,cfg,chimes",
    [
        (5.0, CFG, (5.0,)),
        (0.0, CFG, (0.0,)),
        (5.0, GuidanceConfig(chime_max_repeats=2, chime_repeat_interval=3.0), (5.0, 8.0)),
        (1.0, GuidanceConfig(chime_max_repeats=3, chime_repeat_interval=1.5), (1.0, 2.5, 4.0)),
    ],
    ids=["single", "single-at-zero", "repeat-twice", "repeat-thrice"],
)
def test_begin_signal_schedules_a_chime_at_the_signal_then_every_interval(t, cfg, chimes):
    assert begin_signal(IDLE, pose(t, AHEAD), TARGET, Role.LISTENER, cfg).chimes == chimes


def test_begin_signal_rejects_a_negative_signal_time():
    with pytest.raises(ConfigError, match=r"^signal_time=-1\.0 must be >= 0$"):
        begin_signal(IDLE, pose(-1.0, AHEAD), TARGET, Role.LISTENER, CFG)


def test_begin_signal_rejects_concurrent():
    state = begin_signal(IDLE, pose(0.0, AHEAD), TARGET, Role.LISTENER, CFG)
    with pytest.raises(ConcurrentSignalError):
        begin_signal(state, pose(0.1, AHEAD), TARGET, Role.LISTENER, CFG)


def test_begin_signal_allowed_after_terminal():
    state, _ = walk(aligned_from=0.1, until=6.0)
    assert isinstance(state, Resolved) and state.response_time is not None
    fresh = begin_signal(state, pose(10.0, AHEAD), TARGET, Role.SPEAKER, CFG)
    assert isinstance(fresh, Signaled)


def test_acknowledgment_timing_and_response_time():
    # alignment starts at t=2.0 and holds: acknowledged 1.5 s later
    state, _ = walk(aligned_from=2.0, until=6.0)
    assert isinstance(state, Resolved)
    assert state.response_time == pytest.approx(2.0, abs=1e-9)
    assert abs(state.end_time - 3.5) <= DT + 1e-9
    assert state.response_time < CFG.miss_timeout
    assert response_time(state) == state.response_time


def test_immediate_alignment_accumulates_from_first_tick():
    state, _ = walk(aligned_from=0.1, until=6.0)
    assert isinstance(state, Resolved)
    assert state.response_time == pytest.approx(0.1, abs=1e-9)


def test_missed_at_timeout():
    state, frames = walk(aligned_from=None, until=7.0)
    assert isinstance(state, Resolved)
    assert state.end_time == pytest.approx(5.0, abs=DT + 1e-9)
    assert response_time(state) is None
    assert frames[-1].session_state == "missed"


def test_broken_dwell_restarts():
    # aligned 2.0-2.9, broken 3.0-3.4, re-aligned from 3.5
    state, _ = walk(aligned_from=2.0, until=7.0, aligned_gaps=((3.0, 3.5),))
    assert isinstance(state, Resolved)
    assert state.response_time == pytest.approx(3.5, abs=1e-9)


def test_tick_on_idle_is_noop_frame():
    state, frame = tick(IDLE, pose(0.0, AHEAD), None, DT, CFG)
    assert state is IDLE
    assert frame.session_state == "idle"
    assert frame.env_intensity == CFG.env_levels.l_max
    assert not frame.point.active
    assert not frame.spot.active
    assert frame.duck_gain == 1.0


def test_point_light_without_a_target_sits_right_at_every_hexagon_seat():
    # Facing any other seat from any seat, with no target the point light's
    # side is the documented dead-ahead tie, RIGHT, not a rounding accident.
    seats = hexagon_seats()
    for user in seats:
        for resting in seats:
            if resting is user:
                continue
            facing = (resting - user).normalized()
            p = Pose(position=user, head_forward=facing, gaze_forward=facing, timestamp=0.0)
            _, frame = tick(IDLE, p, None, DT, CFG)
            assert frame.point.side is Side.RIGHT, (seats.index(user), seats.index(resting))


def test_non_monotone_timestamp_rejected():
    state = begin_signal(IDLE, pose(1.0, AHEAD), TARGET, Role.LISTENER, CFG)
    state, _ = tick(state, pose(1.1, AHEAD), TARGET, DT, CFG)
    with pytest.raises(TraceOrderError):
        tick(state, pose(0.9, AHEAD), TARGET, DT, CFG)


def test_viewport_gating_flips_on_one_tick():
    cfg = GuidanceConfig(spot_deactivate_at_min=False)
    state = begin_signal(IDLE, pose(0.0, AHEAD), TARGET, Role.LISTENER, cfg)
    flips = 0
    prev_point = None
    for k in range(1, 12):
        t = k * DT
        # swing from 90 degrees off target to aligned in 11 steps
        facing = facing_at_angle(max(0.0, 90.0 - 9.0 * k))
        state, frame = tick(state, pose(t, facing), TARGET, DT, cfg)
        if not isinstance(state, Signaled):
            break
        assert frame.point.active != frame.spot.active
        if prev_point is not None and frame.point.active != prev_point:
            flips += 1
        prev_point = frame.point.active
    assert flips == 1


def test_env_intensity_bounded_by_original_and_minimum():
    for aligned_from in (0.5, 2.0, None):
        state, frames = walk(aligned_from=aligned_from, until=7.0)
        for frame in frames:
            assert CFG.env_levels.l_min - 1e-12 <= frame.env_intensity
            assert frame.env_intensity <= CFG.env_levels.l_max + 1e-12


@pytest.mark.parametrize("aligned_from", [2.0, None], ids=["acknowledged", "missed"])
def test_env_restores_after_the_session_resolves(aligned_from):
    # Both outcomes fade back the same way: the 2 s profile from the env at
    # the resolving tick, with tick returning the same Resolved state. The
    # acknowledging gaze rests 8 degrees off the target, so neither env is at l_max.
    state, frames = walk(aligned_from=aligned_from, until=6.0, aligned_facing=facing_at_angle(8.0))
    assert isinstance(state, Resolved) and (state.response_time is None) == (aligned_from is None)
    assert frames[-1].env_intensity == state.env_at_end < CFG.env_levels.l_max
    signaled = begin_signal(IDLE, pose(0.0, AHEAD), TARGET, Role.LISTENER, CFG)
    assert not settled(signaled, 0.0, CFG)
    assert not settled(tick(signaled, pose(DT, AHEAD), TARGET, DT, CFG)[0], DT, CFG)
    steps = round(CFG.fade_duration / DT)
    flags = []
    for k in range(steps + 4):
        now = state.end_time + k * DT
        after, frame = tick(state, pose(now, AT_TARGET), TARGET, DT, CFG)
        assert after is state
        assert frame.session_state == ("missed" if aligned_from is None else "acknowledged")
        fraction = min(max(now - state.end_time, 0.0) / CFG.fade_duration, 1.0)
        assert frame.env_intensity == lerp(state.env_at_end, CFG.env_levels.l_max, fraction)
        flags.append(settled(state, now, CFG))
        assert flags[-1] == (fraction == 1.0)
    # false through the fade, then true from the first tick at its end on
    first = flags.index(True)
    assert first in (steps, steps + 1) and all(flags[first:])
    assert frame.env_intensity == pytest.approx(CFG.env_levels.l_max, abs=1e-12)
    _, halfway = tick(state, pose(state.end_time + CFG.fade_duration / 2, AT_TARGET), TARGET, DT, CFG)
    expected = state.env_at_end + (CFG.env_levels.l_max - state.env_at_end) * 0.5
    assert halfway.env_intensity == pytest.approx(expected, abs=1e-12)


def test_duck_applies_to_listener_until_window_ends():
    state = begin_signal(IDLE, pose(0.0, AHEAD), TARGET, Role.LISTENER, CFG)
    state, early = tick(state, pose(0.5, AHEAD), TARGET, DT, CFG)
    assert early.duck_gain == CFG.duck_gain
    assert early.chime
    state, late = tick(state, pose(2.5, AHEAD), TARGET, DT, CFG)
    assert late.duck_gain == 1.0
    assert not late.chime


def test_duck_never_applies_to_speaker():
    state = begin_signal(IDLE, pose(0.0, AHEAD), TARGET, Role.SPEAKER, CFG)
    state, frame = tick(state, pose(0.5, AHEAD), TARGET, DT, CFG)
    assert frame.duck_gain == 1.0


def test_subtlety_shallows_the_duck():
    cfg = GuidanceConfig(subtlety=0.5)
    state = begin_signal(IDLE, pose(0.0, AHEAD), TARGET, Role.LISTENER, cfg)
    state, frame = tick(state, pose(0.5, AHEAD), TARGET, DT, cfg)
    assert frame.duck_gain == pytest.approx(0.75)


def test_zero_subtlety_disables_the_duck():
    cfg = GuidanceConfig(subtlety=0.0)
    state = begin_signal(IDLE, pose(0.0, AHEAD), TARGET, Role.LISTENER, cfg)
    state, frame = tick(state, pose(0.5, AHEAD), TARGET, DT, cfg)
    assert frame.chime
    assert frame.duck_gain == 1.0


def _chime_timeline(role: Role, cfg: GuidanceConfig, dt: float = 0.125):
    """(t, chime active, duck gain) at every tick of a session signaled at
    t=0 and held 90 degrees off its target until the tick before its miss."""
    state = begin_signal(IDLE, pose(0.0, AHEAD), TARGET, role, cfg)
    timeline = []
    for k in range(round(cfg.miss_timeout / dt)):
        state, frame = tick(state, pose(k * dt, AHEAD), TARGET, dt, cfg)
        assert isinstance(state, Signaled)
        timeline.append((k * dt, frame.chime, frame.duck_gain))
    return timeline


def test_repeated_chimes_duck_a_listener_inside_each_chime_window():
    cfg = GuidanceConfig(chime_max_repeats=3, chime_repeat_interval=1.5, duck_duration=1.0)
    for role, gain in ((Role.LISTENER, cfg.duck_gain), (Role.SPEAKER, 1.0)):
        for t, chime, duck in _chime_timeline(role, cfg):
            inside = any(c <= t < c + 1.0 for c in (0.0, 1.5, 3.0))
            assert (chime, duck) == (inside, gain if inside else 1.0), (role, t)
    # Subtlety 0.5 plays round(3 * 0.5) = 2 chimes at a shallower duck.
    for t, chime, duck in _chime_timeline(Role.LISTENER, replace(cfg, subtlety=0.5)):
        inside = any(c <= t < c + 1.0 for c in (0.0, 1.5))
        assert (chime, duck) == (inside, 0.75 if inside else 1.0), t


def test_duck_integral_over_containing_interval():
    # a listener signal at t=1 ducks the speaker to 0.5 over [1, 3) only
    dt = 0.01
    state = IDLE
    total = 0.0
    for i in range(500):  # [0, 5)
        if i == 100:
            state = begin_signal(state, pose(i * dt, AHEAD), TARGET, Role.LISTENER, CFG)
        state, frame = tick(state, pose(i * dt, AHEAD), TARGET, dt, CFG)
        total += frame.duck_gain * dt
    assert isinstance(state, Signaled)
    assert total == pytest.approx(2.0 * 0.5 + 3.0 * 1.0, abs=2 * dt)


def _count_signaled_tick_angles(calls, gaze_angle):
    """Angle calls of a signaled tick with the head 30 degrees off the target
    and the gaze at gaze_angle (None: the head's object), then of a tick on
    the same pose objects; the second tick's cues must equal the first's."""
    state = begin_signal(IDLE, pose(0.0, AHEAD), TARGET, Role.LISTENER, CFG)
    head = facing_at_angle(30.0)
    gaze = head if gaze_angle is None else facing_at_angle(gaze_angle)
    first = Pose(position=Vec3(0, 0, 0), head_forward=head, gaze_forward=gaze, timestamp=0.5)
    calls.update(direction_to=0, angular_deviation=0)
    state, frame = tick(state, first, TARGET, DT, CFG)
    assert isinstance(state, Signaled)
    assert frame.spot.active and frame.chime
    counts = [dict(calls)]
    calls.update(direction_to=0, angular_deviation=0)
    _, later = tick(state, replace(first, timestamp=0.6), TARGET, DT, CFG)
    counts.append(dict(calls))
    # cues are reused; the env light still fades
    assert (later.point, later.spot, later.sound_pos) == (frame.point, frame.spot, frame.sound_pos)
    assert later.env_intensity != frame.env_intensity
    return counts


def test_signaled_tick_computes_each_target_angle_once(angle_calls):
    # The gaze is the head: one angle to the target serves both, and the
    # second angle is the env light's gaze against the gaze at signal time.
    # On the same pose objects a tick later, every angle is the last tick's.
    first, repeat = _count_signaled_tick_angles(angle_calls, None)
    assert first == {"direction_to": 1, "angular_deviation": 2}
    assert repeat == {"direction_to": 0, "angular_deviation": 0}


def test_signaled_tick_with_gaze_apart_from_head_computes_three_angles(angle_calls):
    first, repeat = _count_signaled_tick_angles(angle_calls, 20.0)
    assert first == {"direction_to": 1, "angular_deviation": 3}
    assert repeat == {"direction_to": 0, "angular_deviation": 0}


def _fresh(p: Pose) -> Pose:
    """p with new vector objects of equal value."""
    vectors = (Vec3(*v) for v in (p.position, p.head_forward, p.gaze_forward))
    return Pose(*vectors, p.timestamp)


def test_ticks_on_repeated_pose_objects_equal_ticks_on_fresh_copies():
    # The head turns, holds off the target, then dwells on it until the
    # acknowledgment; the cached session sees the same objects on each hold.
    position = Vec3(0, 0, 0)
    heads = [AHEAD] * 3 + [facing_at_angle(a) for a in (60.0, 30.0)] * 2 + [AT_TARGET] * 20
    cached = computed = begin_signal(IDLE, pose(0.0, AHEAD), TARGET, Role.LISTENER, CFG)
    for k, head in enumerate(heads, start=1):
        p = Pose(position=position, head_forward=head, gaze_forward=head, timestamp=k * DT)
        last_cues = getattr(cached, "cues", None)
        cached, cached_frame = tick(cached, p, TARGET, DT, CFG)
        computed, computed_frame = tick(computed, _fresh(p), Vec3(*TARGET), DT, CFG)
        assert cached == computed and cached_frame == computed_frame
        if k > 1 and head is heads[k - 2] and isinstance(cached, Signaled):
            assert cached.cues is last_cues
        if not isinstance(cached, Signaled):
            break
    assert isinstance(cached, Resolved) and cached.response_time is not None


def test_signaled_equality_repr_and_hash_ignore_the_cue_cache():
    state = begin_signal(IDLE, pose(0.0, AHEAD), TARGET, Role.LISTENER, CFG)
    p = pose(0.1, facing_at_angle(30.0))
    ticked, frame = tick(state, p, TARGET, DT, CFG)
    bare = replace(ticked)
    assert ticked.cues and not bare.cues
    assert ticked == bare and repr(ticked) == repr(bare) and hash(ticked) == hash(bare)
    assert "cues" not in repr(ticked)
    # The cues depend on the captured ranges, so a state with other ranges
    # computes them afresh on the same pose objects.
    narrow = replace(ticked, head_range=AngularRange(0.0, 45.0))
    _, cached = tick(ticked, replace(p, timestamp=0.2), TARGET, DT, CFG)
    _, computed = tick(narrow, replace(p, timestamp=0.2), TARGET, DT, CFG)
    assert cached.point == frame.point and computed.point.color != frame.point.color


def test_tick_rejects_nonpositive_dt():
    state = begin_signal(IDLE, pose(0.0, AHEAD), TARGET, Role.LISTENER, CFG)
    with pytest.raises(ConfigError):
        tick(state, pose(0.1, AHEAD), TARGET, 0.0, CFG)


def test_sound_source_travels_user_to_target():
    state = begin_signal(IDLE, pose(0.0, AHEAD), TARGET, Role.LISTENER, CFG)
    _, far = tick(state, pose(0.1, AHEAD), TARGET, DT, CFG)
    assert far.sound_pos == Vec3(0.0, 0.0, 0.0)
    _, near = tick(state, pose(0.2, AT_TARGET), TARGET, DT, CFG)
    assert near.sound_pos == TARGET


def test_replay_is_bit_stable():
    def run():
        state = begin_signal(IDLE, pose(0.0, AHEAD), TARGET, Role.LISTENER, CFG)
        frames = []
        for k in range(1, 40):
            facing = facing_at_angle(max(0.0, 90.0 - 3.0 * k))
            state, frame = tick(state, pose(k * DT, facing), TARGET, DT, CFG)
            frames.append(frame)
        return frames

    assert run() == run()


def test_response_time_absent_outside_acknowledged():
    assert response_time(IDLE) is None
    state = begin_signal(IDLE, pose(0.0, AHEAD), TARGET, Role.LISTENER, CFG)
    assert response_time(state) is None
