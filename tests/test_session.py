import math
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from reference_run import _presented

import turncue.audio
import turncue.session
from turncue.audio import Role
from turncue.baselines import sgd_state
from turncue.config import GuidanceConfig, Method
from turncue.errors import ConcurrentSignalError, ConfigError, TraceOrderError
from turncue.geometry import AngularRange, Pose, Side, Vec3, angular_deviation
from turncue.lights import (
    ColorRGB,
    LightLevels,
    SpotlightGeometry,
    SpotlightState,
    lerp,
)
from turncue.scenario import hexagon_seats
from turncue.session import (
    IDLE,
    CueFrame,
    Resolved,
    Signaled,
    begin_signal,
    hold,
    response_time,
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


def _windows(t, cfg, limit):
    """The oracle: the first min(limit, count) chime windows of a signal at t, each
    [onset, onset + duck_duration), the onsets t + i * chime_repeat_interval."""
    count = max(1, round(cfg.chime_max_repeats * cfg.subtlety))
    onsets = (t + i * cfg.chime_repeat_interval for i in range(min(count, limit)))
    return [(c, c + cfg.duck_duration) for c in onsets]


def _heard(state, ts, cfg):
    """(chime, duck gain) of a tick at ts, 90 degrees off the target: no dwell."""
    new_state, frame = tick(state, pose(ts, AHEAD), TARGET, DT, cfg)
    assert isinstance(new_state, Signaled)
    return frame.chime, frame.duck_gain


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
    # Each chime lasts duck_duration: a tick chimes, and ducks, exactly when a window
    # holds its time, probed at every window edge, a float either side, and between.
    cfg = cfg._replace(miss_timeout=100.0)
    windows = [(c, c + cfg.duck_duration) for c in chimes]
    assert _windows(t, cfg, 10) == windows
    state = begin_signal(IDLE, pose(t, AHEAD), TARGET, Role.LISTENER, cfg)
    edges = [b for window in windows for b in window]
    for ts in sorted({x for b in edges for x in (b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf))}
                     | {(a + b) / 2 for a, b in zip(edges, edges[1:])}):
        if ts >= t:
            inside = any(start <= ts < end for start, end in windows)
            assert _heard(state, ts, cfg) == (inside, cfg.duck_gain if inside else 1.0), ts


def test_a_million_chimes_a_float_apart_cost_no_memory():
    # A session holds no state per chime: a subnormal interval, whose quotient
    # of the miss timeout is inf, with a million repeats, peaks well under 1 MB.
    cfg = GuidanceConfig(chime_repeat_interval=5e-324, chime_max_repeats=10**6)
    tracemalloc.start()
    try:
        state = begin_signal(IDLE, pose(1.0, AHEAD), TARGET, Role.LISTENER, cfg)
        heard = _heard(state, 1.5, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert heard == (True, cfg.duck_gain)
    assert peak < 2**20


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
    # After the signal, before the last tick:
    with pytest.raises(TraceOrderError, match=r"^pose timestamp 1\.05 precedes 1\.1$"):
        tick(state, pose(1.05, AHEAD), TARGET, DT, CFG)


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
    # A hold follows a tick: a signaled session, its env fading toward l_min, holds no tick after its signal's
    # tick or the next; a resolved one holds every tick up to the end given, or none.
    signaled = begin_signal(IDLE, pose(0.0, AHEAD), TARGET, Role.LISTENER, CFG)
    for k in (0, 1):
        signaled = tick(signaled, pose(k * DT, AHEAD), TARGET, DT, CFG)[0]
        assert hold(signaled, k + 1, k + 11, DT, CFG) == (k + 1, signaled)
    steps = round(CFG.fade_duration / DT)
    end = round(state.end_time / DT)
    assert end * DT == state.end_time
    flags = []
    for k in range(end, end + steps + 4):
        now = k * DT
        after, frame = tick(state, pose(now, AT_TARGET), TARGET, DT, CFG)
        assert after is state
        assert frame.session_state == ("missed" if aligned_from is None else "acknowledged")
        fraction = min(max(now - state.end_time, 0.0) / CFG.fade_duration, 1.0)
        assert frame.env_intensity == lerp(state.env_at_end, CFG.env_levels.l_max, fraction)
        held = hold(state, k + 1, k + 11, DT, CFG)
        assert held in ((k + 1, state), (k + 11, state))
        flags.append(held[0] == k + 11)
        assert flags[-1] == (fraction == 1.0)
    # false through the fade, then true from the first tick at its end on
    first = flags.index(True)
    assert first in (steps, steps + 1) and all(flags[first:])
    assert frame.env_intensity == pytest.approx(CFG.env_levels.l_max, abs=1e-12)
    _, halfway = tick(state, pose(state.end_time + CFG.fade_duration / 2, AT_TARGET), TARGET, DT, CFG)
    expected = state.env_at_end + (CFG.env_levels.l_max - state.env_at_end) * 0.5
    assert halfway.env_intensity == pytest.approx(expected, abs=1e-12)


def test_a_fade_from_l_max_is_settled_from_its_resolving_tick():
    # lerp(l_max, l_max, f) is l_max at every f: a session that resolves with
    # the env at l_max gives the same frame at every later time, fraction 0,
    # the resolving tick's own time, included. One ulp below l_max, it fades.
    state = Resolved(1.0, CFG.env_levels.l_max, Role.LISTENER, True, 0.4)
    assert 10 * DT == state.end_time and hold(state, 11, 50, DT, CFG) == (50, state)
    at_end = tick(state, pose(state.end_time, AT_TARGET), TARGET, DT, CFG)
    assert at_end[0] is state and at_end[1].env_intensity == CFG.env_levels.l_max
    for k in range(1, round(CFG.fade_duration / DT) + 2):
        assert tick(state, pose(state.end_time + k * DT, AT_TARGET), TARGET, DT, CFG) == at_end
    dimmed = state._replace(env_at_end=math.nextafter(CFG.env_levels.l_max, 0.0))
    assert hold(dimmed, 11, 50, DT, CFG) == (11, dimmed)
    assert 30 * DT >= dimmed.end_time + CFG.fade_duration and hold(dimmed, 31, 50, DT, CFG) == (50, dimmed)


RATES = [1 / 30, 1 / 45, 1 / 60, 1 / 72, 1 / 90, 1 / 120, 1 / 144]


def _ticked_at_rest(method, role, dt, config, off, apart, from_rest, s, before):
    """(state, frame, poses, k): a session signaled at tick s and ticked through tick k - 1, its last before + 1
    ticks on one set of pose objects, poses(j) being that set at tick j; the signal's own tick is on the
    signal's pose when that differs (from_rest false), and then at least one more follows. The gaze rests off
    degrees off the target (aligned within 10), apart from the head or not; the signal gaze is it or 90
    degrees off, which makes the env fade toward l_min or, on the target, toward l_max."""
    origin, gaze = Vec3(0.0, 0.0, 0.0), facing_at_angle(off)
    head = facing_at_angle(30.0) if apart else gaze
    signal = Pose(origin, head, gaze, s * dt) if from_rest else Pose(origin, AHEAD, AHEAD, s * dt)
    state = begin_signal(IDLE, signal, TARGET, role, config, method)
    state, frame = tick(state, signal, TARGET, dt, config)
    k = s + 1
    for i in range(before if from_rest else max(before, 1)):  # part of a dwell accrued, the fade or a chime run
        if i and not isinstance(state, Signaled):
            break
        state, frame = tick(state, Pose(origin, head, gaze, k * dt), TARGET, dt, config)
        k += 1
    return state, frame, (lambda j: Pose(origin, head, gaze, j * dt)), k


@st.composite
def _at_rest(draw):
    """_ticked_at_rest's arguments: every method and role, a frame rate from 30 to 144 Hz, a dwell, timeout,
    fade, duck, chime count and interval, and a gaze 0 to 60 degrees off the target."""
    repeats = draw(st.integers(1, 4))
    config = GuidanceConfig(
        ack_dwell=draw(st.floats(0.001, 1.5)), miss_timeout=draw(st.floats(0.05, 3.0)),
        fade_duration=draw(st.floats(0.01, 0.5)), duck_duration=draw(st.floats(0.005, 0.2) | st.floats(0.2, 0.6)),
        chime_max_repeats=repeats, chime_repeat_interval=draw(st.floats(0.005, 0.5)) if repeats > 1 else 0.0,
        subtlety=draw(st.sampled_from([1.0, 0.5])),
    )
    return (draw(st.sampled_from(Method)), draw(st.sampled_from(Role)), draw(st.sampled_from(RATES)), config,
            draw(st.just(0.0) | st.floats(0.0, 10.0) | st.floats(10.0, 60.0)), draw(st.booleans()),
            draw(st.booleans()), draw(st.integers(0, 200)), draw(st.integers(0, 40)))


CHIME_GAPS = GuidanceConfig(fade_duration=0.1, duck_duration=0.1, chime_max_repeats=3, chime_repeat_interval=0.5)


@settings(max_examples=200, deadline=None)
@given(args=_at_rest(), span=st.integers(0, 400))
@example(args=(Method.LIGHT_AUDIO, Role.LISTENER, 1 / 30, CHIME_GAPS, 40.0, False, True, 0, 10), span=60)
@example(args=(Method.LIGHT_AUDIO, Role.LISTENER, 1 / 30, GuidanceConfig(ack_dwell=0.5, fade_duration=0.1,
                                                                         duck_duration=0.5), 0.0, False, True, 0, 5),
         span=60)
def test_a_hold_gives_what_stepping_tick_on_the_same_pose_objects_gives(args, span):
    # Each tick a hold covers gives the last tick's frame and state class, and the state it returns is the one
    # stepping tick leaves, its dwell bit for bit: tick's own additions. Without a chime the hold ends only at
    # the end given, at the ack or the miss, whose tick resolves, or at once while the env fades toward a level
    # other than l_max. The examples: chimes that end and begin again inside a hold, off the target, and a
    # dwell that completes as the chime ends.
    state, frame, poses, k = _ticked_at_rest(*args)
    dt, config = args[2], args[3]
    end = k + span
    held_to, held = hold(state, k, end, dt, config)
    assert k <= held_to <= end
    stepped = state
    for j in range(k, held_to):
        stepped, stepped_frame = tick(stepped, poses(j), TARGET, dt, config)
        assert stepped_frame == frame and stepped.__class__ is state.__class__, j
    assert held == stepped and held.__class__ is stepped.__class__
    if isinstance(held, Signaled):
        assert held.dwell.hex() == stepped.dwell.hex()
        assert (held.alignment_start, held.last_timestamp) == (stepped.alignment_start, stepped.last_timestamp)
        if held_to < end and not state.audible:
            fading = state.lit and (state.last_timestamp - state.signal_time) / config.fade_duration < 1.0
            after = tick(stepped, poses(held_to), TARGET, dt, config)[0]
            assert isinstance(after, Resolved) or (fading and held_to == k)


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
    for t, chime, duck in _chime_timeline(Role.LISTENER, cfg._replace(subtlety=0.5)):
        inside = any(c <= t < c + 1.0 for c in (0.0, 1.5))
        assert (chime, duck) == (inside, 0.75 if inside else 1.0), t


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    signal_time=st.floats(0.0, 1e4),
    interval=st.floats(1e-3, 2.0) | st.sampled_from([5e-324, 1e-12]) | st.floats(1e-15, 1e-12),
    duck=st.floats(1e-3, 5.0) | st.floats(1e-15, 1e-9),
    repeats=st.integers(1, 8) | st.integers(9, 2**1023),
)
def test_a_tick_chimes_exactly_when_a_window_holds_its_time(data, signal_time, interval, duck, repeats):
    # tick bisects over the chime index for the last chime begun by ts and
    # tests its end alone. That must equal the test over every window, for
    # windows apart, overlapping (a duck longer than the interval) or starting
    # together (an interval below the signal time's spacing, onsets clustered
    # on its ulp), for ts at a window's start or end, a float either side of
    # one, or in between, and for any count up to the largest float.
    # Past the oracle's first 4096 windows, ts stays below the next onset:
    # onsets cannot fall as the index rises, so no later window has begun.
    cfg = GuidanceConfig(duck_duration=duck, chime_max_repeats=repeats, chime_repeat_interval=interval)
    windows = _windows(signal_time, cfg, 4096)
    before = signal_time + len(windows) * interval if repeats > len(windows) else math.inf
    bounds = [b for window in windows for b in window if b < before]
    assume(bounds)
    edge = data.draw(st.sampled_from(bounds))
    ts = data.draw(st.sampled_from([edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)])
                   | st.floats(signal_time, max(bounds)))
    assume(signal_time <= ts < before)
    cfg = cfg._replace(miss_timeout=ts - signal_time + 1.0)  # no miss by ts
    state = begin_signal(IDLE, pose(signal_time, AHEAD), TARGET, Role.LISTENER, cfg)
    inside = any(start <= ts < end for start, end in windows)
    assert _heard(state, ts, cfg) == (inside, cfg.duck_gain if inside else 1.0)


@pytest.mark.parametrize(
    "repeats,windows",
    [(1, (1, 1, 1)), (2, (2, 1, 1)), (10**6, (9, 9, 1)), (2**1024 - 2**970 - 1, (9, 9, 1))],
    ids=["one", "two", "a-million", "largest-float"],
)
def test_every_repeat_count_a_float_holds_keeps_its_windows(repeats, windows):
    # The largest accepted count rounds to the largest float. At subtlety 1,
    # 0.5 and 0, each count plays its round(repeats * subtlety) chimes, at
    # least one, and a session hears the same chimes as from that count capped
    # at 1 + ceil(5 / 0.7) = 9, past the last chime to start before the miss.
    for subtlety, count in zip((1.0, 0.5, 0.0), windows):
        cfg = GuidanceConfig(chime_max_repeats=repeats, chime_repeat_interval=0.7, subtlety=subtlety)
        capped = cfg._replace(chime_max_repeats=count, subtlety=1.0)
        gain = 1.0 - subtlety * (1.0 - cfg.duck_gain)
        heard = [(t, chime, gain if chime else 1.0) for t, chime, _ in _chime_timeline(Role.LISTENER, capped)]
        assert _chime_timeline(Role.LISTENER, cfg) == heard, subtlety


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
    _, later = tick(state, first._replace(timestamp=0.6), TARGET, DT, CFG)
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
    bare = ticked._replace()
    assert ticked.cues and not bare.cues
    assert ticked == bare and repr(ticked) == repr(bare) and hash(ticked) == hash(bare)
    assert "cues" not in repr(ticked)
    # The cues depend on the captured ranges, so a state with other ranges
    # computes them afresh on the same pose objects.
    narrow = ticked._replace(head_range=AngularRange(0.0, 45.0))
    _, cached = tick(ticked, p._replace(timestamp=0.2), TARGET, DT, CFG)
    _, computed = tick(narrow, p._replace(timestamp=0.2), TARGET, DT, CFG)
    assert cached.point == frame.point and computed.point.color != frame.point.color


def _not_presented(*args, **kwargs):
    raise AssertionError("computed a channel that the method does not present")


@pytest.mark.parametrize("method,lit,audible", [
    (None, True, True), (Method.LIGHT_AUDIO, True, True), (Method.LIGHT, True, False),
    (Method.SGD, False, False), (Method.TEXT_ICON, False, False),
])
def test_a_signaled_tick_computes_only_the_channels_its_method_presents(monkeypatch, method, lit, audible):
    # The target comes into view on the third tick and is held until acknowledged.
    poses = [pose(k * DT, head) for k, head in enumerate([AHEAD, AHEAD, facing_at_angle(30.0)] + [AT_TARGET] * 16, 1)]
    full, fulls = begin_signal(IDLE, pose(0.0, AHEAD), TARGET, Role.LISTENER, CFG), []
    for p in poses:
        full, every = tick(full, p, TARGET, DT, CFG)
        fulls.append(every)
    assert any(f.point.active for f in fulls) and any(f.spot.active for f in fulls) and fulls[0].duck_gain < 1.0
    if not lit:
        monkeypatch.setattr(turncue.session, "spotlight", _not_presented)
        monkeypatch.setattr(turncue.session, "_env_fade", _not_presented)
    if not audible:
        monkeypatch.setattr(turncue.audio, "sound_source_position", _not_presented)
    state = begin_signal(IDLE, pose(0.0, AHEAD), TARGET, Role.LISTENER, CFG, method)
    assert (state.lit, state.audible) == (lit, audible)
    for p, every in zip(poses, fulls):
        state, frame = tick(state, p, TARGET, DT, CFG)
        assert frame.session_state == every.session_state and frame.point[1:] == every.point[1:]
        if frame.session_state != "signaled":
            break
        assert frame.point.active == (lit and every.point.active)
        rest_spot = SpotlightState(False, 0.0, CFG.spot_geometry.a_min, TARGET)
        assert (frame.env_intensity, frame.spot) == ((every.env_intensity, every.spot) if lit else (1.1, rest_spot))
        channels = (frame.sound_pos, frame.chime, frame.duck_gain)
        assert channels == ((every.sound_pos, every.chime, every.duck_gain) if audible else (TARGET, False, 1.0))
    assert isinstance(state, Resolved) and state.response_time == full.response_time
    assert (state.env_at_end == full.env_at_end) if lit else state.env_at_end == 1.1


def test_tick_rejects_nonpositive_dt():
    # And a non-finite one: at nan the dwell would stay nan and never acknowledge, at inf acknowledge at once.
    state = begin_signal(IDLE, pose(0.0, AHEAD), TARGET, Role.LISTENER, CFG)
    for dt in (0.0, -0.0, -DT, math.nan, math.inf, -math.inf):
        for before in (IDLE, state):
            with pytest.raises(ConfigError, match=f"^dt={dt} must be finite and > 0$"):
                tick(before, pose(0.1, AT_TARGET), TARGET, dt, CFG)


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


def test_a_session_works_out_its_direction_once_per_position_and_target_object(angle_calls):
    # begin_signal works out the direction from the user to the target; its
    # ticks reuse it while the same position and target objects come back.
    position, target = Vec3(0.0, 0.0, 0.0), Vec3(*TARGET)
    state = begin_signal(IDLE, Pose(position, AHEAD, AHEAD, 0.0), target, Role.LISTENER, CFG)
    for k, head in enumerate([AHEAD, facing_at_angle(60.0), facing_at_angle(30.0)], 1):
        state, _ = tick(state, Pose(position, head, head, k * DT), target, DT, CFG)
    assert angle_calls["direction_to"] == 1
    moved = Vec3(*position)
    for k, head in enumerate([AHEAD, facing_at_angle(60.0)], 4):
        state, _ = tick(state, Pose(moved, head, head, k * DT), target, DT, CFG)
    assert angle_calls["direction_to"] == 2
    state, _ = tick(state, Pose(moved, AHEAD, AHEAD, 6 * DT), Vec3(*target), DT, CFG)
    assert isinstance(state, Signaled) and angle_calls["direction_to"] == 3


_COORD = st.floats(-3.0, 3.0)
_UNIT = st.tuples(_COORD, _COORD, _COORD).filter(lambda v: math.hypot(*v) > 0.1).map(lambda v: Vec3(*v).normalized())
_GAMMA = st.floats(0.2, 5.0) | st.just(1.0)


@st.composite
def _configs(draw):
    def band(lo, hi):
        a, b = sorted(draw(st.tuples(st.floats(lo, hi), st.floats(lo, hi))))
        assume(a < b)
        return a, b

    def color():
        return ColorRGB(*draw(st.tuples(*[st.floats(0.0, 1.0)] * 3)))

    repeats = draw(st.integers(1, 3))
    return GuidanceConfig(
        env_levels=LightLevels(*band(0.0, 2.0)), spot_levels=LightLevels(*band(0.0, 2.0)),
        spot_geometry=SpotlightGeometry(*band(1.0, 180.0)), warm=color(), cold=color(),
        gamma_env=draw(_GAMMA), gamma_point=draw(_GAMMA), gamma_spot=draw(_GAMMA),
        viewport_half_angle=draw(st.floats(5.0, 175.0)), point_azimuth=draw(st.floats(0.0, 180.0)),
        point_radius=draw(st.floats(0.01, 5.0)), fade_duration=draw(st.floats(0.05, 3.0)),
        duck_duration=draw(st.floats(0.05, 3.0)), duck_gain=draw(st.floats(0.0, 0.99)),
        ack_threshold=draw(st.floats(1.0, 30.0)), theta_min=draw(st.floats(0.0, 40.0)),
        spot_deactivate_at_min=draw(st.booleans()), sound_easing=draw(st.sampled_from(["linear", "cosine"])),
        chime_max_repeats=repeats, chime_repeat_interval=draw(st.floats(0.05, 1.0)) if repeats > 1 else 0.0,
        subtlety=draw(st.floats(0.0, 1.0)),
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data(), config=_configs(), method=st.sampled_from([None, *Method]), role=st.sampled_from(Role))
def test_a_signaled_tick_equals_its_public_channel_functions_bit_for_bit(data, config, method, role):
    # Drawn poses (the gaze apart from the head or the same object, each
    # object kept from the last tick, an equal copy or moved) and targets:
    # every signaled frame must be the one the reference run's public channel
    # functions and method mask give (no method presents every channel, as
    # light_audio does), in repr too, which tells -0.0 from 0.0, and the
    # flicker must read tick's gaze angle.
    def place():
        position = Vec3(*data.draw(st.tuples(_COORD, _COORD, _COORD)))
        offset = data.draw(st.tuples(_COORD, _COORD, _COORD).filter(lambda v: math.hypot(*v) > 0.1))
        return position, position + Vec3(*offset)

    position, target = place()
    head = data.draw(_UNIT)
    gaze = head if data.draw(st.booleans()) else data.draw(_UNIT)
    dt = data.draw(st.sampled_from([1 / 72, 1 / 30, 0.1]))
    state = begin_signal(IDLE, Pose(position, head, gaze, 0.0), target, role, config, method)
    assert (state.lit, state.audible) == (method in (None, Method.LIGHT_AUDIO, Method.LIGHT),
                                          method in (None, Method.LIGHT_AUDIO))
    for k in range(1, data.draw(st.integers(1, 12)) + 1):
        if data.draw(st.booleans()):
            head = data.draw(_UNIT)
        gaze = head if data.draw(st.booleans()) else gaze if data.draw(st.booleans()) else data.draw(_UNIT)
        moves = data.draw(st.sampled_from(["kept", "copied", "moved"]))
        if moves == "copied":
            position, target = Vec3(*position), Vec3(*target)
        elif moves == "moved":
            position, target = place()
        pose = Pose(position, head, gaze, k * dt)
        state, frame = tick(state, pose, target, dt, config)
        if not isinstance(state, Signaled):
            break
        channels = _presented(method or Method.LIGHT_AUDIO, config, state, pose, target, target, "", target)[:6]
        expected = CueFrame(*channels, "signaled")
        assert frame == expected and repr(frame) == repr(expected)
        flicker = sgd_state(state, pose, target, k * dt, config.ack_threshold)
        assert sgd_state(state, pose, target, k * dt, config.ack_threshold, state.cues[6]) == flicker
