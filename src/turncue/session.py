"""Per-signal guidance session: reference capture, chime schedule, per-tick
cue math and duck, acknowledgment and miss detection.

A session is a value: begin_signal and tick return new states, so replaying
the same pose sequence reproduces the same frames bit for bit, and distinct
sessions never share anything. A signaled state also carries the last tick's
cue inputs and results, outside its equality and repr: values are frozen, so
while the same pose and target objects come back, tick reuses the angles and
cues it derived from them, and the frames stay the same bit for bit.
On those objects it changes only at known ticks: hold finds the next, and a
caller jumps there (the next-event time advance of discrete-event simulation).

State transitions: Idle -> Signaled -> Resolved, tagged "acknowledged" in the
trace when it has a response time and "missed" when it has none. A new signal
may begin from Idle or from Resolved, never while one is in flight.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import audio
from .config import MIN_RANGE_WIDTH, GuidanceConfig
from .errors import ConcurrentSignalError, ConfigError, TraceOrderError
from .geometry import (
    AngularRange,
    Pose,
    Side,
    Vec3,
    _unit_angle,
    _view,
    direction_to,
    lateral_side,
)
from .lights import (
    PointLightState,
    SpotlightState,
    _env_fade,
    lerp,
    light_intensity,
    point_light,
    point_light_position,
    spotlight,
)
from .trace import _NUMBER, Method, Role


class Idle(NamedTuple):
    def __bool__(self) -> bool:  # true, as a tuple of no fields is not
        return True


IDLE = Idle()


class _Signal(NamedTuple):
    signal_time: float
    signal_gaze: Vec3
    gaze_range: AngularRange
    head_range: AngularRange
    role: Role
    target_in_view_at_signal: bool
    lit: bool = True  # whether the trial presents the lights (see begin_signal)
    audible: bool = True  # and the chime
    dwell: float = 0.0
    alignment_start: float | None = None
    last_timestamp: float = 0.0


class Signaled(_Signal):
    # The last tick's inputs and what it derived from them (see _cues),
    # begin_signal's only the direction: an attribute outside the tuple, which
    # begin_signal and tick set and _replace drops, as it depends on the fields.
    cues: tuple = ()


class Resolved(NamedTuple):
    end_time: float  # the resolving tick's time
    env_at_end: float
    role: Role
    target_in_view_at_signal: bool
    response_time: float | None = None

    @property
    def tag(self) -> str:
        return "missed" if self.response_time is None else "acknowledged"


SessionState = Idle | Signaled | Resolved


class CueFrame(NamedTuple):
    """Per-tick composite handed to a renderer or trace writer: the lights,
    the chime source position, whether a chime plays, and the duck gain."""

    env_intensity: float
    point: PointLightState
    spot: SpotlightState
    sound_pos: Vec3
    chime: bool
    duck_gain: float
    session_state: str


def begin_signal(
    state: SessionState,
    pose: Pose,
    target: Vec3,
    role: Role,
    config: GuidanceConfig,
    method: Method | None = None,
) -> Signaled:
    """Capture reference frames and open a session for one new-speaker signal.

    theta_max per channel is the angle to the target at this instant,
    measured from the gaze for the gaze-referenced channels and from the
    head for the head-referenced ones, floored to a minimal positive range.
    The chime plays at the signal and then every chime_repeat_interval, in
    all round(chime_max_repeats * subtlety) times, at least once; tick works
    out from the signal time which one is playing, so nothing is built per chime.

    Its ticks work out only the channels that method presents (None: every
    one) and rest the others as a quiet frame does. Without lights the point
    light and the spotlight are inactive (intensity 0, cone a_min, aimed at the
    target) and the env light stays at l_max; without the chime the sound sits
    at the target, no chime plays and nothing is ducked.
    """
    if isinstance(state, Signaled):
        raise ConcurrentSignalError(
            "a guidance session is already active; multi-signal queuing is unsupported"
        )
    to_target = direction_to(pose.position, target)
    head_theta, gaze_theta, in_view = _view(pose, to_target, config.viewport_half_angle)
    floor = config.theta_min + MIN_RANGE_WIDTH
    gaze_range = AngularRange(config.theta_min, max(gaze_theta, floor))
    head_range = AngularRange(config.theta_min, max(head_theta, floor))

    if pose.timestamp < 0.0:
        raise ConfigError(f"signal_time={pose.timestamp} must be >= 0")
    state = Signaled(pose.timestamp, pose.gaze_forward, gaze_range, head_range, role, in_view,
                     method in (None, Method.LIGHT_AUDIO, Method.LIGHT), method in (None, Method.LIGHT_AUDIO),
                     last_timestamp=pose.timestamp)
    state.cues = (pose.position, target, to_target)
    return state


def _cues(state: Signaled, pose: Pose, target: Vec3, config: GuidanceConfig) -> tuple:
    """(position, target, direction, config, head, gaze, gaze theta, env theta, point,
    spot, sound position) for a signaled tick: the last tick's while its position,
    target, config, head and gaze objects all come back, its direction while the
    position and target do. Without lights the env theta is None, the spotlight
    rests and the point light, which the record holds all the same, is inactive;
    without the chime the sound rests."""
    last = state.cues
    position, head, gaze = pose.position, pose.head_forward, pose.gaze_forward
    same_place = last and last[0] is position and last[1] is target
    if same_place and len(last) > 3 and last[3] is config and last[4] is head and last[5] is gaze:
        return last
    to_target = last[2] if same_place else direction_to(position, target)
    head_theta, gaze_theta, in_view = _view(pose, to_target, config.viewport_half_angle)
    point = point_light(
        pose, target, head_theta, in_view or not state.lit, state.head_range,
        azimuth=config.point_azimuth, radius=config.point_radius,
        warm=config.warm, cold=config.cold, gamma=config.gamma_point,
    )
    if state.lit:
        spot = spotlight(
            target, gaze_theta, in_view, state.gaze_range, config.spot_levels, config.spot_geometry,
            gamma=config.gamma_spot, deactivate_at_min=config.spot_deactivate_at_min,
        )
        env_theta = _unit_angle(gaze, state.signal_gaze)
    else:
        spot, env_theta = SpotlightState(False, 0.0, config.spot_geometry.a_min, target), None
    sound_pos = (audio.sound_source_position(position, target, head_theta, state.head_range, config.sound_easing)
                 if state.audible else target)
    return (position, target, to_target, config, head, gaze, gaze_theta, env_theta, point, spot, sound_pos)


def _quiet_frame(
    pose: Pose,
    target: Vec3 | None,
    config: GuidanceConfig,
    env: float,
    tag: str,
) -> CueFrame:
    """Frame with every cue off: idle sessions and terminal states.

    The point light keeps only its side and head-affixed position; with no
    target it sits at the user, on the side a dead-ahead tie resolves to.
    """
    if target is None:
        aim = position = pose.position
        side = Side.RIGHT
    else:
        aim = target
        side = lateral_side(pose, target)
        position = point_light_position(pose, side, config.point_azimuth, config.point_radius)
    return CueFrame(env, PointLightState(False, side, position, config.cold),
                    SpotlightState(False, 0.0, config.spot_geometry.a_min, aim), aim, False, 1.0, tag)


def _fade_fraction(state: Resolved, now: float, fade: float) -> float:
    return min(max(now - state.end_time, 0.0) / fade, 1.0)


def _first_tick(reached, guess: float, k: int, end: int) -> int:
    """The first tick from k, and before end, at which reached (monotone in the tick) holds, else end."""
    j = max(k, math.ceil(min(guess, end)))
    while j > k and reached(j - 1):
        j -= 1
    while j < end and not reached(j):
        j += 1
    return j


def _chime_edges(start: float, ts: float, config: GuidanceConfig) -> tuple[float, float]:
    """(the end of the last chime begun by ts, the next one's onset or inf). Chime i plays from start + i *
    chime_repeat_interval, which cannot fall as i rises, for duck_duration: the last begun ends last."""
    count = max(1, round(config.chime_max_repeats * config.subtlety))
    lo, hi = 0, count  # lo has begun, hi not (or is none)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if start + mid * config.chime_repeat_interval <= ts else (lo, mid)
    return (start + lo * config.chime_repeat_interval + config.duck_duration,
            start + hi * config.chime_repeat_interval if hi < count else math.inf)


def hold(state: SessionState, k: int, end: int, dt: float, config: GuidanceConfig) -> tuple[int, SessionState]:
    """(the first tick from k, and before end, to simulate, else end; the state before it) for the pose objects
    of tick k - 1, which left this state: tick on them at each tick between gives its frame and state class.
    Idle, or resolved with the env put (faded, or from l_max), it holds to end; signaled, to the miss, the ack
    or a chime's end or onset, each found by tick's own float test, but not while lit and fading not to l_max."""
    now, l_max = (k - 1) * dt, config.env_levels.l_max
    if not isinstance(state, Signaled):  # lerp(l_max, l_max, f) is l_max
        return (end if isinstance(state, Idle) or state.env_at_end == l_max
                or _fade_fraction(state, now, config.fade_duration) == 1.0 else k), state
    start, miss = state.signal_time, config.miss_timeout
    if state.lit and (now - start) / config.fade_duration < 1.0 and light_intensity(
            state.cues[7], state.gaze_range, config.env_levels, config.gamma_env) != l_max:  # see _cues
        return k, state
    end = _first_tick(lambda j: j * dt - start >= miss, (start + miss) / dt, k, end)
    for edge in _chime_edges(start, now, config) if state.audible else ():  # the chime's end and the next onset
        if now < edge:
            end = _first_tick(lambda j: j * dt >= edge, edge / dt, k, end)
    j, dwell = k if state.alignment_start is not None else end, state.dwell
    while j < end and dwell + dt < config.ack_dwell:  # each held tick's dwell, as tick adds it
        dwell += dt
        j += 1
    held = tuple.__new__(Signaled, state[:8] + (dwell, state.alignment_start, (j - 1) * dt))
    held.cues = state.cues
    return j, held


def tick(
    state: SessionState,
    pose: Pose,
    target: Vec3 | None,
    dt: float,
    config: GuidanceConfig,
) -> tuple[SessionState, CueFrame]:
    """Advance a session by one frame and compute the cues its method presents.

    Contiguous gaze dwell of ack_dwell seconds within ack_threshold of the
    target acknowledges the signal; miss_timeout seconds without it misses.
    After either terminal the cues deactivate and the environment light
    returns to env_levels.l_max over the fade profile.
    """
    if dt.__class__ not in _NUMBER or not 0.0 < dt < math.inf:  # not dt <= 0.0, so that nan fails too
        raise ConfigError(f"dt={dt!r} must be finite and > 0")

    if isinstance(state, Idle):
        return state, _quiet_frame(pose, target, config, config.env_levels.l_max, "idle")

    if isinstance(state, Resolved):
        fraction = _fade_fraction(state, pose.timestamp, config.fade_duration)
        env = lerp(state.env_at_end, config.env_levels.l_max, fraction)
        return state, _quiet_frame(pose, target, config, env, state.tag)

    # Signaled
    if target is None:
        raise ConfigError("an active session requires a target position")
    if pose.timestamp < state.last_timestamp:
        raise TraceOrderError(
            f"pose timestamp {pose.timestamp} precedes {state.last_timestamp}"
        )
    ts = pose.timestamp
    elapsed = ts - state.signal_time

    cues = _cues(state, pose, target, config)
    gaze_theta, env_theta, point, spot, sound_pos = cues[6:]
    env = l_max = config.env_levels.l_max
    if env_theta is not None:  # elapsed >= 0: begin_signal's last_timestamp is the signal's
        env = _env_fade(elapsed, env_theta, l_max, state.gaze_range, config.env_levels, config.gamma_env,
                        config.fade_duration)

    if gaze_theta <= config.ack_threshold:
        alignment_start = state.alignment_start if state.alignment_start is not None else ts
        dwell = state.dwell + dt
    else:
        alignment_start = None
        dwell = 0.0

    # Acknowledgment wins when the dwell completes on the timeout's tick.
    acknowledged = dwell >= config.ack_dwell
    if acknowledged or elapsed >= config.miss_timeout:
        end = Resolved(ts, env, state.role, state.target_in_view_at_signal,
                       alignment_start - state.signal_time if acknowledged else None)
        return end, _quiet_frame(pose, target, config, env, end.tag)

    chime = state.audible and ts < _chime_edges(state.signal_time, ts, config)[0]
    # The duck window is the chime window. Speakers never hear their own
    # voice through the headset, so only listeners are ducked; subtlety
    # scales the duck's depth, and at 0 turns it off.
    gain = 1.0
    if chime and state.role is Role.LISTENER:
        gain = 1.0 - config.subtlety * (1.0 - config.duck_gain)

    # Both built by tuple.__new__, without the NamedTuple constructors' argument binding.
    new_state = tuple.__new__(Signaled, state[:8] + (dwell, alignment_start, ts))  # the fields before dwell kept
    new_state.cues = cues
    return new_state, tuple.__new__(CueFrame, (env, point, spot, sound_pos, chime, gain, "signaled"))


def response_time(state: SessionState) -> float | None:
    """Seconds from signal to alignment onset; only defined once acknowledged."""
    return state.response_time if isinstance(state, Resolved) else None
