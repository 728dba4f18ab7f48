"""Per-signal guidance session: reference capture, per-tick cue math,
acknowledgment and miss detection.

A session is a value: begin_signal and tick return new states, so replaying
the same pose sequence reproduces the same frames bit for bit, and distinct
sessions never share anything. A signaled state also carries the last tick's
cue inputs and results, outside its equality and repr: values are frozen, so
while the same pose and target objects come back, tick reuses the angles and
cues it derived from them, and the frames stay the same bit for bit.

State transitions: Idle -> Signaled -> (Acknowledged | Missed). A new signal
may begin from Idle or from a terminal state, never while one is in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import audio
from .audio import Role, SoundSourceState
from .config import MIN_RANGE_WIDTH, GuidanceConfig
from .errors import ConcurrentSignalError, ConfigError, TraceOrderError
from .geometry import (
    AngularRange,
    Pose,
    Side,
    Vec3,
    _unit_angle,
    lateral_side,
    target_view,
)
from .lights import (
    PointLightState,
    SpotlightState,
    env_light_with_fade,
    lerp,
    point_light,
    point_light_position,
    spotlight,
)


@dataclass(frozen=True)
class Idle:
    pass


IDLE = Idle()


@dataclass(frozen=True)
class Signaled:
    signal_time: float
    signal_gaze: Vec3
    gaze_range: AngularRange
    head_range: AngularRange
    role: Role
    target_in_view_at_signal: bool
    chimes: tuple[float, ...]
    dwell: float = 0.0
    alignment_start: float | None = None
    last_timestamp: float = 0.0
    # The last tick's inputs and what it derived from them (see _cues); only
    # tick sets it, and replace() drops it, as it depends on the fields above.
    cues: tuple = field(default=(), init=False, compare=False, repr=False)


@dataclass(frozen=True)
class Acknowledged:
    response_time: float
    ack_time: float
    env_at_end: float
    role: Role
    target_in_view_at_signal: bool


@dataclass(frozen=True)
class Missed:
    miss_time: float
    env_at_end: float
    role: Role
    target_in_view_at_signal: bool


SessionState = Idle | Signaled | Acknowledged | Missed


@dataclass(frozen=True)
class CueFrame:
    """Per-tick composite handed to a renderer or trace writer."""

    env_intensity: float
    point: PointLightState
    spot: SpotlightState
    sound: SoundSourceState
    duck_gain: float
    session_state: str


def begin_signal(
    state: SessionState,
    pose: Pose,
    target: Vec3,
    role: Role,
    config: GuidanceConfig,
) -> Signaled:
    """Capture reference frames and open a session for one new-speaker signal.

    theta_max per channel is the angle to the target at this instant,
    measured from the gaze for the gaze-referenced channels and from the
    head for the head-referenced ones, floored to a minimal positive range.
    """
    if isinstance(state, Signaled):
        raise ConcurrentSignalError(
            "a guidance session is already active; multi-signal queuing is unsupported"
        )
    head_theta, gaze_theta, in_view = target_view(pose, target, config.viewport_half_angle)
    floor = config.theta_min + MIN_RANGE_WIDTH
    gaze_range = AngularRange(config.theta_min, max(gaze_theta, floor))
    head_range = AngularRange(config.theta_min, max(head_theta, floor))

    repeats = max(1, round(config.chime_max_repeats * config.subtlety))
    chimes = tuple(audio.chime_schedule(pose.timestamp, config.chime_repeat_interval, repeats))

    return Signaled(pose.timestamp, pose.gaze_forward, gaze_range, head_range, role, in_view,
                    chimes, last_timestamp=pose.timestamp)


def _cues(state: Signaled, pose: Pose, target: Vec3, config: GuidanceConfig) -> tuple:
    """(position, target, config, head, gaze, gaze theta, env theta, point, spot,
    sound position) for a signaled tick: the last tick's while its position,
    target, config, head and gaze objects all come back."""
    last = state.cues
    position, head, gaze = pose.position, pose.head_forward, pose.gaze_forward
    if last and (last[0] is position and last[1] is target and last[2] is config
                 and last[3] is head and last[4] is gaze):
        return last
    head_theta, gaze_theta, in_view = target_view(pose, target, config.viewport_half_angle)
    point = point_light(
        pose, target, head_theta, in_view, state.head_range,
        azimuth=config.point_azimuth, radius=config.point_radius,
        warm=config.warm, cold=config.cold, gamma=config.gamma_point,
    )
    spot = spotlight(
        target, gaze_theta, in_view, state.gaze_range, config.spot_levels, config.spot_geometry,
        gamma=config.gamma_spot, deactivate_at_min=config.spot_deactivate_at_min,
    )
    sound_pos = audio.sound_source_position(
        position, target, head_theta, state.head_range, config.sound_easing
    )
    env_theta = _unit_angle(gaze, state.signal_gaze)
    return (position, target, config, head, gaze, gaze_theta, env_theta, point, spot, sound_pos)


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
    return CueFrame(
        env_intensity=env,
        point=PointLightState(active=False, side=side, position=position, color=config.cold),
        spot=SpotlightState(
            active=False, intensity=0.0, cone_angle=config.spot_geometry.a_min, aim=aim
        ),
        sound=SoundSourceState(position=aim, chime_active=False),
        duck_gain=1.0,
        session_state=tag,
    )


def _fade_fraction(state: Acknowledged | Missed, now: float, fade: float) -> float:
    end_time = state.ack_time if isinstance(state, Acknowledged) else state.miss_time
    return min(max(now - end_time, 0.0) / fade, 1.0)


def settled(state: SessionState, now: float, config: GuidanceConfig) -> bool:
    """Whether tick at any later time, for the same pose and target, keeps this
    state and gives the frame it gave at now: while idle, and after the fade."""
    if isinstance(state, Signaled):
        return False
    return isinstance(state, Idle) or _fade_fraction(state, now, config.fade_duration) == 1.0


def tick(
    state: SessionState,
    pose: Pose,
    target: Vec3 | None,
    dt: float,
    config: GuidanceConfig,
) -> tuple[SessionState, CueFrame]:
    """Advance a session by one frame and compute all cue outputs.

    Contiguous gaze dwell of ack_dwell seconds within ack_threshold of the
    target acknowledges the signal; miss_timeout seconds without it misses.
    After either terminal the cues deactivate and the environment light
    returns to env_levels.l_max over the fade profile.
    """
    if dt <= 0.0:
        raise ConfigError(f"dt={dt} must be > 0")

    if isinstance(state, Idle):
        return state, _quiet_frame(pose, target, config, config.env_levels.l_max, "idle")

    if isinstance(state, (Acknowledged, Missed)):
        fraction = _fade_fraction(state, pose.timestamp, config.fade_duration)
        env = lerp(state.env_at_end, config.env_levels.l_max, fraction)
        tag = "acknowledged" if isinstance(state, Acknowledged) else "missed"
        return state, _quiet_frame(pose, target, config, env, tag)

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
    gaze_theta, env_theta, point, spot, sound_pos = cues[5:]
    env = env_light_with_fade(elapsed, env_theta, config.env_levels.l_max, state.gaze_range,
                              config.env_levels, config.gamma_env, config.fade_duration)

    if gaze_theta <= config.ack_threshold:
        alignment_start = state.alignment_start if state.alignment_start is not None else ts
        dwell = state.dwell + dt
    else:
        alignment_start = None
        dwell = 0.0

    if dwell >= config.ack_dwell:
        ack = Acknowledged(
            response_time=alignment_start - state.signal_time,
            ack_time=ts,
            env_at_end=env,
            role=state.role,
            target_in_view_at_signal=state.target_in_view_at_signal,
        )
        return ack, _quiet_frame(pose, target, config, env, "acknowledged")

    if elapsed >= config.miss_timeout:
        miss = Missed(
            miss_time=ts,
            env_at_end=env,
            role=state.role,
            target_in_view_at_signal=state.target_in_view_at_signal,
        )
        return miss, _quiet_frame(pose, target, config, env, "missed")

    chime_active = any(c <= ts < c + config.duck_duration for c in state.chimes)
    # The duck window is the chime window. Speakers never hear their own
    # voice through the headset, so only listeners are ducked.
    gain = 1.0
    if chime_active and state.role is Role.LISTENER:
        gain = audio.scaled_duck_gain(config.duck_gain, config.subtlety)

    new_state = Signaled(
        state.signal_time, state.signal_gaze, state.gaze_range, state.head_range,
        state.role, state.target_in_view_at_signal, state.chimes,
        dwell, alignment_start, ts,
    )
    object.__setattr__(new_state, "cues", cues)
    sound = SoundSourceState(sound_pos, chime_active)
    return new_state, CueFrame(env, point, spot, sound, gain, "signaled")


def response_time(state: SessionState) -> float | None:
    """Seconds from signal to alignment onset; only defined once acknowledged."""
    if isinstance(state, Acknowledged):
        return state.response_time
    return None
