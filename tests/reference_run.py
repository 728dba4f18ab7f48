"""Plain references for run_scenario and the metrics scan, for differential testing.

reference_scenario replays one trial the obvious way and shares none of the
loop's shortcuts:
- it simulates every tick and builds its record, with no jump over a settled
  stretch and no repeat of the last record on a tick that changes nothing;
- every tick builds a fresh Pose from fresh vectors, and hands tick a fresh
  target, so the session's cue cache never hits;
- the session's state comes from begin_signal and tick, whose frame it never
  reads: every channel comes from its public function (point_light_state,
  spotlight_state, env_light_with_fade, sound_source_position,
  text_icon_state, sgd_state) or, at rest, from its documented rest value;
- _presented applies the method's mask, in one place;
- each TraceRecord is built in full by its constructor, with its own t.

It is written to the float clock that run_scenario keeps: tick k is at
k * dt, and a duration lasts its first tick at or after it. Equal records
and equal written bytes from the two are the differential test of the loop
(W. M. McKeeman, "Differential Testing for Software", Digital Technical
Journal 10(1), 1998).

reference_scan reads a trace's session outcomes head by head, each head
checked in full, where metrics checks a run of equal (state, view, role)
once; the two must agree on every outcome and on every error's text.
"""

import math
import random

from turncue import session as sess
from turncue.audio import sound_source_position
from turncue.baselines import sgd_state, text_icon_state
from turncue.errors import TraceIntegrityError
from turncue.geometry import DeviationReference, Pose, Vec3, angular_deviation, deviation_to_target, lateral_side
from turncue.lights import (
    PointLightState,
    SpotlightState,
    env_light_with_fade,
    point_light_position,
    point_light_state,
    spotlight_state,
)
from turncue.scenario import USER_ID, default_desk_anchor, display_name, rotate_toward, seat_of, stable_seed
from turncue.trace import _SHOWN, Method, Role, Side, Trace, TraceMeta, TraceRecord


def _lights_and_sound(state, pose, target, config):
    """(env, point light, spotlight, sound position, chime, duck gain) of a tick
    that left the session in state, as if the method presented every channel."""
    t, l_max = pose.timestamp, config.env_levels.l_max
    if isinstance(state, sess.Signaled):
        point = point_light_state(pose, target, state.head_range, half_angle=config.viewport_half_angle,
                                  azimuth=config.point_azimuth, radius=config.point_radius, warm=config.warm,
                                  cold=config.cold, gamma=config.gamma_point)
        spot = spotlight_state(pose, target, state.gaze_range, config.spot_levels, config.spot_geometry,
                               half_angle=config.viewport_half_angle, gamma=config.gamma_spot,
                               deactivate_at_min=config.spot_deactivate_at_min)
        env = env_light_with_fade(t - state.signal_time, angular_deviation(pose.gaze_forward, state.signal_gaze),
                                  l_max, state.gaze_range, config.env_levels, config.gamma_env, config.fade_duration)
        head_theta = deviation_to_target(pose, target, DeviationReference.HEAD_TO_TARGET)
        sound = sound_source_position(pose.position, target, head_theta, state.head_range, config.sound_easing)
        # Chime i of round(chime_max_repeats * subtlety), at least one, plays for duck_duration from
        # signal_time + i * chime_repeat_interval; a chime ducks a listener by the subtlety's share.
        repeats = max(1, round(config.chime_max_repeats * config.subtlety))
        onsets = [state.signal_time + i * config.chime_repeat_interval for i in range(repeats)]
        chime = any(onset <= t < onset + config.duck_duration for onset in onsets)
        duck = 1.0 - config.subtlety * (1.0 - config.duck_gain) if chime and state.role is Role.LISTENER else 1.0
        return env, point, spot, sound, chime, duck
    # At rest: every cue off; the point light keeps its side and head-affixed position, at the
    # user on the right with no target, and the env light fades back up to l_max after a session.
    if target is None:
        aim, point = pose.position, PointLightState(False, Side.RIGHT, pose.position, config.cold)
    else:
        side = lateral_side(pose, target)
        aim = target
        point = PointLightState(False, side, point_light_position(pose, side, config.point_azimuth,
                                                                   config.point_radius), config.cold)
    env = l_max
    if isinstance(state, sess.Resolved):
        faded = min(max(t - state.end_time, 0.0) / config.fade_duration, 1.0)
        env = state.env_at_end + (l_max - state.env_at_end) * faded
    return env, point, SpotlightState(False, 0.0, config.spot_geometry.a_min, aim), aim, False, 1.0


def _presented(method, config, state, pose, target, toward, name, desk):
    """Every channel of the tick, each one that method does not present at rest:
    the lights for the light methods, the chime for light_audio alone, and each
    baseline for its own method."""
    env, point, spot, sound, chime, duck = _lights_and_sound(state, pose, target, config)
    aim = pose.position if target is None else target
    if method not in (Method.LIGHT_AUDIO, Method.LIGHT):
        env, point = config.env_levels.l_max, point._replace(active=False)
        spot = SpotlightState(False, 0.0, config.spot_geometry.a_min, aim)
    if method is not Method.LIGHT_AUDIO:
        sound, chime, duck = aim, False, 1.0
    texts = text_icon_state(state if method is Method.TEXT_ICON else sess.IDLE, toward, name, desk)
    flicker = sgd_state(state if method is Method.SGD else sess.IDLE, pose, toward, pose.timestamp,
                        config.ack_threshold)
    return env, point, spot, sound, chime, duck, texts, flicker


def reference_scenario(script, agent, config, dt=1.0 / 72.0, seed=0, participant=0) -> Trace:
    """run_scenario's trace of one trial, tick by tick (see the module docstring)."""
    turns, method = script.turn_order, script.method
    user = script.seats[script.user_seat_index]
    desk = script.desk_anchor or default_desk_anchor(script.seats, script.user_seat_index)
    meta = TraceMeta(method=method, role=script.role, topic=script.topic, participant=participant, seed=seed, dt=dt,
                     user_seat=script.user_seat_index, seats=script.seats, desk_anchor=desk, names=script.names)
    rng = random.Random(stable_seed("scenario", seed, agent.seed))
    agents = [turn.speaker for turn in turns if turn.speaker != USER_ID]

    def ticks_of(duration):
        return max(1, math.ceil(duration / dt - 1e-9))

    def rest_direction(i):
        """The head at rest in turn i: on the agent who spoke last, else the first to speak, else a1."""
        spoken = [turn.speaker for turn in turns[:i + 1] if turn.speaker != USER_ID]
        who = spoken[-1] if spoken else agents[0] if agents else "a1"
        return (seat_of(script, who) - user).normalized()

    def schedule(i, start):
        """(signal tick, end tick) of turn i from its first tick: a turn handed to an agent signals
        signal_offset in and ends when the signal resolves; any other lasts its duration."""
        if i + 1 < len(turns) and turns[i + 1].speaker != USER_ID:
            return start + ticks_of(script.signal_offset), None
        return None, start + ticks_of(turns[i].duration)

    turn = 0
    signal_at, end_at = schedule(0, 0)
    state = sess.IDLE
    target_id = target = None
    toward, name = desk, ""  # what the baselines point at: the desk until the first signal
    perceived = math.inf  # when the agent perceives the open signal
    head = rest_direction(0)
    records = []
    k = 0
    while True:
        if k == end_at:
            if turn + 1 == len(turns):
                break
            turn += 1
            signal_at, end_at = schedule(turn, k)
        t = k * dt
        # The agent: the head turns toward the target once it perceives the signal, else to its rest; while a
        # session is open the gaze leads the head toward the target by gaze_lead degrees.
        aim_dir = (target - user).normalized() if t >= perceived else rest_direction(turn)
        head = rotate_toward(Vec3(*head), aim_dir, agent.head_speed * dt)
        gaze = head
        if agent.gaze_lead > 0.0 and isinstance(state, sess.Signaled):
            gaze = rotate_toward(Vec3(*head), (target - user).normalized(), agent.gaze_lead)
        pose = Pose(Vec3(*user), Vec3(*head), Vec3(*gaze), t)
        if k == signal_at:
            target_id = turns[turn + 1].speaker
            target, name = seat_of(script, target_id), display_name(script, target_id)
            toward = target
            role = Role.SPEAKER if turns[turn].speaker == USER_ID else Role.LISTENER
            state = sess.begin_signal(state, pose, Vec3(*target), role, config, method)
            mean, jitter = agent.latency_for(method, state.target_in_view_at_signal)
            perceived = t + max(0.0, mean + jitter * (2.0 * rng.random() - 1.0))
        fresh_target = None if target is None else Vec3(*target)
        before = state
        state, _ = sess.tick(state, pose, fresh_target, dt, config)
        if isinstance(before, sess.Signaled) and isinstance(state, sess.Resolved):
            end_at, perceived = k + 1, math.inf  # the next speaker takes over on the next tick

        env, point, spot, sound, chime, duck, texts, flicker = _presented(
            method, config, state, pose, fresh_target, toward, name, desk)
        idle = isinstance(state, sess.Idle)
        records.append(TraceRecord(
            tick=k, t=t, pos=user, head=head, gaze=gaze,
            state="idle" if idle else "signaled" if isinstance(state, sess.Signaled) else state.tag,
            target=target_id, rt=sess.response_time(state),
            in_view=None if idle else state.target_in_view_at_signal, role=None if idle else state.role,
            env=env, point_active=point.active, point_side=point.side, point_pos=point.position,
            point_color=point.color, spot_active=spot.active, spot_intensity=spot.intensity,
            spot_cone=spot.cone_angle, spot_aim=spot.aim, sound_pos=sound, chime=chime, duck=duck,
            panel_active=texts.panel_active, panel_anchor=texts.panel_anchor, panel_text=texts.panel_text,
            icon_active=texts.icon_active, icon_anchor=texts.icon_anchor,
            sgd_active=flicker.active, sgd_center=flicker.region_center, speaker=turns[turn].speaker,
        ))
        k += 1
    return Trace(meta, records)


# Legal session-tag successions, written out here so the oracle shares no code with metrics.
_ALLOWED = {
    "idle": {"idle", "signaled"},
    "signaled": {"signaled", "acknowledged", "missed"},
    "acknowledged": {"acknowledged", "signaled"},
    "missed": {"missed", "signaled"},
}


def reference_scan(trace: Trace) -> list:
    """(cell, response time) per resolved session, the time None for a miss,
    or the TraceIntegrityError that metrics._scan_trace raises: every head
    passes every check."""
    outcomes = []
    prev = "idle"
    open_tick = None  # the tick that signaled the open session
    for rec in trace.records.heads:
        if rec.state not in _ALLOWED:
            raise TraceIntegrityError(f"tick {rec.tick}: unknown session state {_SHOWN.repr(rec.state)}")
        if rec.state not in _ALLOWED[prev]:
            raise TraceIntegrityError(f"tick {rec.tick}: illegal session transition {prev} -> {rec.state}")
        entering = rec.state != prev
        if rec.state == "signaled":
            if entering:
                open_tick = rec.tick
            if rec.in_view is None or rec.role is None:
                raise TraceIntegrityError(f"tick {rec.tick}: signaled frame lacks view/role")
        elif entering and rec.state in ("acknowledged", "missed"):
            if rec.in_view is None or rec.role is None:
                raise TraceIntegrityError(f"tick {rec.tick}: terminal frame lacks view/role")
            key = (trace.meta.method, "in" if rec.in_view else "out", rec.role)
            if rec.state == "acknowledged" and rec.rt is None:
                raise TraceIntegrityError(f"tick {rec.tick}: acknowledged frame lacks a response time")
            outcomes.append((key, rec.rt if rec.state == "acknowledged" else None))
            open_tick = None
        prev = rec.state
    if open_tick is not None:
        raise TraceIntegrityError(f"tick {open_tick}: session signaled here is still open at end of trace")
    return outcomes
