"""Deterministic replay of the evaluation protocol.

A scenario is a scripted group conversation around a table: five virtual
agents plus one synthetic user. Turns hand off either on a schedule (when
the user is the incoming speaker) or through a guidance signal fired
signal_offset seconds into the current turn, resolved by the user's
acknowledgment or by the miss timeout. The user is a seeded gaze agent:
it fixates the current speaker, perceives a signal after a sampled latency,
then rotates head (gaze in tow) toward the new speaker at a fixed angular
speed.

Everything is fixed-step and seeded; the same inputs produce byte-identical
traces on every run, which is what makes golden-file comparison safe. A
suite runs its trials one after another on the calling thread.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Iterator, NamedTuple

from . import session as sess
from .baselines import sgd_state, text_icon_state
from .config import LATENCY_OVERRIDES, METHODS, GuidanceConfig
from .errors import ScriptError, checked
from .geometry import Pose, Vec3, _finite, _unit_angle
from .metrics import MetricsSummary, extract_metrics
from .session import SessionState
from .trace import _SHOWN, Method, Role, Trace, TraceMeta, _Builder


AGENT_COUNT = 5
AGENT_IDS = tuple(f"a{i + 1}" for i in range(AGENT_COUNT))
USER_ID = "user"

MAX_TICKS = 1_000_000  # the most ticks a trial may run: about 3.9 h at 72 Hz
_NEVER = MAX_TICKS + 1  # a tick that no trial reaches

# Balanced 4x4 Latin square (Williams design): every method appears in every
# presentation position exactly once across four consecutive participants.
LATIN_SQUARE_4 = (
    (0, 1, 3, 2),
    (1, 2, 0, 3),
    (2, 3, 1, 0),
    (3, 0, 2, 1),
)

NAME_POOL = (
    "Alex", "Blair", "Casey", "Drew", "Emery", "Flynn", "Harper", "Jordan",
)


def _check_ints(least: int | None = None, **values) -> None:
    """Reject a value that is not an int, bools included, as the trace's int fields do, or is below least."""
    for name, value in values.items():
        if type(value) is not int:
            raise ScriptError(f"{name}={_SHOWN.repr(value)} is not an integer")
        if least is not None and value < least:
            raise ScriptError(f"{name}={_SHOWN.repr(value)} must be >= {least}")


def _check_user_seat(index: int) -> None:
    """The user sits in one of the six seats."""
    _check_ints(user_seat_index=index)
    if not 0 <= index <= AGENT_COUNT:
        raise ScriptError(f"user_seat_index={_SHOWN.repr(index)} out of range")


def stable_seed(*parts) -> int:
    """Platform-stable 64-bit seed derived from the given parts."""
    key = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


@checked
class Turn(NamedTuple):
    speaker: str
    duration: float

    def _check(self) -> None:
        if self.speaker not in (USER_ID, *AGENT_IDS):
            raise ScriptError(f"turn references unknown speaker id {_SHOWN.repr(self.speaker)}")
        if not (_finite(self.duration) and self.duration > 0.0):
            raise ScriptError(f"turn duration {self.duration!r} for '{self.speaker}' must be finite and > 0")


@checked
class ScenarioScript(NamedTuple):
    """One trial: seat layout, method, role designation, turn schedule; checked when built."""

    seats: tuple[Vec3, ...]
    user_seat_index: int
    role: Role
    method: Method
    turn_order: tuple[Turn, ...]
    signal_offset: float = 5.0
    topic: int = 0
    desk_anchor: Vec3 | None = None  # None: the default desk, which run_scenario resolves
    names: tuple[str, ...] = ("Agent1", "Agent2", "Agent3", "Agent4", "Agent5")

    def _check(self) -> None:
        if len(self.seats) != AGENT_COUNT + 1:
            raise ScriptError(
                f"seats: expected {AGENT_COUNT + 1} entries (user + {AGENT_COUNT} agents), got {len(self.seats)}"
            )
        for name, kind in (("method", Method), ("role", Role)):
            if not isinstance(getattr(self, name), kind):
                raise ScriptError(f"{name}={_SHOWN.repr(getattr(self, name))} is not a {kind.__name__}")
        _check_user_seat(self.user_seat_index)
        _check_ints(topic=self.topic)
        user = self.seats[self.user_seat_index]
        for i, seat in enumerate(self.seats):
            if not all(map(_finite, seat)):
                raise ScriptError(f"seats[{i}]={tuple(seat)} must be finite")
            if i != self.user_seat_index and not 1e-12 < (offset := (seat - user).norm()) < math.inf:
                where = "coincides with" if offset <= 1e-12 else "is too far (offset norm inf) from"
                raise ScriptError(f"seats[{i}]={tuple(seat)} {where} the user's seat")
        if self.desk_anchor is not None and not all(map(_finite, self.desk_anchor)):
            raise ScriptError(f"desk_anchor={tuple(self.desk_anchor)} must be finite")
        if len(self.names) != AGENT_COUNT:
            raise ScriptError(f"names: expected {AGENT_COUNT}, got {len(self.names)}")
        if not self.turn_order:
            raise ScriptError("turn_order is empty")
        if not (_finite(self.signal_offset) and self.signal_offset > 0.0):
            raise ScriptError(f"signal_offset={self.signal_offset!r} must be finite and > 0")


@checked
class GazeAgentModel(NamedTuple):
    """Synthetic stand-in for the human participant.

    Latencies are pure configuration (per method and per in/out-of-view),
    not claims about human performance. With gaze_lead 0 the gaze simply
    mirrors the head during rotation.
    """

    head_speed: float = 120.0
    gaze_lead: float = 0.0
    latency_in: float = 0.35
    latency_out: float = 0.6
    latency_jitter: float = 0.05
    latency_overrides: tuple[tuple[str, str, float], ...] = ()
    seed: int = 0

    def _check(self) -> None:
        if not (_finite(self.head_speed) and self.head_speed > 0.0):
            raise ScriptError(f"agent head_speed={self.head_speed!r} must be finite and > 0")
        _check_ints(seed=self.seed)
        latencies = {n: getattr(self, n) for n in ("gaze_lead", "latency_in", "latency_out", "latency_jitter")}
        for m, v, mean in self.latency_overrides:
            name = f"latency_{m}_{v}"
            if LATENCY_OVERRIDES.get(name) != (m, v):
                raise ScriptError(f"agent {_SHOWN.repr(name)} names no method and view (in or out)")
            if name in latencies:
                raise ScriptError(f"agent {name} is given twice")
            latencies[name] = mean
        for name, value in latencies.items():
            if not (_finite(value) and value >= 0.0):
                raise ScriptError(f"agent {name}={value!r} must be finite and >= 0")

    def latency_for(self, method: Method, in_view: bool) -> tuple[float, float]:
        view = "in" if in_view else "out"
        for m, v, mean in self.latency_overrides:
            if m == method.value and v == view:
                return mean, self.latency_jitter
        return (self.latency_in if in_view else self.latency_out), self.latency_jitter


def seat_of(script: ScenarioScript, who: str) -> Vec3:
    """An agent's seat: agents fill the seats in order, skipping the user's."""
    non_user = [seat for i, seat in enumerate(script.seats) if i != script.user_seat_index]
    return non_user[int(who[1:]) - 1]


def display_name(script: ScenarioScript, who: str) -> str:
    """An agent's name."""
    return script.names[int(who[1:]) - 1]


def rotate_toward(current: Vec3, target_dir: Vec3, max_step_deg: float) -> Vec3:
    """Rotate a unit direction toward another by at most max_step_deg."""
    if current is target_dir or max_step_deg <= 0.0:
        return current
    ang = _unit_angle(current, target_dir)
    if ang <= max_step_deg:
        return target_dir
    if ang >= 180.0 - 1e-9:
        # Antipodal: no unique arc. Swing through the horizontal right of
        # the current direction (mirrors the lateral tie-break).
        waypoint = Vec3(current.z, 0.0, -current.x)
        if waypoint.norm() <= 1e-9:
            waypoint = Vec3(1.0, 0.0, 0.0)
        target_dir = waypoint.normalized()
        ang = _unit_angle(current, target_dir)
        if ang <= max_step_deg:
            return target_dir
    omega = math.radians(ang)
    u = max_step_deg / ang
    sin_omega = math.sin(omega)
    a = math.sin((1.0 - u) * omega) / sin_omega
    b = math.sin(u * omega) / sin_omega
    # current * a + target_dir * b, normalized, on scalars (the same float ops)
    x, y, z = current.x * a + target_dir.x * b, current.y * a + target_dir.y * b, current.z * a + target_dir.z * b
    n = math.sqrt(x * x + y * y + z * z)
    return Vec3(x / n, y / n, z / n)


# ---------------------------------------------------------------------------
# Default room and turn templates
# ---------------------------------------------------------------------------

DEFAULT_SEAT_RADIUS = 1.2
DEFAULT_EYE_HEIGHT = 1.15
_DESK_DROP = 0.25  # the default desk's height below the eyes

# Designated relative seats (steps around the hexagon from the user):
# the conversation partner sits opposite; the out-of-view new speaker is the
# immediate neighbor (60 degrees off the partner direction); the within-view
# one sits two seats around (30 degrees off the previous speaker direction).
_PARTNER_STEP = 3
_OUT_STEP = 1
_IN_STEP = 2


def hexagon_seats(radius: float = DEFAULT_SEAT_RADIUS, eye_height: float = DEFAULT_EYE_HEIGHT) -> tuple[Vec3, ...]:
    """Six seats evenly spaced around the table center."""
    if not (_finite(radius) and radius > 0.0):
        raise ScriptError(f"seat_radius={radius!r} must be finite and > 0")
    if Vec3(2.0 * radius, 0.0, 0.0).norm() == math.inf:  # opposite seats: no direction between them
        raise ScriptError(f"seat_radius={radius} is too large: the table width 2 * seat_radius has no finite norm")
    if not _finite(eye_height):
        raise ScriptError(f"eye_height={eye_height!r} must be finite")
    if eye_height - (eye_height - _DESK_DROP) != _DESK_DROP:  # the desk would round toward eye level
        raise ScriptError(f"eye_height={eye_height} leaves the default desk no exact {_DESK_DROP} drop below it")
    seats = []
    for k in range(6):
        ang = math.radians(60.0 * k)
        seats.append(Vec3(radius * math.cos(ang), eye_height, radius * math.sin(ang)))
    return tuple(seats)


def default_desk_anchor(seats: tuple[Vec3, ...], user_seat_index: int) -> Vec3:
    """Desk surface point in front of the user, below eye line."""
    seat = seats[user_seat_index]
    toward_center = Vec3(-seat.x, 0.0, -seat.z)
    if toward_center.norm() <= 1e-9:
        toward_center = Vec3(1.0, 0.0, 0.0)
    return seat + toward_center.normalized().scaled(0.45) + Vec3(0.0, -_DESK_DROP, 0.0)


def default_script(
    method: Method,
    role: Role,
    topic: int = 0,
    user_seat_index: int = 0,
    names: tuple[str, ...] = ("Agent1", "Agent2", "Agent3", "Agent4", "Agent5"),
    seat_radius: float = DEFAULT_SEAT_RADIUS,
    eye_height: float = DEFAULT_EYE_HEIGHT,
) -> ScenarioScript:
    """Trial script with the documented default layout and turn schedule.

    Listener trials run three agent turns with both handoffs signal-driven
    while the user listens; speaker trials alternate agent prompts with user
    answers so both signals arrive while the user is speaking. Each trial
    contains one out-of-view and one within-view signal.
    """
    _check_user_seat(user_seat_index)  # before it picks the agents around the user
    seats = hexagon_seats(seat_radius, eye_height)
    non_user = [i for i in range(6) if i != user_seat_index]

    def agent_at_step(step: int) -> str:
        seat_index = (user_seat_index + step) % 6
        return f"a{non_user.index(seat_index) + 1}"

    partner = agent_at_step(_PARTNER_STEP)
    out_agent = agent_at_step(_OUT_STEP)
    in_agent = agent_at_step(_IN_STEP)

    if role is Role.LISTENER:
        turns = (Turn(partner, 10.0), Turn(out_agent, 10.0), Turn(in_agent, 12.0))
    else:
        turns = (
            Turn(partner, 8.0),
            Turn(USER_ID, 12.0),
            Turn(out_agent, 8.0),
            Turn(USER_ID, 12.0),
            Turn(in_agent, 10.0),
        )
    return ScenarioScript(
        seats=seats,
        user_seat_index=user_seat_index,
        role=role,
        method=method,
        turn_order=turns,
        topic=topic,
        names=names,
    )


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------


def run_scenario(
    script: ScenarioScript,
    agent: GazeAgentModel,
    config: GuidanceConfig,
    dt: float = 1.0 / 72.0,
    seed: int = 0,
    participant: int = 0,
) -> Trace:
    """Replay one trial tick by tick and return its full trace.

    Turn handoffs to an agent are signal-driven: the incoming speaker
    signals signal_offset seconds into the current turn and the turn ends
    at acknowledgment or at the miss timeout. Handoffs to the user are
    scripted at the current turn's full duration. The final turn runs its
    scripted duration and ends the scenario.
    """
    if not 0.0 < dt <= 0.1:
        raise ScriptError(f"dt={dt} must lie in (0, 0.1]")
    _check_ints(0, participant=participant)
    _check_ints(seed=seed)
    turns = script.turn_order
    max_ticks = 16 + (
        sum(t.duration for t in turns) + len(turns) * (script.signal_offset + config.miss_timeout + 2.0)
    ) / dt
    if not max_ticks <= MAX_TICKS:  # not >, so that inf and nan fail too
        durations = ", ".join(f"{t.duration:g}" for t in turns)
        raise ScriptError(
            f"dt={dt}, turn durations ({durations}) s, signal_offset={script.signal_offset} and "
            f"miss_timeout={config.miss_timeout} allow {max_ticks:.3g} ticks, over {MAX_TICKS}"
        )

    user_pos = script.seats[script.user_seat_index]
    desk = script.desk_anchor or default_desk_anchor(script.seats, script.user_seat_index)
    meta = TraceMeta(  # before stable_seed and the loop: an int that no trace can hold fails here
        method=script.method, role=script.role, topic=script.topic, participant=participant, seed=seed,
        dt=dt, user_seat=script.user_seat_index, seats=script.seats, desk_anchor=desk, names=script.names,
    )
    rng = random.Random(stable_seed("scenario", seed, agent.seed))

    def ticks_of(duration: float) -> int:
        # first tick at or after the duration; exact when divisible by dt
        return max(1, math.ceil(duration / dt - 1e-9))

    # Resting head direction per turn: the speaking agent; on a user turn the
    # agent who spoke last, else the first agent to speak, else a1.
    resting = next((t.speaker for t in turns if t.speaker != USER_ID), "a1")
    rest_dirs = []
    for turn in turns:
        if turn.speaker != USER_ID:
            resting = turn.speaker
        rest_dirs.append((seat_of(script, resting) - user_pos).normalized())

    def setup_turn(turn_idx: int, start_tick: int) -> tuple[int | None, int | None]:
        """(signal_tick, end_tick); a turn that hands off to an agent ends when its signal resolves."""
        if turn_idx + 1 < len(turns) and turns[turn_idx + 1].speaker != USER_ID:
            return start_tick + ticks_of(script.signal_offset), None
        return None, start_tick + ticks_of(turns[turn_idx].duration)

    turn_idx = 0
    signal_tick, end_tick = setup_turn(0, 0)

    state: SessionState = sess.IDLE
    target_id: str | None = None
    target: Vec3 | None = None
    target_dir: Vec3 | None = None
    aim, name = desk, ""
    perceive_tick = _NEVER

    head = rest_dirs[0]
    texts, flickers = script.method is Method.TEXT_ICON, script.method is Method.SGD
    runs, led = _Builder(meta.dt), None

    k = 0
    while True:
        # Turn handoff at the turn's end tick; the last turn's ends the scenario.
        if end_tick is not None and k >= end_tick:
            if turn_idx + 1 == len(turns):
                break
            turn_idx += 1
            signal_tick, end_tick = setup_turn(turn_idx, k)
        if k > max_ticks:
            raise ScriptError("scenario failed to terminate; check turn schedule")
        t = k * dt

        # Head motion for this tick: toward the signal target from the perception tick on, the first after the
        # signal's whose t reaches perceive_time (_NEVER unless signaled), else at rest.
        attention_dir = target_dir if k >= perceive_tick else rest_dirs[turn_idx]
        head = rotate_toward(head, attention_dir, agent.head_speed * dt)
        lead = agent.gaze_lead > 0.0 and isinstance(state, sess.Signaled)
        # The gaze led from the same head object is kept, so the session's cue cache hits. Unled, the memo clears:
        # the tick after a fire has the fire's head, and it leads.
        if not (lead and head is led):
            led, gaze = (head, rotate_toward(head, target_dir, agent.gaze_lead)) if lead else (None, head)
        fires = signal_tick is not None and k >= signal_tick
        pose = tuple.__new__(Pose, (user_pos, head, gaze, t))  # unchecked: rotate_toward and normalized give unit

        # Fire the pending signal: capture the pose as it is right now.
        if fires:
            target_id = turns[turn_idx + 1].speaker
            aim = target = seat_of(script, target_id)
            target_dir = (target - user_pos).normalized()
            name = display_name(script, target_id)
            role_now = Role.SPEAKER if turns[turn_idx].speaker == USER_ID else Role.LISTENER
            state = sess.begin_signal(state, pose, target, role_now, config, script.method)
            mean, jitter = agent.latency_for(script.method, state.target_in_view_at_signal)
            perceive_time = signal_tick * dt + max(0.0, mean + jitter * (2.0 * rng.random() - 1.0))
            perceive_tick = sess._first_tick(lambda j: j * dt >= perceive_time, perceive_time / dt, k + 1, _NEVER)
            signal_tick = None

        was_signaled = isinstance(state, sess.Signaled)
        state, frame = sess.tick(state, pose, target, dt, config)
        if was_signaled and isinstance(state, sess.Resolved):
            end_tick = k + 1  # hand off on the next tick
            perceive_tick = _NEVER

        # Every simulated tick steps its record: the builder alone decides whether it extends the last run.
        idle = isinstance(state, sess.Idle)
        # A baseline that the method does not present rests at values that
        # depend only on aim, name and desk, which change only when a signal fires.
        if texts or fires or k == 0:
            ti = text_icon_state(state if texts else sess.IDLE, aim, name, desk)
        if flickers or fires or k == 0:
            gaze_theta = state.cues[6] if flickers and isinstance(state, sess.Signaled) else None  # see sess._cues
            sg = sgd_state(state if flickers else sess.IDLE, pose, aim, t, config.ack_threshold, gaze_theta)
        env, (point_on, side, point_pos, color), spot, sound_pos, chime, duck, tag = frame
        runs.step((  # the record's fields in order
            k, t, user_pos, head, gaze, tag, target_id, sess.response_time(state),
            None if idle else state.target_in_view_at_signal, None if idle else state.role,
            env, point_on, side, point_pos, color, *spot, sound_pos, chime, duck,
            ti.panel_active, ti.panel_anchor, ti.panel_text, ti.icon_active, ti.icon_anchor,
            sg.active, sg.region_center,
            turns[turn_idx].speaker,
        ))
        k += 1
        # Head at its attention, gaze lead kept on or off: the next ticks' head and gaze are this tick's objects,
        # and each tick the session holds (sess.hold) repeats this record, to the pending signal, handoff or perception.
        if head is attention_dir and lead == (agent.gaze_lead > 0.0 and isinstance(state, sess.Signaled)):
            stop = signal_tick or end_tick or (perceive_tick if k <= perceive_tick else _NEVER)
            k, state = sess.hold(state, k, stop, dt, config)
            runs.n = k

    return Trace(meta=meta, records=runs.records())


# ---------------------------------------------------------------------------
# Study plan: methods x roles grid with counterbalancing
# ---------------------------------------------------------------------------


@checked
class TrialSpec(NamedTuple):
    participant: int
    order_index: int
    method: Method
    role: Role
    topic: int
    user_seat_index: int
    names: tuple[str, ...]

    def _check(self) -> None:
        _check_ints(0, participant=self.participant, order_index=self.order_index)


@checked
class StudyPlan(NamedTuple):
    participants: int
    seat_radius: float = DEFAULT_SEAT_RADIUS
    eye_height: float = DEFAULT_EYE_HEIGHT
    trials: tuple[TrialSpec, ...] = ()

    def _check(self) -> None:
        _check_ints(0, participants=self.participants)
        hexagon_seats(self.seat_radius, self.eye_height)  # checks both here, not at the first trial
        for i, trial in enumerate(self.trials):
            if not isinstance(trial, TrialSpec):
                raise ScriptError(f"trials[{i}]={_SHOWN.repr(trial)} is not a TrialSpec")
            try:
                script_for_trial(self, trial)  # so a bad trial fails before any trial runs
            except ScriptError as e:
                raise ScriptError(f"trials[{i}]: {e}") from None
        if self.trials and {trial.participant for trial in self.trials} != set(range(self.participants)):
            raise ScriptError(f"participants={_SHOWN.repr(self.participants)} is not the set of the trials' participants")


def randomize_presentation(plan: StudyPlan, seed: int) -> StudyPlan:
    """Assign method orders, topics, seats, and agent names to every trial.

    Method order per participant is a row of a balanced 4x4 Latin square
    (participant index mod 4); the eight topics split evenly between the two
    role blocks and the user's seat alternates between the two designated
    seats, giving a 4/4 split; agent names are re-drawn before every topic.
    """
    _check_ints(seed=seed)
    trials: list[TrialSpec] = []
    for p in range(plan.participants):
        rng = random.Random(stable_seed("plan", seed, p))
        order = LATIN_SQUARE_4[p % 4]
        speaker_topics = list(range(4))
        listener_topics = list(range(4, 8))
        rng.shuffle(speaker_topics)
        rng.shuffle(listener_topics)
        first_seat = rng.choice((0, 3))
        idx = 0
        for role, topics in ((Role.SPEAKER, speaker_topics), (Role.LISTENER, listener_topics)):
            for m in order:
                names = tuple(rng.sample(NAME_POOL, AGENT_COUNT))
                seat = first_seat if idx % 2 == 0 else 3 - first_seat
                trials.append(TrialSpec(p, idx, METHODS[m], role, topics[idx % 4], seat, names))
                idx += 1
    return plan._replace(trials=tuple(trials))


def script_for_trial(plan: StudyPlan, trial: TrialSpec) -> ScenarioScript:
    return default_script(
        method=trial.method,
        role=trial.role,
        topic=trial.topic,
        user_seat_index=trial.user_seat_index,
        names=trial.names,
        seat_radius=plan.seat_radius,
        eye_height=plan.eye_height,
    )


class SuiteResult(NamedTuple):
    traces: tuple[Trace, ...]
    summary: MetricsSummary


def suite_traces(
    plan: StudyPlan,
    agent: GazeAgentModel,
    config: GuidanceConfig,
    dt: float = 1.0 / 72.0,
    seed: int = 0,
    jobs: int = 1,
) -> Iterator[Trace]:
    """Each trial's trace in plan order, the trial run when its trace is taken.

    Each trial derives its own seed from (seed, participant, order index).
    The inputs are checked, and the plan randomized, on the call. Trials run
    one after another on the calling thread: on CPython a thread pool gave
    no speedup and a two-process pool under 1.5x. `jobs` is accepted (it
    must be >= 1) but not used.
    """
    _check_ints(seed=seed)
    _check_ints(1, jobs=jobs)
    if not plan.trials:
        plan = randomize_presentation(plan, seed)
    return (
        run_scenario(script_for_trial(plan, tr), agent, config, dt,
                     stable_seed("trial", seed, tr.participant, tr.order_index), participant=tr.participant)
        for tr in plan.trials
    )


def run_suite(
    plan: StudyPlan,
    agent: GazeAgentModel,
    config: GuidanceConfig,
    dt: float = 1.0 / 72.0,
    seed: int = 0,
    jobs: int = 1,
) -> SuiteResult:
    """Every trace of suite_traces, held in memory, and their aggregate metrics."""
    traces = tuple(suite_traces(plan, agent, config, dt, seed, jobs))
    return SuiteResult(traces=traces, summary=extract_metrics(traces))
