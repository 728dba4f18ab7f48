import hashlib
import json
import math
import re
import threading
from pathlib import Path

import pytest
from _rand import record_digest
from hypothesis import assume, example, given, settings, strategies as st

import turncue.scenario

import turncue.session
import turncue.trace
from turncue.audio import Role
from turncue.baselines import sgd_phase
from turncue.config import GuidanceConfig
from turncue.configio import load_suite
from turncue.errors import ScriptError, TraceIntegrityError
from turncue.geometry import UNIT_TOLERANCE, Pose, Vec3, angular_deviation
from turncue.scenario import (
    AGENT_IDS,
    METHODS,
    USER_ID,
    GazeAgentModel,
    Method,
    ScenarioScript,
    StudyPlan,
    Turn,
    default_desk_anchor,
    default_script,
    hexagon_seats,
    randomize_presentation,
    rotate_toward,
    run_scenario,
    run_suite,
    seat_of,
    suite_traces,
)
from turncue.trace import TraceRecord, read_trace, write_trace

CFG = GuidanceConfig()
FAST_DT = 0.05
REPO = Path(__file__).resolve().parents[1]


def right_angle_script(method=Method.LIGHT_AUDIO):
    """User fixates an agent straight ahead; the new speaker sits at
    exactly 90 degrees so the rotation distance is a round number."""
    seats = (
        Vec3(0.0, 1.15, 0.0),   # user
        Vec3(0.0, 1.15, 2.0),   # a1: dead ahead
        Vec3(2.0, 1.15, 0.0),   # a2: 90 degrees right
        Vec3(-2.0, 1.15, 0.0),
        Vec3(0.0, 1.15, -2.0),
        Vec3(1.5, 1.15, 1.5),
    )
    return ScenarioScript(
        seats=seats,
        user_seat_index=0,
        role=Role.LISTENER,
        method=method,
        turn_order=(Turn("a1", 10.0), Turn("a2", 10.0)),
    )


def transitions(trace):
    out = []
    prev = None
    for rec in trace.records:
        if rec.state != prev:
            out.append(rec)
            prev = rec.state
    return out


def speaker_change_times(trace):
    changes = []
    prev = None
    for rec in trace.records:
        if rec.speaker != prev:
            changes.append((rec.t, rec.speaker))
            prev = rec.speaker
    return changes


def test_validate_rejects_unknown_speaker():
    with pytest.raises(ScriptError, match="unknown speaker"):
        right_angle_script()._replace(turn_order=(Turn("a9", 10.0),))


def test_validate_rejects_nonpositive_duration():
    with pytest.raises(ScriptError, match="duration"):
        right_angle_script()._replace(turn_order=(Turn("a1", 0.0),))


def test_validate_rejects_wrong_seat_count():
    script = right_angle_script()
    with pytest.raises(ScriptError, match="seats"):
        script._replace(seats=script.seats[:4])


@pytest.mark.parametrize(
    "change,named",
    [
        (lambda seats: {"seats": seats[:2] + (Vec3(math.nan, 1.15, 0.0),) + seats[3:]}, r"seats\[2\]"),
        (lambda seats: {"seats": (Vec3(0.0, math.inf, 0.0),) + seats[1:]}, r"seats\[0\]"),
        (lambda seats: {"desk_anchor": Vec3(0.5, math.nan, 0.0)}, "desk_anchor"),
        (lambda seats: {"seats": seats[:3] + (seats[0],) + seats[4:]}, r"seats\[3\].*user's seat"),
        # Finite coordinates, but the offset from the user's seat has an infinite norm.
        (lambda seats: {"seats": seats[:5] + (Vec3(1e200, 1.15, 0.0),)},
         r"^seats\[5\]=\(1e\+200, 1\.15, 0\.0\) is too far \(offset norm inf\) from the user's seat$"),
        (lambda seats: {"seats": (Vec3(-1e154, 1.15, 0.0),) + seats[1:4] + (Vec3(1e154, 1.15, 0.0),) + seats[5:]},
         r"^seats\[4\]=\(1e\+154, 1\.15, 0\.0\) is too far"),
    ],
    ids=["nan-agent-seat", "inf-user-seat", "nan-desk-anchor", "agent-on-user-seat", "agent-seat-too-far",
         "offset-overflows"],
)
def test_validate_rejects_bad_seat_coordinates_naming_the_field(change, named):
    script = right_angle_script()
    with pytest.raises(ScriptError, match=named):
        script._replace(**change(script.seats))


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("user_seat_index", 6, "user_seat_index=6 out of range"),
        ("names", ("A", "B"), "names: expected 5, got 2"),
        ("turn_order", (), "turn_order is empty"),
        ("signal_offset", 0.0, "signal_offset=0.0 must be finite and > 0"),
    ],
)
def test_script_built_directly_rejects_a_bad_field(field, value, message):
    script = right_angle_script()
    fields = {f: getattr(script, f) for f in ("seats", "user_seat_index", "role", "method", "turn_order")}
    with pytest.raises(ScriptError, match="^" + re.escape(message) + "$"):
        ScenarioScript(**{**fields, field: value})


def test_default_script_leaves_the_desk_to_the_run_which_records_it():
    script = default_script(Method.TEXT_ICON, Role.LISTENER, user_seat_index=3)
    assert script.desk_anchor is None
    desk = default_desk_anchor(script.seats, 3)
    trace = run_scenario(script, GazeAgentModel(), CFG, dt=FAST_DT)
    assert trace == run_scenario(script._replace(desk_anchor=desk), GazeAgentModel(), CFG, dt=FAST_DT)
    assert trace.meta.desk_anchor == pytest.approx(desk)


@pytest.mark.parametrize(
    "script,dt",
    [
        (default_script(Method.LIGHT_AUDIO, Role.LISTENER), 1e-9),
        (right_angle_script()._replace(turn_order=(Turn("a1", 10.0), Turn("a2", 1e300))), 1.0 / 72.0),
        (right_angle_script()._replace(turn_order=(Turn("a1", 10.0), Turn("a2", 1e300))), 1e-9),
    ],
    ids=["tiny-dt", "huge-turn", "huge-turn-tiny-dt"],
)
def test_scenario_beyond_the_tick_bound_fails_before_any_record(monkeypatch, script, dt):
    # The bound is checked as a float, before the loop: with no builder of
    # records, any tick that ran would fail otherwise.
    monkeypatch.setattr(turncue.scenario, "_Builder", None)
    durations = ", ".join(f"{turn.duration:g}" for turn in script.turn_order)
    named = (f"dt={dt}, turn durations ({durations}) s, signal_offset={script.signal_offset} and "
             f"miss_timeout={CFG.miss_timeout} allow ")
    with pytest.raises(ScriptError, match="^" + re.escape(named)):
        run_scenario(script, GazeAgentModel(), CFG, dt=dt)


def test_rotate_toward_reaches_and_caps():
    a = Vec3(0.0, 0.0, 1.0)
    b = Vec3(1.0, 0.0, 0.0)
    stepped = rotate_toward(a, b, 30.0)
    assert angular_deviation(a, stepped) == pytest.approx(30.0, abs=1e-9)
    assert rotate_toward(a, b, 100.0) == b


def test_rotate_toward_antipodal_makes_progress():
    a = Vec3(0.0, 0.0, 1.0)
    b = Vec3(0.0, 0.0, -1.0)
    stepped = rotate_toward(a, b, 20.0)
    assert angular_deviation(a, stepped) == pytest.approx(20.0, abs=1e-6)


_COMPONENT = st.floats(-1.0, 1.0)
_UNIT = st.tuples(_COMPONENT, _COMPONENT, _COMPONENT).filter(lambda v: math.hypot(*v) > 0.1).map(
    lambda v: Vec3(*v).normalized())


@given(current=_UNIT, target=_UNIT, step=st.floats(0.01, 200.0))
@example(current=Vec3(0.0, 0.0, 1.0), target=Vec3(0.0, 0.0, -1.0), step=20.0)
def test_rotate_toward_is_the_vector_slerp_bit_for_bit(current, target, step):
    got = rotate_toward(current, target, step)
    ang = angular_deviation(current, target)
    if ang <= step:
        assert got is target
        return
    if ang >= 180.0 - 1e-9:  # the antipodal waypoint, as rotate_toward picks it
        waypoint = Vec3(current.z, 0.0, -current.x)
        target = (waypoint if waypoint.norm() > 1e-9 else Vec3(1.0, 0.0, 0.0)).normalized()
        ang = angular_deviation(current, target)
        assume(ang > step)
    omega, u = math.radians(ang), step / ang
    a, b = math.sin((1.0 - u) * omega) / math.sin(omega), math.sin(u * omega) / math.sin(omega)
    expect = (current.scaled(a) + target.scaled(b)).normalized()
    assert tuple(map(float.hex, got)) == tuple(map(float.hex, expect))


def test_kinematic_closed_form():
    # latency 0.3 s + 90 degrees / 120 deg/s = 1.05 s, exact to one tick
    dt = 1.0 / 72.0
    config = GuidanceConfig(ack_threshold=1.0)
    agent = GazeAgentModel(head_speed=120.0, latency_in=0.3, latency_out=0.3, latency_jitter=0.0)
    trace = run_scenario(right_angle_script(), agent, config, dt=dt, seed=1)
    acked = [r for r in trace.records if r.state == "acknowledged"]
    assert acked, "session never acknowledged"
    assert acked[0].rt == pytest.approx(1.05, abs=dt + 1e-9)
    assert not acked[0].in_view  # 90 degrees is outside the 45-degree viewport


def test_pathological_latency_misses_and_hands_off_at_timeout():
    dt = FAST_DT
    agent = GazeAgentModel(latency_in=10.0, latency_out=10.0, latency_jitter=0.0)
    trace = run_scenario(right_angle_script(), agent, CFG, dt=dt, seed=1)
    missed = [r for r in trace.records if r.state == "missed"]
    assert missed
    t_miss = missed[0].t
    assert t_miss == pytest.approx(5.0 + CFG.miss_timeout, abs=dt + 1e-9)
    changes = speaker_change_times(trace)
    assert changes[0][1] == "a1"
    t_next, next_speaker = changes[1]
    assert next_speaker == "a2"
    assert abs(t_next - t_miss) <= 2 * dt + 1e-9


def test_acknowledgment_hands_off_next_turn():
    dt = FAST_DT
    agent = GazeAgentModel(latency_jitter=0.0)
    trace = run_scenario(right_angle_script(), agent, CFG, dt=dt, seed=1)
    acked = [r for r in trace.records if r.state == "acknowledged"]
    assert acked
    t_ack = acked[0].t
    t_next, next_speaker = speaker_change_times(trace)[1]
    assert next_speaker == "a2"
    assert abs(t_next - t_ack) <= 2 * dt + 1e-9


def test_signal_fires_exactly_offset_after_turn_start():
    dt = FAST_DT
    trace = run_scenario(default_script(Method.LIGHT, Role.LISTENER), GazeAgentModel(), CFG, dt=dt, seed=5)
    prev = "idle"
    for rec in trace.records:
        if rec.state == "signaled" and prev != "signaled":
            turn_start = max(t for t, _ in speaker_change_times(trace) if t <= rec.t)
            assert rec.t - turn_start == pytest.approx(5.0, abs=1e-9)
        prev = rec.state


def test_same_seed_byte_identical():
    script = default_script(Method.LIGHT_AUDIO, Role.SPEAKER)
    agent = GazeAgentModel()
    a = run_scenario(script, agent, CFG, dt=FAST_DT, seed=7)
    b = run_scenario(script, agent, CFG, dt=FAST_DT, seed=7)
    assert write_trace(a.records, a.meta) == write_trace(b.records, b.meta)


def test_user_opening_gaze_lead_traces_match_pinned_digest():
    # The user speaks first, so the head rests on the first agent to speak
    # later, and gaze leads the head toward each target: two branches the
    # study golden test never reaches. The file bytes move with the trace
    # format; the read-back records move only with behaviour.
    turns = (Turn(USER_ID, 3.0), Turn("a2", 4.0), Turn(USER_ID, 3.0), Turn("a4", 2.0))
    agent = GazeAgentModel(head_speed=60.0, gaze_lead=5.0, seed=5)
    digest, traces = hashlib.sha256(), []
    for method in METHODS:
        script = ScenarioScript(
            seats=hexagon_seats(), user_seat_index=0, role=Role.SPEAKER, method=method,
            turn_order=turns, signal_offset=1.5,
        )
        trace = run_scenario(script, agent, CFG, dt=1.0 / 30.0, seed=9)
        text = write_trace(trace.records, trace.meta)
        digest.update(text.encode())
        traces.append(read_trace(text))
    assert digest.hexdigest() == "e2a7ed452ca1aad39fc5f45ab3e1fc971fcdfd2296667cd3edaec21ec421fd8b"
    assert record_digest(traces) == "a5b351e17260cf3a3ac992b666cfca2914afd54d45c5be5dc24d3ca321d2f925"


def test_slow_listener_signaled_and_missed_ticks_match_pinned_digest():
    # Every handoff is a signal half a second into the turn, and the agent
    # turns its head at 20 deg/s, so most ticks are signaled ones with a
    # moving head. From the user's seat 0, agent aN sits N seats around and
    # neighbours are 30 degrees apart: the handoffs turn by 30 and 60 degrees
    # (acknowledged) and by 90 and 120 (missed at the 5 s timeout).
    turns = (Turn("a3", 6.0), Turn("a4", 6.0), Turn("a2", 6.0), Turn("a5", 6.0), Turn("a1", 1.0))
    agent = GazeAgentModel(head_speed=20.0, seed=4)
    traces = []
    for method in METHODS:
        script = ScenarioScript(
            seats=hexagon_seats(), user_seat_index=0, role=Role.LISTENER, method=method,
            turn_order=turns, signal_offset=0.5,
        )
        trace = run_scenario(script, agent, CFG, dt=1.0 / 72.0, seed=11)
        ends = [b.state for a, b in zip(trace.records, trace.records[1:]) if a.state == "signaled" != b.state]
        assert ends == ["acknowledged", "acknowledged", "missed", "missed"]
        traces.append(trace)
    assert record_digest(traces) == "3e249f6de50bcebd80a6a87450068c4d07a96bcbab01949740522e1d7ac5378b"


@pytest.mark.parametrize("dt", [1 / 30, 1 / 45, 1 / 60, 1 / 72, 1 / 90, 1 / 120, 1 / 144, 0.1])
def test_flicker_phase_follows_from_each_read_back_t(dt):
    # A record holds no flicker phase: sgd_phase of a read-back frame's t
    # must be the phase the loop drew at that tick, sgd_phase(k * dt).
    trace = run_scenario(default_script(Method.SGD, Role.LISTENER), GazeAgentModel(), CFG, dt=dt, seed=3)
    records = read_trace(write_trace(trace.records, trace.meta)).records
    assert [sgd_phase(rec.t) for rec in records] == [sgd_phase(k * dt) for k in range(len(records))]
    assert any(rec.sgd_active for rec in records)


@pytest.mark.parametrize("every_frame", [True, False], ids=["full-frames", "delta-frames"])
def test_trace_with_the_legacy_flicker_phase_reads_to_the_same_records(every_frame):
    # Older files carry sgd_phase on their frames: on every frame, or, since
    # delta frames, where it changed. The reader checks it is a bool and
    # drops it.
    dt = 1 / 72
    trace = run_scenario(default_script(Method.SGD, Role.LISTENER), GazeAgentModel(), CFG, dt=dt, seed=3)
    lines = write_trace(trace.records, trace.meta).splitlines(keepends=True)
    last = None
    for k in range(len(trace.records)):
        phase = sgd_phase(k * dt)
        if every_frame or phase != last:
            lines[k + 1] = lines[k + 1].replace('"kind":"frame"', f'"kind":"frame","sgd_phase":{json.dumps(phase)}')
        last = phase
    assert '"sgd_phase":false' in lines[5]  # tick 4, t = 0.056: the phase turns off
    assert read_trace("".join(lines)) == trace
    lines[5] = lines[5].replace('"sgd_phase":false', '"sgd_phase":"yes"')
    with pytest.raises(TraceIntegrityError, match="^line 6: sgd_phase='yes' is not a valid bool$"):
        read_trace("".join(lines))


def test_different_seed_changes_latency_draws():
    script = default_script(Method.LIGHT_AUDIO, Role.SPEAKER)
    agent = GazeAgentModel(latency_jitter=0.05)
    a = run_scenario(script, agent, CFG, dt=FAST_DT, seed=1)
    b = run_scenario(script, agent, CFG, dt=FAST_DT, seed=2)
    assert write_trace(a.records, a.meta) != write_trace(b.records, b.meta)


def test_listener_scenario_roles_and_views():
    trace = run_scenario(default_script(Method.LIGHT_AUDIO, Role.LISTENER), GazeAgentModel(), CFG, dt=FAST_DT, seed=3)
    sessions = [r for r in transitions(trace) if r.state in ("acknowledged", "missed")]
    assert len(sessions) == 2
    assert all(s.role == "listener" for s in sessions)
    assert sorted(s.in_view for s in sessions) == [False, True]


def test_speaker_scenario_roles_and_views():
    trace = run_scenario(default_script(Method.SGD, Role.SPEAKER), GazeAgentModel(), CFG, dt=FAST_DT, seed=3)
    sessions = [r for r in transitions(trace) if r.state in ("acknowledged", "missed")]
    assert len(sessions) == 2
    assert all(s.role == "speaker" for s in sessions)
    assert sorted(s.in_view for s in sessions) == [False, True]


def test_no_overlapping_sessions():
    trace = run_scenario(default_script(Method.LIGHT, Role.SPEAKER), GazeAgentModel(), CFG, dt=FAST_DT, seed=9)
    active = False
    for rec in trace.records:
        if rec.state == "signaled":
            active = True
        elif rec.state in ("acknowledged", "missed"):
            active = False
    assert not active  # every session resolved by scenario end


def test_method_masking_light_only_has_no_audio():
    trace = run_scenario(default_script(Method.LIGHT, Role.LISTENER), GazeAgentModel(), CFG, dt=FAST_DT, seed=3)
    assert all(r.duck == 1.0 and not r.chime for r in trace.records)
    assert any(r.point_active or r.spot_active for r in trace.records)


def test_method_masking_baselines_have_no_light_changes():
    trace = run_scenario(default_script(Method.TEXT_ICON, Role.LISTENER), GazeAgentModel(), CFG, dt=FAST_DT, seed=3)
    assert all(r.env == CFG.env_levels.l_max for r in trace.records)
    assert all(not r.point_active and not r.spot_active for r in trace.records)
    assert any(r.panel_active for r in trace.records)
    assert not any(r.sgd_active for r in trace.records)
    # the panel never outlives the signal it announces
    assert all(r.state == "signaled" for r in trace.records if r.panel_active)

    trace = run_scenario(default_script(Method.SGD, Role.LISTENER), GazeAgentModel(), CFG, dt=FAST_DT, seed=3)
    assert any(r.sgd_active for r in trace.records)
    assert not any(r.panel_active for r in trace.records)
    assert all(r.state == "signaled" for r in trace.records if r.sgd_active)


def test_hexagon_seats_take_any_radius_whose_table_width_has_a_finite_norm():
    assert hexagon_seats(6.5e153)[3].x == -6.5e153  # seat 3 faces seat 0 across 1.3e154
    with pytest.raises(ScriptError, match=r"^seat_radius=7e\+153 is too large"):
        hexagon_seats(7e153)


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(1e300)
@example(2.0**53)
@example(2.0**51)
def test_default_desk_lies_exactly_0_25_below_every_accepted_eye_height(eye_height):
    try:
        seats = hexagon_seats(1.2, eye_height)
    except ScriptError as exc:
        assert str(exc) == f"eye_height={eye_height} leaves the default desk no exact 0.25 drop below it"
        assert eye_height - (eye_height - 0.25) != 0.25
        return
    for user_seat in range(6):
        assert eye_height - default_desk_anchor(seats, user_seat).y == 0.25


def test_hexagon_geometry_gives_one_in_one_out():
    # fixating the opposite seat: neighbor is 60 degrees off (out of view),
    # two seats around is 30 degrees off (in view)
    seats = hexagon_seats()
    user = seats[0]
    facing = (seats[3] - user).normalized()
    neighbor = (seats[1] - user).normalized()
    across = (seats[2] - user).normalized()
    assert angular_deviation(facing, neighbor) == pytest.approx(60.0, abs=1e-9)
    assert angular_deviation(facing, across) == pytest.approx(30.0, abs=1e-9)


def test_randomize_presentation_grid():
    plan = randomize_presentation(StudyPlan(participants=1), seed=2)
    assert len(plan.trials) == 8
    combos = {(t.method, t.role) for t in plan.trials}
    assert len(combos) == 8  # 4 methods x 2 roles, each exactly once


def test_latin_square_rows_distinct_over_four_participants():
    plan = randomize_presentation(StudyPlan(participants=4), seed=2)
    orders = set()
    for p in range(4):
        methods = tuple(t.method for t in plan.trials if t.participant == p and t.role is Role.SPEAKER)
        orders.add(methods)
    assert len(orders) == 4


def test_latin_square_position_balance():
    plan = randomize_presentation(StudyPlan(participants=8), seed=2)
    counts = {}
    for t in plan.trials:
        pos = t.order_index % 4
        counts[(pos, t.method)] = counts.get((pos, t.method), 0) + 1
    # 8 participants x 2 role blocks: each method in each position 4 times
    assert all(v == 4 for v in counts.values())
    assert len(counts) == 16


def test_seat_split_four_four():
    plan = randomize_presentation(StudyPlan(participants=3), seed=6)
    for p in range(3):
        seats = [t.user_seat_index for t in plan.trials if t.participant == p]
        assert sorted(seats).count(0) == 4
        assert sorted(seats).count(3) == 4


def test_topics_four_per_role():
    plan = randomize_presentation(StudyPlan(participants=1), seed=6)
    speaker_topics = {t.topic for t in plan.trials if t.role is Role.SPEAKER}
    listener_topics = {t.topic for t in plan.trials if t.role is Role.LISTENER}
    assert speaker_topics == {0, 1, 2, 3}
    assert listener_topics == {4, 5, 6, 7}


def test_randomization_is_seed_deterministic():
    a = randomize_presentation(StudyPlan(participants=2), seed=5)
    b = randomize_presentation(StudyPlan(participants=2), seed=5)
    assert a == b
    c = randomize_presentation(StudyPlan(participants=2), seed=6)
    assert a != c


def test_names_redrawn_per_topic():
    plan = randomize_presentation(StudyPlan(participants=1), seed=3)
    assert len({t.names for t in plan.trials}) > 1


def test_suite_trial_arithmetic():
    result = run_suite(StudyPlan(participants=1), GazeAgentModel(), CFG, dt=FAST_DT, seed=4)
    assert len(result.traces) == 8
    methods = [tr.meta.method for tr in result.traces]
    assert all(methods.count(m.value) == 2 for m in Method)
    # two designated signals per trace: session counts total 2 x traces,
    # and each cell's n splits into acknowledged + missed
    assert sum(c.n for c in result.summary.cells.values()) == 16
    for c in result.summary.cells.values():
        assert (c.mean_rt is None) == (c.n == c.missed)


def test_suite_runs_every_trial_on_the_calling_thread(monkeypatch):
    threads = []
    run_scenario = turncue.scenario.run_scenario

    def recording(*args, **kwargs):
        threads.append(threading.get_ident())
        return run_scenario(*args, **kwargs)

    monkeypatch.setattr(turncue.scenario, "run_scenario", recording)
    result = run_suite(StudyPlan(participants=1), GazeAgentModel(), CFG, dt=0.1, seed=4, jobs=2)
    assert len(result.traces) == 8
    assert threads == [threading.get_ident()] * 8


def test_plan_arithmetic_at_study_scale():
    plan = randomize_presentation(StudyPlan(participants=20), seed=1)
    assert len(plan.trials) == 160
    for m in Method:
        assert sum(1 for t in plan.trials if t.method is m) == 40


def test_empty_plan_is_empty_aggregate():
    result = run_suite(StudyPlan(participants=0), GazeAgentModel(), CFG, dt=FAST_DT, seed=4)
    assert result.traces == ()
    assert result.summary.cells == {}


@pytest.mark.parametrize("method", METHODS, ids=lambda m: m.value)
def test_baselines_run_per_tick_only_under_their_own_method(monkeypatch, method):
    # A baseline that the method does not present rests: it is worked out on
    # the first tick and at each signal, when its aim changes, and no more.
    calls = {"text_icon_state": 0, "sgd_state": 0, "tick": 0, "begin_signal": 0}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((turncue.scenario, "text_icon_state"), (turncue.scenario, "sgd_state"),
                         (turncue.session, "tick"), (turncue.session, "begin_signal")):
        counting(module, name)
    run_scenario(default_script(method, Role.SPEAKER), GazeAgentModel(), CFG, dt=FAST_DT, seed=3)
    simulated, signals = calls["tick"], calls["begin_signal"]
    assert signals == 2 and simulated > 100
    for name, own in (("text_icon_state", Method.TEXT_ICON), ("sgd_state", Method.SGD)):
        assert calls[name] == (simulated if method is own else 1 + signals), name


def assert_records_are_canonical(trace):
    """Every record equals a full, canonicalizing construction of its values."""
    for rec in trace.records:
        assert TraceRecord(**rec._asdict()) == rec


@pytest.fixture(scope="module")
def reference_run():
    """The reference suite (study plan, 1 participant, seed 7) and how many ticks ran session.tick."""
    plan, agent, config = load_suite((REPO / "configs" / "study.cfg").read_text())
    calls = []
    tick = turncue.session.tick

    def counting(*args, **kwargs):
        calls.append(1)
        return tick(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(turncue.session, "tick", counting)
        result = run_suite(plan._replace(participants=1, trials=()), agent, config, seed=7)
    return result, len(calls)


def test_reference_suite_records_equal_full_construction(reference_run):
    result, _ = reference_run
    for trace in result.traces:
        assert_records_are_canonical(trace)


def test_reference_suite_simulates_a_minority_of_ticks(reference_run):
    # 87% of the reference ticks are quiet and most repeat a settled tick:
    # the loop jumps those, so session.tick runs on about a quarter of them.
    result, calls = reference_run
    ticks = sum(len(trace.records) for trace in result.traces)
    assert ticks == 19320
    assert calls == 4939


def test_reference_suite_holds_a_run_per_change_and_reads_back_the_same_runs(reference_run):
    # 775 of the 19,320 reference ticks change a field other than tick and t:
    # the loop and the reader each keep those records and a t for every tick.
    result, _ = reference_run
    heads = [trace.records.heads for trace in result.traces]
    assert sum(map(len, heads)) == 775
    for trace, live in zip(result.traces, heads):
        assert trace.records.ts == tuple(rec.t for rec in trace.records)
        assert read_trace(write_trace(trace.records, trace.meta)).records.heads == live


def test_reference_traces_with_crlf_lines_read_the_same_on_the_short_path(reference_run, monkeypatch):
    # A CRLF file gives the same trace, and decodes no more lines: each line
    # drops its one "\r", so an unchanged tick still skips the decoder.
    decoder, decoded = turncue.trace._DECODER, []

    class Counting:
        def decode(self, line):
            decoded.append(line)
            return decoder.decode(line)

    monkeypatch.setattr(turncue.trace, "_DECODER", Counting())
    result, _ = reference_run
    for trace in result.traces:
        text = write_trace(trace.records, trace.meta)
        del decoded[:]
        assert read_trace(text) == trace
        lf = len(decoded)
        del decoded[:]
        assert read_trace(text.replace("\n", "\r\n")) == trace
        assert len(decoded) == lf == len(trace.records.heads) + 1 < len(trace.records)


def every_tick_simulated(monkeypatch):
    """Make each tick's head a fresh object, so no tick repeats the one before."""
    rotate = turncue.scenario.rotate_toward
    monkeypatch.setattr(turncue.scenario, "rotate_toward", lambda *args: Vec3(*rotate(*args)))


SLOW = GazeAgentModel(latency_in=10.0, latency_out=10.0)
LEADING = GazeAgentModel(head_speed=60.0, gaze_lead=5.0)
DENSE = GazeAgentModel(head_speed=20.0)


def dense_listener_script(method):
    """Every handoff signal-driven half a second into the turn; seen from
    seat 0, the speakers move by 30, 60, 90, 120 and 60 degrees, and at
    20 deg/s the two widest turns run into the miss timeout."""
    speakers = ("a1", "a2", "a4", "a1", "a5", "a3")
    return ScenarioScript(
        seats=hexagon_seats(),
        user_seat_index=0,
        role=Role.LISTENER,
        method=method,
        turn_order=tuple(Turn(s, 1.0) for s in speakers),
        signal_offset=0.5,
    )


LONG_FADE_LISTENER = (
    default_script(Method.LIGHT_AUDIO, Role.LISTENER), GazeAgentModel(), GuidanceConfig(fade_duration=12.0)
)
LONG_FADE_SPEAKER = (default_script(Method.LIGHT, Role.SPEAKER), SLOW, GuidanceConfig(fade_duration=15.0))


@pytest.mark.parametrize(
    "script,agent,config,dt",
    [
        (*LONG_FADE_LISTENER, FAST_DT),
        (*LONG_FADE_SPEAKER, FAST_DT),
        (default_script(Method.LIGHT_AUDIO, Role.SPEAKER), LEADING, CFG, FAST_DT),
        (default_script(Method.SGD, Role.LISTENER), LEADING, CFG, FAST_DT),
        (default_script(Method.TEXT_ICON, Role.SPEAKER), SLOW, CFG, FAST_DT),
        (dense_listener_script(Method.LIGHT_AUDIO), DENSE, CFG, FAST_DT),
        (dense_listener_script(Method.LIGHT), DENSE, CFG, FAST_DT),
        (dense_listener_script(Method.SGD), DENSE, CFG, FAST_DT),
        (dense_listener_script(Method.TEXT_ICON), DENSE, CFG, FAST_DT),
        (*LONG_FADE_LISTENER, 1 / 30),
        (*LONG_FADE_LISTENER, 1 / 144),
        (*LONG_FADE_SPEAKER, 1 / 30),
        (*LONG_FADE_SPEAKER, 1 / 144),
    ],
    ids=["long-fade-acknowledged", "long-fade-missed", "gaze-lead-speaker", "gaze-lead-sgd", "missed-text-icon",
         "dense-light-audio", "dense-light", "dense-sgd", "dense-text-icon", "long-fade-acknowledged-30hz",
         "long-fade-acknowledged-144hz", "long-fade-missed-30hz", "long-fade-missed-144hz"],
)
def test_repeated_ticks_equal_simulated_ticks(monkeypatch, script, agent, config, dt):
    # A fade longer than a turn keeps the session unsettled across the turn
    # end and into the next signal; after a miss the light fades up from
    # dim. With gaze leading the head, gaze and head part while signaled.
    # On the dense script most ticks are signaled, and the session reuses
    # its cues while the head holds still (perception latency, dwell).
    # Each trace must equal the one in which every tick runs the full
    # simulation step with a new head object, so no angle or cue is reused
    # and no settled stretch is jumped; coarse and fine frame rates check
    # where a jump lands.
    trace = run_scenario(script, agent, config, dt=dt, seed=3)
    assert_records_are_canonical(trace)
    with monkeypatch.context() as mp:
        every_tick_simulated(mp)
        simulated = run_scenario(script, agent, config, dt=dt, seed=3)
    assert trace == simulated
    assert write_trace(trace.records, trace.meta) == write_trace(simulated.records, simulated.meta)


def test_chime_windows_stop_at_the_miss_timeout():
    # A chime that would start after the miss timeout never plays, so a huge
    # repeat count gives no other trace than the bound.
    huge = GuidanceConfig(chime_max_repeats=10**6, chime_repeat_interval=0.7, duck_duration=0.5)
    bound = 1 + math.ceil(huge.miss_timeout / huge.chime_repeat_interval)
    assert bound == 9
    script = default_script(Method.LIGHT_AUDIO, Role.LISTENER)
    at_bound = run_scenario(script, SLOW, huge._replace(chime_max_repeats=bound), dt=FAST_DT, seed=3)
    assert run_scenario(script, SLOW, huge, dt=FAST_DT, seed=3) == at_bound
    assert sum(rec.chime for rec in at_bound.records) > 0


_OFFSET = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).filter(
    lambda v: math.hypot(*v) > 0.1).map(lambda v: Vec3(*v))


@st.composite
def _loop_runs(draw):
    """(script, agent, config, dt) of a short trial with drawn seats, turns, method and agent."""
    user = Vec3(*draw(st.tuples(*[st.integers(-8, 8).map(lambda i: i / 4)] * 3)))  # seat - user is the offset
    # Agents on a line through the user, level, upright, tilted or drawn, at 2 and -0.5 times one offset: exactly
    # opposite directions, so a turn from one side to the other takes rotate_toward's antipodal swing.
    line = draw(st.sampled_from([Vec3(0.0, 0.0, 1.0), Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0),
                                 Vec3(1.0, 1.0, 0.0), Vec3(0.0, 1.0, 1.0)]) | _OFFSET)
    seats = [user + draw(st.sampled_from([line.scaled(2.0), line.scaled(-0.5)]) | _OFFSET) for _ in AGENT_IDS]
    user_seat = draw(st.integers(0, len(AGENT_IDS)))
    seats.insert(user_seat, user)
    speakers = draw(st.lists(st.sampled_from((USER_ID, *AGENT_IDS)), min_size=2, max_size=4))
    script = ScenarioScript(
        seats=tuple(seats), user_seat_index=user_seat, role=draw(st.sampled_from(Role)),
        method=draw(st.sampled_from(METHODS)), turn_order=tuple(Turn(s, draw(st.floats(0.2, 1.0))) for s in speakers),
        signal_offset=draw(st.floats(0.1, 1.0)),
    )
    agent = GazeAgentModel(head_speed=draw(st.floats(10.0, 400.0)), gaze_lead=draw(st.just(0.0) | st.floats(0.5, 45.0)),
                           seed=draw(st.integers(0, 9)))
    config = GuidanceConfig(miss_timeout=draw(st.floats(0.5, 2.0)))
    return script, agent, config, draw(st.sampled_from([1 / 30, 1 / 72, 1 / 144]))


_TILTED = Vec3(0.0, 1.0, 1.0)  # a2 straight behind a1, and the swing's waypoint (z, 0, -x) not unit
_TILTED_SEATS = (Vec3(0.0, 0.0, 0.0), _TILTED.scaled(2.0), _TILTED.scaled(-0.5), Vec3(1.0, 0.0, 0.0),
                 Vec3(-1.0, 0.0, 0.0), Vec3(0.0, 0.0, 1.0))


@settings(max_examples=30, deadline=None)
@given(run=_loop_runs())
@example(run=(ScenarioScript(_TILTED_SEATS, 0, Role.LISTENER, Method.LIGHT_AUDIO, (Turn("a1", 1.0), Turn("a2", 1.0)),
                             signal_offset=0.5), GazeAgentModel(head_speed=90.0, gaze_lead=5.0), CFG, 1 / 72))
def test_every_pose_the_loop_hands_to_tick_is_unit(run):
    # run_scenario builds its poses without Pose's unit-length check: each head
    # and gaze comes from rotate_toward, normalized or a turn's rest direction.
    # Every pose that reaches session.tick must still pass that check, for
    # drawn seats, turns, methods, head speeds and gaze leads, 0 and above.
    script, agent, config, dt = run
    poses, tick = [], turncue.session.tick

    def spy(state, pose, *args):
        poses.append(pose)
        return tick(state, pose, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(turncue.session, "tick", spy)
        run_scenario(script, agent, config, dt=dt, seed=1)
    assert poses
    for pose in poses:
        assert type(pose) is Pose and len(pose) == 4
        for direction in (pose.head_forward, pose.gaze_forward):
            assert abs(direction.norm() - 1.0) <= UNIT_TOLERANCE, pose


def _session_ends(trace):
    """(outcome, rt) of each session, in order: the run head that leaves the signaled state."""
    ends, last = [], None
    for head in trace.records.heads:
        if last == "signaled" != head.state:
            ends.append((head.state, head.rt))
        last = head.state
    return ends


def test_the_reference_plan_gives_each_session_the_same_outcome_at_every_frame_rate():
    # A metamorphic relation: the study plan (seed 7, 1 participant) at six
    # frame rates. Each rate's response time is the continuous one rounded to
    # the tick grid twice, at perception and at the onset tick, so it lies
    # within one of its own ticks of it, and two rates differ by less than the
    # sum of their ticks. Against the pinned 72 Hz run, every rate also lies
    # within a 30 Hz tick (measured: 0.028 s at most, at 30 Hz). rt holds 9
    # digits, hence the 1e-9.
    plan, agent, config = load_suite((REPO / "configs" / "study.cfg").read_text())
    plan = plan._replace(participants=1, trials=())
    ends = {dt: [end for trace in suite_traces(plan, agent, config, dt=dt, seed=7) for end in _session_ends(trace)]
            for dt in (1 / 30, 1 / 60, 1 / 72, 1 / 90, 1 / 120, 1 / 144)}
    reference = ends[1 / 72]
    assert len(reference) == 16
    for dt, sessions in ends.items():
        assert [outcome for outcome, _ in sessions] == [outcome for outcome, _ in reference], dt
        for other, others in ends.items():
            gaps = [abs(rt - other_rt) for (_, rt), (_, other_rt) in zip(sessions, others) if rt is not None]
            assert max(gaps, default=0.0) <= dt + other + 1e-9, (dt, other)
            if other == 1 / 72:
                assert max(gaps, default=0.0) <= 1 / 30 + 1e-9, dt


@pytest.mark.parametrize("method", METHODS, ids=lambda m: m.value)
@pytest.mark.parametrize(
    "script,agent",
    [(dense_listener_script, DENSE), (lambda m: default_script(m, Role.SPEAKER), LEADING)],
    ids=["dense-listener", "gaze-lead-speaker"],
)
def test_skipping_the_channels_a_method_does_not_present_changes_no_record(monkeypatch, script, agent, method):
    # Each trace must equal the one in which every session computes every
    # channel, and the record then rests each channel the method does not
    # present: the lights unless the method is lit, the chime unless audible.
    script = script(method)
    trace = run_scenario(script, agent, CFG, dt=FAST_DT, seed=3)
    begin_signal = turncue.session.begin_signal
    with monkeypatch.context() as mp:
        mp.setattr(turncue.session, "begin_signal", lambda *args: begin_signal(*args[:5]))  # method None
        every_channel = run_scenario(script, agent, CFG, dt=FAST_DT, seed=3)
    user = script.seats[script.user_seat_index]

    def rested(rec):
        if method in (Method.SGD, Method.TEXT_ICON):
            rec = rec._replace(env=CFG.env_levels.l_max, point_active=False, spot_active=False, spot_intensity=0.0,
                               spot_cone=CFG.spot_geometry.a_min)
        if method is not Method.LIGHT_AUDIO:
            rec = rec._replace(sound_pos=seat_of(script, rec.target) if rec.target else user, chime=False, duck=1.0)
        return rec

    masked = tuple(map(rested, every_channel.records))
    assert (masked == every_channel.records) == (method is Method.LIGHT_AUDIO)
    assert trace.records == masked
    assert write_trace(trace.records, trace.meta) == write_trace(masked, every_channel.meta)


_MIRRORED = ("pos", "head", "gaze", "point_pos", "spot_aim", "sound_pos", "panel_anchor", "icon_anchor", "sgd_center")
_SWAPPED = {"left": "right", "right": "left"}


def _mirror(v) -> Vec3:
    """v reflected in the plane z = 0."""
    return Vec3(v[0], v[1], -v[2])


@settings(max_examples=12, deadline=None)
@given(method=st.sampled_from(METHODS), role=st.sampled_from(Role), user_seat=st.integers(0, 5),
       radius=st.floats(0.6, 3.0), dt=st.sampled_from([FAST_DT, 1 / 72]),
       agent=st.tuples(st.floats(20.0, 300.0), st.just(0.0) | st.floats(0.5, 10.0), st.floats(0.2, 6.0),
                       st.integers(0, 9)).map(lambda a: GazeAgentModel(a[0], a[1], latency_out=a[2], seed=a[3])))
@example(method=Method.LIGHT_AUDIO, role=Role.LISTENER, user_seat=3, radius=1.2, dt=1 / 72,
         agent=GazeAgentModel(head_speed=40.0, gaze_lead=7.0))
def test_a_scene_mirrored_in_z_gives_the_mirrored_records_tick_for_tick(method, role, user_seat, radius, dt, agent):
    # A metamorphic relation: negate the z of every seat and of the desk, and
    # every record is the original's with the z of each position and direction
    # negated and the point light on the other side, exactly. Where the head
    # points straight at the target, both sides read right (lateral_side's tie),
    # and the point light's side and position are exempt.
    script = default_script(method, role, user_seat_index=user_seat, seat_radius=radius)
    desk = default_desk_anchor(script.seats, user_seat)
    original = run_scenario(script._replace(desk_anchor=desk), agent, CFG, dt=dt, seed=5)
    mirror = script._replace(seats=tuple(map(_mirror, script.seats)), desk_anchor=_mirror(desk))
    mirrored = run_scenario(mirror, agent, CFG, dt=dt, seed=5)
    assert mirrored.meta == original.meta._replace(seats=mirror.seats, desk_anchor=mirror.desk_anchor)
    assert len(mirrored.records) == len(original.records)
    for rec, got in zip(original.records, mirrored.records):
        expected = rec._replace(point_side=_SWAPPED[rec.point_side], **{name: _mirror(getattr(rec, name))
                                                                        for name in _MIRRORED})
        if rec.point_side == got.point_side == "right":
            expected = expected._replace(point_side="right", point_pos=got.point_pos)
        assert got == expected, rec.tick
