"""Acceptance suite: one test per criterion, at the stated tolerance.

Each criterion's expected values come from an independently written
brute-force evaluator (defined below, separate from the production code)
or from the protocol arithmetic itself. A pass/fail line per criterion is
printed by the conftest hook.
"""

import math
import random

import pytest

from _rand import random_trace
from turncue.audio import Role, sound_source_position
from turncue.baselines import sgd_phase, sgd_state
from turncue.config import GuidanceConfig
from turncue.geometry import AngularRange, Pose, Vec3
from turncue.lights import (
    env_light_intensity,
    point_light_color,
    spot_cone_angle,
    spot_intensity,
    spotlight_state,
)
from turncue.metrics import extract_metrics
from turncue.scenario import (
    GazeAgentModel,
    Method,
    ScenarioScript,
    StudyPlan,
    Turn,
    randomize_presentation,
    run_scenario,
    run_suite,
)
from turncue.session import IDLE, Resolved, begin_signal, tick
from turncue.trace import read_trace, write_trace

DT = 1.0 / 72.0
CFG = GuidanceConfig()

# Shipped default parameter values, restated here so the oracle side does
# not read them from the package.
ENV_MIN, ENV_MAX = 0.5, 1.1
SPOT_MIN, SPOT_MAX = 0.8, 1.5
CONE_MIN, CONE_MAX = 30.0, 60.0
WARM = (1.0, 0.902, 0.259)
COLD = (1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Independent brute-force evaluators of the cue equations (the oracle side).
# Written from the formulas directly; shares no code with the package.
# ---------------------------------------------------------------------------

def oracle_progress(theta, t_min, t_max, gamma):
    clamped = theta
    if clamped > t_max:
        clamped = t_max
    if clamped < t_min:
        clamped = t_min
    return math.pow((clamped - t_min) / (t_max - t_min), gamma)


def oracle_env(theta, t_min, t_max, gamma):
    return ENV_MIN + (ENV_MAX - ENV_MIN) * oracle_progress(theta, t_min, t_max, gamma)


def oracle_color(theta, t_min, t_max, gamma):
    p = oracle_progress(theta, t_min, t_max, gamma)
    return tuple(c + (w - c) * p for w, c in zip(WARM, COLD))


def oracle_spot(theta, t_min, t_max, gamma):
    p = oracle_progress(theta, t_min, t_max, gamma)
    return (SPOT_MIN + (SPOT_MAX - SPOT_MIN) * p, CONE_MIN + (CONE_MAX - CONE_MIN) * p)


def oracle_sound(u, t, theta, t_min, t_max):
    if theta >= t_max:
        return u
    if theta <= t_min:
        return t
    s = (t_max - theta) / (t_max - t_min)
    return tuple(ui + s * (ti - ui) for ui, ti in zip(u, t))


def rel_close(a, b, rel=1e-9):
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def gaze_at(deg_from_target):
    a = math.radians(deg_from_target)
    return Vec3(math.sin(a), 0.0, math.cos(a))


def right_angle_script():
    """User fixates an agent dead ahead; the new speaker sits at exactly
    90 degrees, so the rotation distance is a round number."""
    seats = (
        Vec3(0.0, 1.15, 0.0), Vec3(0.0, 1.15, 2.0), Vec3(2.0, 1.15, 0.0),
        Vec3(-2.0, 1.15, 0.0), Vec3(0.0, 1.15, -2.0), Vec3(1.5, 1.15, 1.5),
    )
    return ScenarioScript(
        seats=seats, user_seat_index=0, role=Role.LISTENER, method=Method.LIGHT_AUDIO,
        turn_order=(Turn("a1", 10.0), Turn("a2", 8.0)),
    )


@pytest.fixture(scope="module")
def suite_result():
    plan = StudyPlan(participants=1)
    agent = GazeAgentModel(latency_jitter=0.0)
    return run_suite(plan, agent, CFG, dt=DT, seed=11)


def test_c01_equation_oracle_equivalence():
    rng = AngularRange(0.0, 90.0)
    env_levels = CFG.env_levels
    spot_levels = CFG.spot_levels
    geometry = CFG.spot_geometry
    u, t = Vec3(0.0, 0.0, 0.0), Vec3(2.0, 1.0, -3.0)
    for gamma in (0.5, 1.0, 2.0):
        for theta_int in range(0, 181):
            theta = float(theta_int)
            assert rel_close(
                env_light_intensity(theta, rng, env_levels, gamma),
                oracle_env(theta, 0.0, 90.0, gamma),
            )
            got = point_light_color(theta, rng, CFG.warm, CFG.cold, gamma)
            for g, e in zip(got.to_tuple(), oracle_color(theta, 0.0, 90.0, gamma)):
                assert rel_close(g, e)
            exp_int, exp_cone = oracle_spot(theta, 0.0, 90.0, gamma)
            assert rel_close(spot_intensity(theta, rng, spot_levels, gamma), exp_int)
            assert rel_close(spot_cone_angle(theta, rng, geometry, gamma), exp_cone)
            pos = sound_source_position(u, t, theta, rng)
            for g, e in zip(pos, oracle_sound(u, t, theta, 0.0, 90.0)):
                assert rel_close(g, e)


def test_c02_boundary_exactness_with_study_parameters():
    rng = AngularRange(0.0, 90.0)
    assert abs(env_light_intensity(90.0, rng, CFG.env_levels, 1.0) - 1.1) <= 1e-12
    assert abs(env_light_intensity(0.0, rng, CFG.env_levels, 1.0) - 0.5) <= 1e-12
    assert abs(spot_intensity(90.0, rng, CFG.spot_levels, 1.0) - 1.5) <= 1e-12
    assert abs(spot_intensity(0.0, rng, CFG.spot_levels, 1.0) - 0.8) <= 1e-12
    assert abs(spot_cone_angle(90.0, rng, CFG.spot_geometry, 1.0) - 60.0) <= 1e-12
    assert abs(spot_cone_angle(0.0, rng, CFG.spot_geometry, 1.0) - 30.0) <= 1e-12
    for got, want in zip(point_light_color(90.0, rng, CFG.warm, CFG.cold, 1.0).to_tuple(), WARM):
        assert abs(got - want) <= 1e-12
    for got, want in zip(point_light_color(0.0, rng, CFG.warm, CFG.cold, 1.0).to_tuple(), COLD):
        assert abs(got - want) <= 1e-12

    # full spotlight path at exact boundary poses
    target = Vec3(0.0, 0.0, 2.0)
    head = Vec3(0.0, 0.0, 1.0)
    at_max = Pose(Vec3(0, 0, 0), head, Vec3(1.0, 0.0, 0.0), 0.0)
    state = spotlight_state(at_max, target, rng, CFG.spot_levels, CFG.spot_geometry,
                            half_angle=45.0, gamma=1.0, deactivate_at_min=False)
    assert abs(state.intensity - 1.5) <= 1e-12 and abs(state.cone_angle - 60.0) <= 1e-12
    at_min = Pose(Vec3(0, 0, 0), head, head, 0.0)
    state = spotlight_state(at_min, target, rng, CFG.spot_levels, CFG.spot_geometry,
                            half_angle=45.0, gamma=1.0, deactivate_at_min=False)
    assert abs(state.intensity - 0.8) <= 1e-12 and abs(state.cone_angle - 30.0) <= 1e-12


def test_c03_monotonicity_randomized():
    rnd = random.Random(2024)
    violations = 0
    for _ in range(10_000):
        lo = rnd.uniform(0.0, 160.0)
        hi = rnd.uniform(lo + 0.5, 180.0)
        band = AngularRange(lo, hi)
        gamma = rnd.uniform(0.01, 8.0)
        t1 = rnd.uniform(-10.0, 200.0)
        t2 = rnd.uniform(t1, 200.0)

        if env_light_intensity(t2, band, CFG.env_levels, gamma) < env_light_intensity(t1, band, CFG.env_levels, gamma) - 1e-12:
            violations += 1
        c1 = point_light_color(t1, band, CFG.warm, CFG.cold, gamma).to_tuple()
        c2 = point_light_color(t2, band, CFG.warm, CFG.cold, gamma).to_tuple()
        for ch1, ch2, w, c in zip(c1, c2, WARM, COLD):
            toward_warm = ch2 - ch1 if w >= c else ch1 - ch2
            if toward_warm < -1e-12:
                violations += 1
        if spot_intensity(t2, band, CFG.spot_levels, gamma) < spot_intensity(t1, band, CFG.spot_levels, gamma) - 1e-12:
            violations += 1
        if spot_cone_angle(t2, band, CFG.spot_geometry, gamma) < spot_cone_angle(t1, band, CFG.spot_geometry, gamma) - 1e-12:
            violations += 1
        u, t = Vec3(0, 0, 0), Vec3(3, 0, 0)
        s1 = sound_source_position(u, t, t1, band).x / 3.0
        s2 = sound_source_position(u, t, t2, band).x / 3.0
        if s2 > s1 + 1e-12:  # larger theta must not sit closer to the target
            violations += 1
    assert violations == 0


def test_c04_viewport_gating_random_poses():
    rnd = random.Random(4091)
    cfg = GuidanceConfig(spot_deactivate_at_min=False)
    origin = Vec3(0.0, 0.0, 0.0)
    base = Pose(origin, Vec3(0, 0, 1), Vec3(0, 0, 1), 0.0)
    violations = 0
    for _ in range(10_000):
        while True:
            v = Vec3(rnd.uniform(-1, 1), rnd.uniform(-1, 1), rnd.uniform(-1, 1))
            if 1e-3 < v.norm() <= 1.0:
                facing = v.normalized()
                break
        target = Vec3(rnd.uniform(-4, 4), rnd.uniform(-4, 4), rnd.uniform(-4, 4))
        if (target - origin).norm() < 0.1:
            continue
        state = begin_signal(IDLE, base, target, Role.LISTENER, cfg)
        pose = Pose(origin, facing, facing, DT)
        state, frame = tick(state, pose, target, DT, cfg)
        # Oracle: acos of the dot product, inclusive at the half angle.
        cos = sum(f * c for f, c in zip(facing, target)) / math.hypot(*target)  # origin at 0
        expect_in = math.degrees(math.acos(max(-1.0, min(1.0, cos)))) <= cfg.viewport_half_angle + 1e-9
        if frame.point.active == frame.spot.active:
            violations += 1
        if frame.spot.active != expect_in:
            violations += 1
        if frame.point.active != (not expect_in):
            violations += 1
    assert violations == 0


def _session_walk(aligned_from, cfg=CFG):
    target = Vec3(2.0, 0.0, 0.0)
    ahead = Vec3(0.0, 0.0, 1.0)
    at_target = Vec3(1.0, 0.0, 0.0)
    state = begin_signal(IDLE, Pose(Vec3(0, 0, 0), ahead, ahead, 0.0), target, Role.LISTENER, cfg)
    k = 1
    while k * DT <= 8.0:
        t = k * DT
        facing = at_target if (aligned_from is not None and t >= aligned_from - 1e-9) else ahead
        state, _ = tick(state, Pose(Vec3(0, 0, 0), facing, facing, t), target, DT, cfg)
        if isinstance(state, Resolved):
            return state
        k += 1
    return state


def test_c05_state_machine_timing_and_handoff():
    # acknowledgment at alignment start + 1.5 s, response time = alignment start
    aligned_from = 2.0  # exact grid point: 2.0 / DT = 144
    state = _session_walk(aligned_from)
    assert isinstance(state, Resolved)
    assert abs(state.response_time - 2.0) <= DT + 1e-9
    assert abs(state.end_time - (2.0 + CFG.ack_dwell)) <= DT + 1e-9

    # miss at exactly the timeout
    state = _session_walk(None)
    assert isinstance(state, Resolved) and state.response_time is None
    assert abs(state.end_time - CFG.miss_timeout) <= DT + 1e-9

    # handoff on both paths, via the scenario loop
    script = right_angle_script()
    fast = run_scenario(script, GazeAgentModel(latency_jitter=0.0), CFG, dt=DT, seed=2)
    acked = [r for r in fast.records if r.state == "acknowledged"]
    first_a2 = next(r for r in fast.records if r.speaker == "a2")
    assert acked and abs(first_a2.t - acked[0].t) <= 2 * DT + 1e-9

    slow = run_scenario(script, GazeAgentModel(latency_in=10.0, latency_out=10.0, latency_jitter=0.0), CFG, dt=DT, seed=2)
    missed = [r for r in slow.records if r.state == "missed"]
    first_a2 = next(r for r in slow.records if r.speaker == "a2")
    assert missed
    assert abs(missed[0].t - (script.signal_offset + CFG.miss_timeout)) <= DT + 1e-9
    assert abs(first_a2.t - missed[0].t) <= 2 * DT + 1e-9


def test_c06_protocol_fidelity(suite_result):
    # one participant: exactly 8 trials, 4 methods x 2 roles
    assert len(suite_result.traces) == 8
    combos = {(tr.meta.method, tr.meta.role) for tr in suite_result.traces}
    assert len(combos) == 8

    # signal fires exactly signal_offset after its turn's start tick
    for trace in suite_result.traces:
        turn_starts = [0.0]
        prev_speaker = trace.records[0].speaker
        prev_state = None
        for rec in trace.records:
            if rec.speaker != prev_speaker:
                turn_starts.append(rec.t)
                prev_speaker = rec.speaker
            if rec.state == "signaled" and prev_state != "signaled":
                start = max(s for s in turn_starts if s <= rec.t)
                assert rec.t - start == pytest.approx(5.0, abs=1e-6)
            prev_state = rec.state

    # Latin-square position balance over 4k participants (k = 2)
    plan = randomize_presentation(StudyPlan(participants=8), seed=23)
    counts = {}
    for t in plan.trials:
        counts[(t.order_index % 4, t.method)] = counts.get((t.order_index % 4, t.method), 0) + 1
    assert len(counts) == 16 and all(v == 4 for v in counts.values())

    # 4/4 seat split over the 8 topics of every participant
    for p in range(8):
        seats = [t.user_seat_index for t in plan.trials if t.participant == p]
        assert len(seats) == 8 and seats.count(0) == 4 and seats.count(3) == 4


def test_c07_kinematic_closed_form():
    # latency 0.3 s, speed 120 deg/s, target 90 degrees out:
    # response = 0.3 + 90 / 120 = 1.05 s. Alignment onset is measured at a
    # 1-degree threshold so the closed form holds within one tick.
    agent = GazeAgentModel(head_speed=120.0, latency_in=0.3, latency_out=0.3, latency_jitter=0.0)
    config = GuidanceConfig(ack_threshold=1.0)
    trace = run_scenario(right_angle_script(), agent, config, dt=DT, seed=0)
    acked = [r for r in trace.records if r.state == "acknowledged"]
    assert acked
    expected = 0.3 + 90.0 / 120.0
    assert abs(acked[0].rt - expected) <= DT + 1e-9


def test_c08_determinism(suite_result):
    script = right_angle_script()
    agent = GazeAgentModel()
    one = run_scenario(script, agent, CFG, dt=DT, seed=9)
    two = run_scenario(script, agent, CFG, dt=DT, seed=9)
    assert write_trace(one.records, one.meta) == write_trace(two.records, two.meta)

    # parallel suite execution produces the same bytes as sequential
    parallel = run_suite(StudyPlan(participants=1), GazeAgentModel(latency_jitter=0.0), CFG, dt=DT, seed=11, jobs=4)
    assert len(parallel.traces) == len(suite_result.traces)
    for a, b in zip(suite_result.traces, parallel.traces):
        assert write_trace(a.records, a.meta) == write_trace(b.records, b.meta)
    assert parallel.summary == suite_result.summary


def test_c09_sgd_phase_and_deactivation():
    # 10 Hz square wave: on-fraction one half over any 1 s window, +- 1 frame
    frames_per_second = round(1.0 / DT)
    for start in (0.0, 0.137, 0.25, 0.5, 1.31, 3.0):
        on = sum(1 for k in range(frames_per_second) if sgd_phase(start + k * DT))
        assert abs(on - frames_per_second / 2) <= 1

    target = Vec3(2.0, 0.0, 0.0)
    ahead = Vec3(0.0, 0.0, 1.0)
    state = begin_signal(IDLE, Pose(Vec3(0, 0, 0), ahead, ahead, 0.0), target, Role.LISTENER, CFG)
    away = sgd_state(state, Pose(Vec3(0, 0, 0), ahead, ahead, 0.1), target, 0.1, CFG.ack_threshold)
    assert away.active
    near_dir = gaze_at(88.0)  # 2 degrees off the target
    near = sgd_state(state, Pose(Vec3(0, 0, 0), near_dir, near_dir, 0.2), target, 0.2, CFG.ack_threshold)
    assert not near.active


def test_c10_round_trip_and_live_vs_replayed_metrics(suite_result):
    rnd = random.Random(515)
    for _ in range(100):
        trace = random_trace(rnd, rnd.randint(0, 30))
        assert read_trace(write_trace(trace.records, trace.meta)) == trace

    replayed = [read_trace(write_trace(tr.records, tr.meta)) for tr in suite_result.traces]
    assert extract_metrics(replayed) == suite_result.summary
    assert extract_metrics(replayed).cells == suite_result.summary.cells
