"""Outside-in tracing of turncue's layers.

Every timing here comes from the benchmark calling a public function of one
module under src/turncue and reading the clock around the call; nothing is
patched into the program. Spans (name, start, end, parent, trial id) are
kept in memory and written once at the end of a run. Per-call timings too
fine for a span each (one per tick) go into sample arrays instead.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

from turncue import (
    IDLE,
    AngularRange,
    DeviationReference,
    Pose,
    Signaled,
    TraceRecord,
    Vec3,
    angular_deviation,
    begin_signal,
    deviation_to_target,
    env_light_with_fade,
    point_light_state,
    sgd_state,
    sound_source_position,
    spotlight_state,
    text_icon_state,
    tick,
)
from turncue.audio import Role
from turncue.geometry import direction_to
from turncue.scenario import default_desk_anchor, display_name, seat_of
from turncue.session import MIN_RANGE_WIDTH

# Percentiles tried for a timing's tail, highest first; the first with at
# least TAIL_BEYOND samples above it is reported. With fewer than
# 10 * TAIL_BEYOND samples the tail is the maximum (reported as 100).
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
TAIL_BEYOND = 10


class Recorder:
    """In-memory spans plus per-layer duration samples in nanoseconds."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.samples: dict[str, array] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, trial):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, trial, start, end, parent)

    def add(self, name: str, ns: float) -> None:
        self.samples.setdefault(name, array("d")).append(ns)

    def durations(self, name: str) -> list[int]:
        return [end - start for (n, _, start, end, _) in self.spans if n == name]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, trial, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "trial": trial,
                                     "start_ns": start, "end_ns": end, "parent": parent}) + "\n")


def summarize(values) -> tuple[float, float, float, int]:
    """(median, tail value, tail percentile, sample count)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(n * pct / 100.0)
        if n - rank >= TAIL_BEYOND:
            return statistics.median(ordered), ordered[rank - 1], pct, n
    return statistics.median(ordered), ordered[-1], 100.0, n


class GcWatch:
    """Collector pauses in this process, seen through gc.callbacks."""

    def __init__(self) -> None:
        self.pause_ns = 0
        self.gen2 = 0
        self._start = 0

    def _callback(self, phase, info) -> None:
        if phase == "start":
            self._start = perf_counter_ns()
        else:
            self.pause_ns += perf_counter_ns() - self._start
            if info.get("generation") == 2:
                self.gen2 += 1

    @contextmanager
    def watching(self):
        gc.callbacks.append(self._callback)
        try:
            yield
        finally:
            gc.callbacks.remove(self._callback)


def _ranges(pose: Pose, target: Vec3, config) -> tuple[AngularRange, AngularRange]:
    """(gaze range, head range) a signal captures at this pose."""
    floor = config.theta_min + MIN_RANGE_WIDTH
    gaze = deviation_to_target(pose, target, DeviationReference.GAZE_TO_TARGET)
    head = deviation_to_target(pose, target, DeviationReference.HEAD_TO_TARGET)
    return (AngularRange(config.theta_min, max(gaze, floor)),
            AngularRange(config.theta_min, max(head, floor)))


_RECORD_FIELDS = tuple(TraceRecord.__dataclass_fields__)


def replay_kernel(trial_input, trace, rec: Recorder) -> int:
    """Feed a trial's recorded poses through begin_signal/tick and time it.

    Timestamps are k * dt with the workload's exact dt, not the trace's
    quantized meta.dt. Besides the kernel, the replay times one call per tick
    of each cue channel, each baseline and the record constructor, with the
    inputs the tick had. Returns the number of ticks whose replayed session
    tag differs from the recorded one (pose quantization drift).
    """
    script, config, dt = trial_input.script, trial_input.config, trial_input.dt
    desk = script.desk_anchor or default_desk_anchor(script.seats, script.user_seat_index)
    clock = perf_counter_ns
    add = rec.add
    state = IDLE
    drift = 0
    prev_tag = "idle"
    gaze_range = head_range = None
    signal_t = 0.0
    signal_gaze = None
    for k, r in enumerate(trace.records):
        t = k * dt
        pose = Pose(Vec3(*r.pos), Vec3(*r.head), Vec3(*r.gaze), t)
        target = seat_of(script, r.target) if r.target else None
        if r.state == "signaled" and prev_tag != "signaled":
            start = IDLE if isinstance(state, Signaled) else state
            t0 = clock()
            state = begin_signal(start, pose, target, Role(r.role), config)
            add("session.begin_signal", clock() - t0)
            gaze_range, head_range = _ranges(pose, target, config)
            signal_t, signal_gaze = t, pose.gaze_forward
        prev_tag = r.state

        layer = "session.tick_signaled" if isinstance(state, Signaled) else "session.tick_quiet"
        t0 = clock()
        state, frame = tick(state, pose, target, dt, config)
        add(layer, clock() - t0)
        if frame.session_state != r.state:
            drift += 1

        if target is not None:
            t0 = clock()
            point_light_state(pose, target, head_range, half_angle=config.viewport_half_angle,
                              azimuth=config.point_azimuth, radius=config.point_radius,
                              warm=config.warm, cold=config.cold, gamma=config.gamma_point)
            add("lights.point_light_state", clock() - t0)
            t0 = clock()
            spotlight_state(pose, target, gaze_range, config.spot_levels, config.spot_geometry,
                            half_angle=config.viewport_half_angle, gamma=config.gamma_spot,
                            deactivate_at_min=config.spot_deactivate_at_min)
            add("lights.spotlight_state", clock() - t0)
            t0 = clock()
            env_light_with_fade(t - signal_t, angular_deviation(pose.gaze_forward, signal_gaze),
                                config.env_levels.l_max, gaze_range, config.env_levels,
                                config.gamma_env, config.fade_duration)
            add("lights.env_light_with_fade", clock() - t0)
            head_theta = angular_deviation(pose.head_forward, direction_to(pose.position, target))
            t0 = clock()
            sound_source_position(pose.position, target, head_theta, head_range, config.sound_easing)
            add("audio.sound_source_position", clock() - t0)

        aim = target or desk
        name = display_name(script, r.target) if r.target else ""
        t0 = clock()
        sgd_state(state, pose, aim, t, config.ack_threshold)
        add("baselines.sgd_state", clock() - t0)
        t0 = clock()
        text_icon_state(state, aim, name, desk)
        add("baselines.text_icon_state", clock() - t0)

        values = [getattr(r, f) for f in _RECORD_FIELDS]
        t0 = clock()
        TraceRecord(*values)
        add("trace.record_build", clock() - t0)
    return drift
