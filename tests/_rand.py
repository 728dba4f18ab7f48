"""Shared builders and digests for trace records used across test modules."""

import hashlib
import random

from turncue.scenario import GazeAgentModel, ScenarioScript, Turn, hexagon_seats
from turncue.trace import Role, Trace, TraceMeta, TraceRecord


def make_meta(method="light_audio", role="listener", **kw):
    base = dict(
        method=method,
        role=role,
        topic=0,
        participant=0,
        seed=0,
        dt=0.1,
        user_seat=0,
        seats=tuple((float(i), 1.0, 0.0) for i in range(6)),
        desk_anchor=(0.5, 0.8, 0.0),
        names=("A", "B", "C", "D", "E"),
    )
    base.update(kw)
    return TraceMeta(**base)


def make_record(tick, t, state="idle", rt=None, in_view=None, role=None, speaker="a1", **kw):
    base = dict(
        tick=tick,
        t=t,
        pos=(0.0, 1.0, 0.0),
        head=(0.0, 0.0, 1.0),
        gaze=(0.0, 0.0, 1.0),
        state=state,
        target="a2" if state != "idle" else None,
        rt=rt,
        in_view=in_view,
        role=role,
        env=1.1,
        point_active=state == "signaled",
        point_side="right",
        point_pos=(0.3, 1.0, 0.4),
        point_color=(1.0, 0.951, 0.6295),
        spot_active=False,
        spot_intensity=0.0,
        spot_cone=30.0,
        spot_aim=(2.0, 1.0, 0.0),
        sound_pos=(1.0, 1.0, 0.0),
        chime=False,
        duck=1.0,
        panel_active=False,
        panel_anchor=(0.5, 0.8, 0.0),
        panel_text="",
        icon_active=False,
        icon_anchor=(2.0, 1.4, 0.0),
        sgd_active=False,
        sgd_center=(2.0, 1.0, 0.0),
        speaker=speaker,
    )
    base.update(kw)
    return TraceRecord(**base)


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


def random_record(rng: random.Random, tick: int) -> TraceRecord:
    def f():
        return rng.uniform(-100, 100)

    def triple():
        return (f(), f(), f())

    state = rng.choice(("idle", "signaled", "acknowledged", "missed"))
    return TraceRecord(
        tick=tick,
        t=tick * 0.013888,
        pos=triple(),
        head=triple(),
        gaze=triple(),
        state=state,
        target=rng.choice((None, "a1", "a3")),
        rt=rng.choice((None, rng.uniform(0, 5))),
        in_view=rng.choice((None, True, False)),
        role=rng.choice((None, "speaker", "listener")),
        env=rng.uniform(0.4, 1.2),
        point_active=rng.random() < 0.5,
        point_side=rng.choice(("left", "right")),
        point_pos=triple(),
        point_color=(rng.random(), rng.random(), rng.random()),
        spot_active=rng.random() < 0.5,
        spot_intensity=rng.uniform(0, 2),
        spot_cone=rng.uniform(30, 60),
        spot_aim=triple(),
        sound_pos=triple(),
        chime=rng.random() < 0.5,
        duck=rng.uniform(0, 1),
        panel_active=rng.random() < 0.5,
        panel_anchor=triple(),
        panel_text=rng.choice(("", "Alex", "Blair")),
        icon_active=rng.random() < 0.5,
        icon_anchor=triple(),
        sgd_active=rng.random() < 0.5,
        sgd_center=triple(),
        speaker=rng.choice(("user", "a1", "a2")),
    )


def random_trace(rng: random.Random, n_records: int) -> Trace:
    return Trace(
        meta=make_meta(seed=rng.randrange(10_000)),
        records=tuple(random_record(rng, i) for i in range(n_records)),
    )


def record_digest(traces) -> str:
    """sha256 of the records' behaviour fields, rendered independently of the
    file format (perfbench's record digest, the meta's geometry aside)."""
    def canon(value) -> str:
        if value is None:
            return "~"
        if isinstance(value, bool):
            return "T" if value else "F"
        if isinstance(value, float):
            return format(value, ".9g")
        if isinstance(value, tuple):
            return "(" + ",".join(map(canon, value)) + ")"
        return repr(value)

    meta_fields = ("method", "role", "topic", "participant", "user_seat", "names")
    fields = TraceRecord._fields
    h = hashlib.sha256()
    for trace in traces:
        h.update(("M|" + "|".join(canon(getattr(trace.meta, name)) for name in meta_fields) + "\n").encode())
        for rec in trace.records:
            h.update(("|".join(canon(getattr(rec, name)) for name in fields) + "\n").encode())
    return h.hexdigest()
