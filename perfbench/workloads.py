"""Workload inputs, reference pins and output checks shared by the benchmark.

Everything here derives its inputs from the workload seed; the program under
test only ever sees the generated plans and scripts. Importing this module
imports turncue, so the setup probe imports it inside its timed region.
"""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from turncue import (  # noqa: E402
    GazeAgentModel,
    Method,
    ScenarioScript,
    Turn,
    hexagon_seats,
    load_suite,
    parse_config,
    randomize_presentation,
)
from turncue.audio import Role  # noqa: E402
from turncue.scenario import (  # noqa: E402
    AGENT_COUNT,
    METHODS,
    NAME_POOL,
    USER_ID,
    default_desk_anchor,
    script_for_trial,
    stable_seed,
)

STUDY_CFG = ROOT / "configs" / "study.cfg"
DEFAULT_CFG = ROOT / "configs" / "default.cfg"

DT = 1.0 / 72.0
# Tiny mode (smoke test only) runs every workload at 10 Hz.
TINY_DT = 0.1

# Reference point: `turncue suite --plan configs/study.cfg --participants 1
# --seed 7`. The CSV md5 and the file-byte digest are the ROADMAP's pins; the
# record digest is this benchmark's own canonical rendering of the read-back
# records, so a change of trace file format keeps it while a change of
# behaviour moves it.
REF_SEED = 7
REF_CSV_MD5 = "17c59b2a0edc53cdb35cbeddd4efc2ef"
REF_FILE_SHA256 = "731d5079c96aeb6fd106701eb86b6c6eace90b92ca390aaf087f90558bf760f6"
REF_RECORD_SHA256 = "1cc6046d229a1b9debf701dcbe0ec45edc91e3eec62747395a82b57e6c696578"

# Dense listener script: every handoff is an agent-to-agent signal fired
# half a second into the turn, and the agent turns its head slowly enough
# that wide rotations run into the miss timeout.
DENSE_SIGNAL_OFFSET = 0.5
DENSE_HEAD_SPEED = 20.0
DENSE_FINAL_TURN = 1.0
DENSE_TOURS = 2
DENSE_TINY_TOURS = 1
# The speakers follow a closed walk over the five agent positions, numbered
# by seat steps around the table from the user; neighbouring positions are
# 30 degrees apart as the user sees them. One tour's ten handoffs rotate by
# 30 degrees four times (in view), by 60 three times, and by 90 twice and
# 120 once (both miss at 20 deg/s), in whatever orientation the seed picks.
# So every script has the same mix of handoffs and nearly the same length.
DENSE_TOUR = (1, 2, 1, 4, 3, 5, 2, 4, 3, 5)

# Fields of a trace record that carry behaviour. sgd_phase is left out: it is
# a pure function of t, so a trace format may drop it.
RECORD_FIELDS = (
    "tick", "t", "pos", "head", "gaze", "state", "target", "rt", "in_view",
    "role", "env", "point_active", "point_side", "point_pos", "point_color",
    "spot_active", "spot_intensity", "spot_cone", "spot_aim", "sound_pos",
    "chime", "duck", "panel_active", "panel_anchor", "panel_text",
    "icon_active", "icon_anchor", "sgd_active", "sgd_center", "speaker",
)
META_FIELDS = ("method", "role", "topic", "participant", "user_seat", "names")


@dataclass(frozen=True)
class TrialInput:
    """Everything one run_scenario call receives."""

    script: ScenarioScript
    agent: GazeAgentModel
    config: object
    dt: float
    seed: int
    participant: int


def study_inputs(seed: int, dt: float = DT):
    """The reference plan (configs/study.cfg) randomized with the seed.

    Returns (plan, agent, config, trials) where trials replays run_suite's
    own per-trial script and seed derivation.
    """
    plan, agent, config = load_suite(STUDY_CFG.read_text())
    plan = randomize_presentation(plan, seed)
    trials = [
        TrialInput(
            script=script_for_trial(plan, tr),
            agent=agent,
            config=config,
            dt=dt,
            seed=stable_seed("trial", seed, tr.participant, tr.order_index),
            participant=tr.participant,
        )
        for tr in plan.trials
    ]
    return plan, agent, config, trials


def dense_positions(rng: random.Random, tours: int) -> list[int]:
    """Agent positions (1..5) for DENSE_TOUR walked `tours` times, each tour
    reversed and/or mirrored at random, all tours from one start."""
    order = [rng.choice(DENSE_TOUR)]
    for _ in range(tours):
        tour = list(DENSE_TOUR)
        if rng.random() < 0.5:
            tour.reverse()
        if rng.random() < 0.5:
            tour = [6 - p for p in tour]
        i = rng.choice([k for k, p in enumerate(tour) if p == order[-1]])
        order += tour[i + 1:] + tour[:i + 1]
    return order


def dense_script(rng: random.Random, method: Method, tours: int) -> ScenarioScript:
    seats = hexagon_seats()
    # A fixed seat keeps the digits of every coordinate, and so the trace
    # bytes per tick, the same from seed to seed.
    user_seat = 0
    names = tuple(rng.sample(NAME_POOL, AGENT_COUNT))
    non_user = [i for i in range(len(seats)) if i != user_seat]
    positions = dense_positions(rng, tours)
    order = []
    for i, p in enumerate(positions):
        speaker = f"a{non_user.index((user_seat + p) % len(seats)) + 1}"
        # Only the final turn runs its duration; the others end at a signal.
        duration = DENSE_FINAL_TURN if i == len(positions) - 1 else round(rng.uniform(4.0, 12.0), 3)
        order.append(Turn(speaker, duration))
    return ScenarioScript(
        seats=seats,
        user_seat_index=user_seat,
        role=Role.LISTENER,
        method=method,
        turn_order=tuple(order),
        signal_offset=DENSE_SIGNAL_OFFSET,
        topic=0,
        desk_anchor=default_desk_anchor(seats, user_seat),
        names=names,
    )


def dense_inputs(seed: int, rep: int, tiny: bool = False):
    """One generated listener script run under all four methods.

    Repetition rep of a run uses its own script, so a run's median covers
    several scripts; the same (seed, rep) always gives the same script.
    """
    config = parse_config(DEFAULT_CFG.read_text())
    tours = DENSE_TINY_TOURS if tiny else DENSE_TOURS
    agent = GazeAgentModel(head_speed=DENSE_HEAD_SPEED, seed=seed)
    trials = []
    for method in METHODS:
        # Same script (layout, speakers, names) for every method.
        rng = random.Random(f"perfbench-dense:{seed}:{rep}")
        trials.append(
            TrialInput(
                script=dense_script(rng, method, tours),
                agent=agent,
                config=config,
                dt=TINY_DT if tiny else DT,
                seed=stable_seed("perfbench-dense", seed, rep),
                participant=0,
            )
        )
    return config, trials


def signal_handoffs(scripts) -> int:
    """Sessions a complete run must resolve: one per handoff to an agent."""
    return sum(
        1
        for s in scripts
        for prev, nxt in zip(s.turn_order, s.turn_order[1:])
        if nxt.speaker != USER_ID
    )


def csv_sessions(csv_text: str) -> int:
    """Sum of the n column of a metrics CSV."""
    rows = csv_text.strip().splitlines()[1:]
    return sum(int(r.split(",")[3]) for r in rows)


def _canon(value) -> str:
    if value is None:
        return "~"
    if value is True:
        return "T"
    if value is False:
        return "F"
    if isinstance(value, float):
        return format(value, ".9g")
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_canon(v) for v in value) + ")"
    return repr(value)


def record_digest(traces) -> str:
    """sha256 of the behaviour fields of every meta and record, in order."""
    h = hashlib.sha256()
    for trace in traces:
        meta = trace.meta
        h.update(("M|" + "|".join(_canon(getattr(meta, f)) for f in META_FIELDS) + "\n").encode())
        for rec in trace.records:
            h.update(("|".join(_canon(getattr(rec, f)) for f in RECORD_FIELDS) + "\n").encode())
    return h.hexdigest()


def reference_errors(live_csv: str, traces) -> list[str]:
    """Output gate at the reference point: the summary CSV and the
    read-back records must match their pins."""
    errors = []
    if md5(live_csv) != REF_CSV_MD5:
        errors.append("reference CSV md5 differs from the pin")
    if record_digest(traces) != REF_RECORD_SHA256:
        errors.append("reference record digest differs from the pin")
    return errors


def file_digest(paths) -> str:
    """sha256 of the files' bytes concatenated in sorted-name order."""
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def md5(text: str) -> str:
    return hashlib.md5(text.encode()).hexdigest()
