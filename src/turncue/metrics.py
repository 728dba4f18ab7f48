"""Response-time and miss-count extraction from traces.

Response times are read off the session state transitions in the trace,
never recomputed from pose geometry, so live and replayed analysis cannot
drift apart. The scan checks that every transition is legal and that every
signaled frame carries view and role; each entry into a terminal state is
one outcome and carries them too, and an acknowledged one an rt. Heads of
equal (state, view, role) pass alike, so it checks each run of them once.
"""

from __future__ import annotations

from itertools import chain, groupby
from operator import itemgetter
from typing import Iterable, NamedTuple

from .errors import TraceIntegrityError
from .trace import _SHOWN, Trace, TraceRecord, format9

# Legal session-tag successions within one trace.
_ALLOWED = {
    "idle": {"idle", "signaled"},
    "signaled": {"signaled", "acknowledged", "missed"},
    "acknowledged": {"acknowledged", "signaled"},
    "missed": {"missed", "signaled"},
}

_RUN = itemgetter(*map(TraceRecord._fields.index, ("state", "in_view", "role")))  # what a run of heads shares
CellKey = tuple[str, str, str]  # (method, "in"/"out", "speaker"/"listener")


class CellStats(NamedTuple):
    """One (method, view, role) cell: n = acknowledged + missed sessions."""

    n: int
    missed: int
    mean_rt: float | None
    min_rt: float | None
    max_rt: float | None


class MetricsSummary(NamedTuple):
    cells: dict[CellKey, CellStats]


def _scan_trace(trace: Trace) -> list[tuple[CellKey, float | None]]:
    """(cell, response time) per resolved session; the time is None for a miss."""
    outcomes: list[tuple[CellKey, float | None]] = []
    prev, open_tick = "idle", None  # open_tick: the tick that signaled the open session
    # A run is checked at its first head, whose tick each message names and whose rt an acknowledged entry records.
    for (state, in_view, role), run in groupby(trace.records.heads, _RUN):
        rec = next(run)
        if state not in _ALLOWED:
            raise TraceIntegrityError(f"tick {rec.tick}: unknown session state {_SHOWN.repr(state)}")
        if state not in _ALLOWED[prev]:
            raise TraceIntegrityError(f"tick {rec.tick}: illegal session transition {prev} -> {state}")
        if state == "signaled":
            if prev != state:
                open_tick = rec.tick
            if in_view is None or role is None:
                raise TraceIntegrityError(f"tick {rec.tick}: signaled frame lacks view/role")
        elif state != prev:  # a terminal state, which _ALLOWED admits only after signaled opened the session
            if in_view is None or role is None:
                raise TraceIntegrityError(f"tick {rec.tick}: terminal frame lacks view/role")
            if state == "acknowledged" and rec.rt is None:
                raise TraceIntegrityError(f"tick {rec.tick}: acknowledged frame lacks a response time")
            key = (trace.meta.method, "in" if in_view else "out", role)
            outcomes.append((key, rec.rt if state == "acknowledged" else None))
            open_tick = None
        prev = state
    if open_tick is not None:
        raise TraceIntegrityError(f"tick {open_tick}: session signaled here is still open at end of trace")
    return outcomes


def extract_metrics(traces: Iterable[Trace]) -> MetricsSummary:
    """Group session outcomes by (method, view, role), scanning each trace before taking the next."""
    grouped: dict[CellKey, list[float | None]] = {}
    # map drops each trace once scanned, before it takes the next: a stream holds one at a time
    for key, rt in chain.from_iterable(map(_scan_trace, traces)):
        grouped.setdefault(key, []).append(rt)
    cells: dict[CellKey, CellStats] = {}
    for key, rts in grouped.items():
        acked = [r for r in rts if r is not None]
        mean, low, high = (sum(acked) / len(acked), min(acked), max(acked)) if acked else (None, None, None)
        cells[key] = CellStats(n=len(rts), missed=len(rts) - len(acked), mean_rt=mean, min_rt=low, max_rt=high)
    return MetricsSummary(cells=cells)


def metrics_to_csv(summary: MetricsSummary) -> str:
    """Stable CSV rendering: method,view,role,n,mean_rt,min_rt,max_rt,missed."""

    def num(v: float | None) -> str:
        return "nan" if v is None else format9(v)

    lines = ["method,view,role,n,mean_rt,min_rt,max_rt,missed"]
    for key in sorted(summary.cells):
        method, view, role = key
        c = summary.cells[key]
        lines.append(
            f"{method},{view},{role},{c.n},{num(c.mean_rt)},{num(c.min_rt)},{num(c.max_rt)},{c.missed}"
        )
    return "".join(line + "\n" for line in lines)
