"""Response-time and miss-count extraction from traces.

Response times are read off the session state transitions recorded in the
trace, never recomputed from pose geometry, so live and replayed analysis
cannot drift apart.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, NamedTuple

from .errors import TraceIntegrityError
from .trace import _SHOWN, Records, Trace, format9

# Legal session-tag successions within one trace.
_ALLOWED = {
    "idle": {"idle", "signaled"},
    "signaled": {"signaled", "acknowledged", "missed"},
    "acknowledged": {"acknowledged", "signaled"},
    "missed": {"missed", "signaled"},
}

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
    if trace.meta is None:
        raise TraceIntegrityError("trace has no meta line; method is unknown")
    outcomes: list[tuple[CellKey, float | None]] = []
    prev = "idle"
    open_tick: int | None = None  # the tick that signaled the open session
    # A session tag changes only where a run starts: its later ticks pass every check that its head does.
    for rec in Records(trace.records).heads:
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
            # _ALLOWED admits a terminal state only after signaled, which opened the session.
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


def extract_metrics(traces: Iterable[Trace]) -> MetricsSummary:
    """Group session outcomes by (method, view, role), scanning each trace before taking the next."""
    grouped: dict[CellKey, list[float | None]] = {}
    # map drops each trace once scanned, before it takes the next: a stream holds one at a time
    for key, rt in chain.from_iterable(map(_scan_trace, traces)):
        grouped.setdefault(key, []).append(rt)
    cells: dict[CellKey, CellStats] = {}
    for key, rts in grouped.items():
        acked = [r for r in rts if r is not None]
        cells[key] = CellStats(
            n=len(rts),
            missed=len(rts) - len(acked),
            mean_rt=sum(acked) / len(acked) if acked else None,
            min_rt=min(acked) if acked else None,
            max_rt=max(acked) if acked else None,
        )
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
