"""Trace schema and JSON Lines serialization.

Every float that enters a trace record is canonically quantized to nine
significant digits at construction, so the in-memory record, its serialized
bytes, and a replayed copy are all bit-identical. Field order in the output
is fixed; identical runs produce identical files. The field annotations of
TraceMeta and TraceRecord are the whole schema: they decide how each field
is canonicalized, written and read back. Frames are deltas: the first frame
line carries every field, each later one only those that changed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import compress
from operator import index, itemgetter, ne
from typing import Iterable

from .errors import TraceIntegrityError

Triple = tuple[float, float, float]

# A trace holds few distinct floats (about 3.6k among 680k in the reference
# suite), so q9 and the writer work each one out once. Both memos are keyed
# by value and cleared when they reach this many entries.
_MEMO_CAP = 1 << 16
_q9_memo: dict[float, float] = {}
_text_memo: dict[float, str] = {}
_NUMBER = frozenset((int, float))


def q9(x: float) -> float:
    """Nearest double to the 9-significant-digit decimal of x, with -0.0 as 0.0.

    Takes an int or a float; anything else, bool and str included, is a
    TypeError, a non-finite result a ValueError and an int beyond the float
    range an OverflowError. Equal inputs share one result object.
    """
    if x.__class__ not in _NUMBER:  # before the lookup: True == 1 == 1.0
        raise TypeError(x)
    q = _q9_memo.get(x)
    if q is None:
        q = float(format(x, ".9g")) + 0.0
        if not math.isfinite(q):
            raise ValueError(x)
        if len(_q9_memo) >= _MEMO_CAP:
            _q9_memo.clear()
        _q9_memo[x] = q
    return q


def _q_triple(v) -> Triple:
    a, b, c = v
    return (q9(a), q9(b), q9(c))


def _int(x) -> int:
    if x is True or x is False:
        raise TypeError(x)
    return index(x)


def _is(*kinds: type):
    def check(x):
        if isinstance(x, kinds):
            return x
        raise TypeError(x)

    return check


# Canonical form per field annotation; each raises TypeError, ValueError or
# OverflowError on a value that does not have the annotated type.
_CANONICAL = {
    "int": _int,
    "float": q9,
    "float | None": lambda v: None if v is None else q9(v),
    "Triple": _q_triple,
    "tuple[Triple, ...]": lambda v: tuple(map(_q_triple, v)),
    "tuple[str, ...]": lambda v: tuple(map(_is(str), v)),
    "str": _is(str),
    "str | None": _is(str, type(None)),
    "bool": _is(bool),
    "bool | None": _is(bool, type(None)),
}


class _Canonical:
    """Base of the trace line types: canonicalizes fields on construction.

    The plan, field -> (annotation, canonicalizer) in field order, is built
    once per subclass from its annotations; an annotation without a
    canonical form fails at import. _from builds every instance's __dict__,
    from constructor arguments, a trace line or the previous record.
    """

    _plan: dict[str, tuple[str, object]]

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        annotations = cls.__dict__["__annotations__"]
        for name, kind in annotations.items():
            if kind not in _CANONICAL:
                raise TypeError(f"{cls.__name__}.{name}: unsupported trace field type {kind!r}")
        cls._plan = {name: (kind, _CANONICAL[kind]) for name, kind in annotations.items()}

    def __post_init__(self) -> None:
        object.__setattr__(self, "__dict__", vars(self._from({}, vars(self))))

    @classmethod
    def _from(cls, prev: dict, changes: dict):
        """prev's canonical values with changes canonicalized over them. A field
        outside the schema, a bad value or a field neither sets is an error."""
        values, plan = {**prev, **changes}, cls._plan
        for name in changes:
            if name not in plan:
                raise TraceIntegrityError(f"unknown field {name!r}")
            kind, canonical = plan[name]
            try:
                values[name] = canonical(values[name])
            except (TypeError, ValueError, OverflowError):
                raise TraceIntegrityError(f"{name}={values[name]!r} is not a valid {kind}") from None
        if len(values) < len(plan):
            raise TraceIntegrityError(f"missing field {next(n for n in plan if n not in values)!r}")
        obj = object.__new__(cls)
        object.__setattr__(obj, "__dict__", values)
        return obj


@dataclass(frozen=True)
class TraceMeta(_Canonical):
    """Scenario identity stored as the first line of a trace file."""

    method: str
    role: str
    topic: int
    participant: int
    seed: int
    dt: float
    user_seat: int
    seats: tuple[Triple, ...]
    desk_anchor: Triple
    names: tuple[str, ...]


@dataclass(frozen=True)
class TraceRecord(_Canonical):
    """One tick of fully expanded cue state."""

    tick: int
    t: float
    pos: Triple
    head: Triple
    gaze: Triple
    state: str
    target: str | None
    rt: float | None
    in_view: bool | None
    role: str | None
    env: float
    point_active: bool
    point_side: str
    point_pos: Triple
    point_color: Triple
    spot_active: bool
    spot_intensity: float
    spot_cone: float
    spot_aim: Triple
    sound_pos: Triple
    chime: bool
    duck: float
    panel_active: bool
    panel_anchor: Triple
    panel_text: str
    icon_active: bool
    icon_anchor: Triple
    sgd_active: bool
    sgd_center: Triple
    speaker: str


@dataclass(frozen=True)
class Trace:
    meta: TraceMeta | None
    records: tuple[TraceRecord, ...]


def _emit(value) -> str:
    """JSON fragment with floats at 9 significant digits."""
    if isinstance(value, float):
        text = _text_memo.get(value)
        if text is None:
            if len(_text_memo) >= _MEMO_CAP:
                _text_memo.clear()
            text = _text_memo[value] = format(value, ".9g")
        return text
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(map(_emit, value)) + "]"
    raise TypeError(f"unserializable value {value!r}")


def _lines(kind: str, cls: type[_Canonical], objs: Iterable[_Canonical]) -> list[str]:
    """One JSON line per object of cls: the first carries every field, each later
    one only the fields whose value differs from the previous line's. Canonical
    values are equal exactly when their text is."""
    values = itemgetter(*cls._plan)
    heads = [f',"{name}":' for name in cls._plan]
    fields = range(len(heads))
    last = (object(),) * len(heads)  # equal to no value, unlike None
    start, lines = f'{{"kind":"{kind}"', []
    for obj in objs:
        now = values(obj.__dict__)
        changed = compress(fields, map(ne, now, last))
        lines.append("".join([start, *[heads[i] + _emit(now[i]) for i in changed], "}\n"]))
        last = now
    return lines


def write_trace(records: Iterable[TraceRecord], meta: TraceMeta | None = None) -> str:
    """Serialize records (with an optional leading meta line) to JSON Lines."""
    records = tuple(records)
    for i, rec in enumerate(records):
        if rec.tick != i:
            raise TraceIntegrityError(f"tick {rec.tick} at position {i}: indices must be contiguous from 0")
    lines = _lines("meta", TraceMeta, () if meta is None else (meta,))
    return "".join(lines + _lines("frame", TraceRecord, records))


# Not json.loads, which re-checks its keyword arguments on every call: about
# 0.3 us a line, 3% of the time to read the reference suite's traces.
_DECODER = json.JSONDecoder()


def read_trace(text: str) -> Trace:
    """Parse a JSON Lines trace; inverse of write_trace on its own output.

    A frame starts from the previous frame's values: a field it lacks is
    unchanged, and only the fields it holds are canonicalized. Ticks must
    count up from 0, one per frame."""
    meta: TraceMeta | None = None
    records: list[TraceRecord] = []
    prev: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = _DECODER.decode(line)
        except json.JSONDecodeError as exc:
            raise TraceIntegrityError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        kind = obj.pop("kind", None) if isinstance(obj, dict) else None
        try:
            if kind == "frame":
                # Older files carry the flicker phase, a function of t: checked, then dropped.
                if type(phase := obj.pop("sgd_phase", False)) is not bool:
                    raise TraceIntegrityError(f"sgd_phase={phase!r} is not a valid bool")
                rec = TraceRecord._from(prev, obj)
                if rec.tick != len(records):
                    raise TraceIntegrityError(f"tick {rec.tick} where {len(records)} was expected")
                records.append(rec)
                prev = vars(rec)
            elif kind != "meta":
                raise TraceIntegrityError(f"unknown record kind {kind!r}")
            elif records or meta is not None:
                raise TraceIntegrityError("meta must be the first line")
            else:
                meta = TraceMeta._from({}, obj)
        except TraceIntegrityError as exc:
            raise TraceIntegrityError(f"line {lineno}: {exc}") from None
    return Trace(meta=meta, records=tuple(records))
