"""Trace schema and JSON Lines serialization.

Every float that enters a trace record is canonically quantized to nine
significant digits at construction, so the in-memory record, its serialized
bytes, and a replayed copy are all bit-identical. Field order in the output
is fixed; identical runs produce identical files. The field annotations of
TraceMeta and TraceRecord are the whole schema: they decide how each field
is canonicalized, written and read back.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import index, itemgetter
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

    The (field, annotation, canonicalizer) plan is built once per subclass
    from its annotations; an annotation without a canonical form fails at
    import. Values go straight into the frozen instance's __dict__.
    """

    _fields: tuple[str, ...]
    _plan: tuple[tuple[str, str, object], ...]

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        annotations = cls.__dict__["__annotations__"]
        for name, kind in annotations.items():
            if kind not in _CANONICAL:
                raise TypeError(f"{cls.__name__}.{name}: unsupported trace field type {kind!r}")
        cls._fields = tuple(annotations)
        cls._plan = tuple((name, kind, _CANONICAL[kind]) for name, kind in annotations.items())

    def __post_init__(self) -> None:
        values = self.__dict__
        for name, kind, canonical in self._plan:
            try:
                values[name] = canonical(values[name])
            except (TypeError, ValueError, OverflowError):
                raise TraceIntegrityError(f"{name}={values[name]!r} is not a valid {kind}") from None


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
    sgd_phase: bool
    sgd_center: Triple
    speaker: str

    def _repeat(self, tick: int, t: float, sgd_phase: bool) -> TraceRecord:
        """This record at another tick: shares every value object but the
        clock fields', which are the only ones canonicalized again."""
        rec = object.__new__(TraceRecord)
        vars(rec).update(self.__dict__, tick=tick, t=q9(t), sgd_phase=sgd_phase)
        return rec


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
    """One JSON line per object of cls. A field's '"name":text' fragment is worked out
    again only when the field holds another object than on the previous line."""
    values = itemgetter(*cls._fields)
    texts = heads = [f'"{name}":' for name in cls._fields]
    last = (object(),) * len(heads)  # no field holds it, unlike None
    start, lines = f'{{"kind":"{kind}",', []
    for obj in objs:
        now = values(obj.__dict__)
        texts = [text if v is old else head + _emit(v) for v, old, text, head in zip(now, last, texts, heads)]
        last = now
        lines.append(start + ",".join(texts) + "}\n")
    return lines


def _check_contiguous(records: Iterable[TraceRecord]) -> None:
    for i, rec in enumerate(records):
        if rec.tick != i:
            raise TraceIntegrityError(f"tick {rec.tick} at position {i}: indices must be contiguous from 0")


def write_trace(records: Iterable[TraceRecord], meta: TraceMeta | None = None) -> str:
    """Serialize records (with an optional leading meta line) to JSON Lines."""
    records = tuple(records)
    _check_contiguous(records)
    lines = _lines("meta", TraceMeta, () if meta is None else (meta,))
    return "".join(lines + _lines("frame", TraceRecord, records))


def _from_obj(cls: type[_Canonical], obj: dict, lineno: int):
    """One trace line type from its parsed JSON object; defects name the line."""
    try:
        return cls(*[obj[name] for name in cls._fields])
    except KeyError as exc:
        raise TraceIntegrityError(f"line {lineno}: missing field {exc.args[0]!r}") from None
    except TraceIntegrityError as exc:
        raise TraceIntegrityError(f"line {lineno}: {exc}") from None


class _JsonConstant(float):
    """A JSON NaN or Infinity: q9 takes no float subclass, and no other field a float."""


_DECODER = json.JSONDecoder(parse_constant=_JsonConstant)


def read_trace(text: str) -> Trace:
    """Parse a JSON Lines trace; inverse of write_trace on its own output."""
    meta: TraceMeta | None = None
    records: list[TraceRecord] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = _DECODER.decode(line)
        except json.JSONDecodeError as exc:
            raise TraceIntegrityError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        kind = obj.get("kind") if isinstance(obj, dict) else None
        if kind == "meta":
            if records or meta is not None:
                raise TraceIntegrityError(f"line {lineno}: meta must be the first line")
            meta = _from_obj(TraceMeta, obj, lineno)
        elif kind == "frame":
            records.append(_from_obj(TraceRecord, obj, lineno))
        else:
            raise TraceIntegrityError(f"line {lineno}: unknown record kind {kind!r}")
    _check_contiguous(records)
    return Trace(meta=meta, records=tuple(records))
