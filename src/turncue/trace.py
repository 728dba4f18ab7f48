"""Trace schema and JSON Lines serialization.

Every float that enters a trace record is canonically quantized to nine
significant digits at construction, so the in-memory record, its serialized
bytes, and a replayed copy are all bit-identical. Field order in the output
is fixed; identical runs produce identical files. The field annotations of
TraceMeta and TraceRecord are the whole schema: they decide how each field
is canonicalized, written and read back. Both are NamedTuples of canonical
values in field order; a field of kind Role, Method or Side holds a member's
value. A trace has one clock: tick k is at q9(k × meta.dt) unless its t is
another. Records holds the runs of ticks that change nothing but tick, each at
its derived t, their count and dt; a tick whose t is another heads a run. A
file is the meta line, {"kind":"meta","format":2,…}, then a frame line per
tick. A frame has no kind; it never holds tick, holds t only where it is not
derived and any other field only where it changed: an unchanged tick is {}.
"""

from __future__ import annotations

import json
import math
import reprlib
import sys
from bisect import bisect_right
from collections.abc import Sequence
from enum import Enum
from itertools import compress, count
from operator import index, is_not, itemgetter, ne
from typing import Iterable, NamedTuple

from .errors import TraceIntegrityError, checked

Triple = tuple[float, float, float]
Step = float  # a time step: a float > 0 whose product with any tick is finite, held and written exactly

# A trace holds few distinct floats (about 3.6k among 680k in the reference
# suite), so q9 (a vector field's three floats included) and the writer work
# each one out once, and a trace keeps one object per distinct canonical
# triple. The three memos are keyed by value and cleared at this many entries.
_MEMO_CAP = 1 << 16
_q9_memo: dict[float, float] = {}
_triple_memo: dict[Triple, Triple] = {}
_text_memo: dict[float, str] = {}
_NUMBER = frozenset((int, float))
_UNSET = object()  # a field that no line has set yet
FORMAT = 2  # the trace format that a meta line names; a reader takes this one alone
_FRAME = "{}"  # an unchanged tick's line


class _Shown(reprlib.Repr):  # an int past 40 digits by its size: repr() refuses one past int()'s digit limit
    def repr_int(self, x: int, level: int) -> str:
        return repr(x) if -10**40 < x < 10**40 else f"about {'-' * (x < 0)}10**{math.log10(abs(x)):.0f}"


# An invalid value shows at two levels of 6 items, ints at 40 digits, strs at 30: about 2 KB.
_SHOWN = _Shown()
_SHOWN.maxlevel = 2


class Role(Enum):
    SPEAKER = "speaker"
    LISTENER = "listener"


class Method(Enum):
    """The cue a trial presents: the guidance lights, with or without audio, or a baseline."""

    LIGHT_AUDIO = "light_audio"
    LIGHT = "light"
    SGD = "sgd"
    TEXT_ICON = "text_icon"


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


def format9(x: float) -> str:
    """x as text at 9 significant digits: how every float is written."""
    return format(x, ".9g")


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
        q = float(format9(x)) + 0.0
        if not math.isfinite(q):
            raise ValueError(x)
        if len(_q9_memo) >= _MEMO_CAP:
            _q9_memo.clear()
        _q9_memo[x] = q
    return q


def _q_triple(v) -> Triple:
    """v's three floats by q9, as the one object that holds that canonical triple (hash-consing)."""
    a, b, c = v
    q = (q9(a), q9(b), q9(c))
    shared = _triple_memo.get(q)
    if shared is None:
        if len(_triple_memo) >= _MEMO_CAP:
            _triple_memo.clear()
        shared = _triple_memo[q] = q
    return shared


def _int(x) -> int:
    if x is True or x is False:
        raise TypeError(x)
    str(x := index(x))  # a ValueError past int()'s digit limit: no trace could write or read x
    return x


def _step(x) -> float:
    if x.__class__ not in _NUMBER or not 0 < (x := float(x)) * sys.maxsize < math.inf:  # tick × dt finite at any tick
        raise ValueError(x)
    return x


def _name(kind: type[Enum], *others):
    """The canonical form of a field of kind: a member, or its value, as the value; others as themselves."""
    return {**{x: x for x in others}, **{key: m._value_ for m in kind for key in (m, m._value_)}}.__getitem__


def _is(*kinds: type):
    def check(x):
        if isinstance(x, kinds):
            return x
        raise TypeError(x)

    return check


# Canonical form per field annotation; each raises TypeError, ValueError,
# OverflowError or KeyError on a value that does not have the annotated type.
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
    "Method": _name(Method),
    "Role": _name(Role),
    "Role | None": _name(Role, None),
    "Side": _name(Side),
    "Step": _step,
}


class _Canonical:
    """Base of the trace line types, NamedTuples of canonical values that
    _canonical makes and errors.checked builds: _check canonicalizes every
    field of a value built by the constructor, _make or _replace; _from, which
    _read calls, only those that changed since the previous record or line."""

    __slots__ = ()

    def _check(self):
        return self._from(self, self, range(len(self)))

    @classmethod
    def _from(cls, prev: tuple, raw, changed: Iterable[int]):
        """prev's values with raw's at the changed positions canonicalized over them."""
        values, canon = list(prev), cls._canon
        for i in changed:
            try:
                values[i] = canon[i](raw[i])
            except (TypeError, ValueError, OverflowError, KeyError):
                raise cls._invalid(i, raw[i]) from None
        return tuple.__new__(cls, values)

    @classmethod
    def _invalid(cls, i: int, value) -> TraceIntegrityError:
        try:  # an int whole, as the reader reads it, up to int()'s digit limit
            shown = repr(value) if value.__class__ is int else _SHOWN.repr(value)
        except ValueError:
            shown = _SHOWN.repr(value)
        return TraceIntegrityError(f"{cls._fields[i]}={shown} is not a valid {cls._kinds[i]}")

    @classmethod
    def _read(cls, prev: tuple | None, line: dict):
        """A trace line's fields canonicalized over prev, the previous line's
        record; with none, the line must hold every field."""
        try:
            raw = {cls._index[name]: value for name, value in line.items()}  # position: value
        except KeyError as exc:
            raise TraceIntegrityError(f"unknown field {_SHOWN.repr(exc.args[0])}") from None
        rec = cls._from((_UNSET,) * len(cls._fields) if prev is None else prev, raw, raw)
        if prev is None and _UNSET in rec:
            raise TraceIntegrityError(f"missing field {cls._fields[rec.index(_UNSET)]!r}")
        return rec


def _canonical(fields: type) -> type:
    """The NamedTuple fields as a checked _Canonical of the same name, which
    canonicalizes each field as its annotation says; an annotation without a
    canonical form fails at import."""
    kinds = tuple(getattr(kind, "__forward_arg__", kind) for kind in fields.__annotations__.values())
    for name, kind in zip(fields._fields, kinds):
        if kind not in _CANONICAL:
            raise TypeError(f"{fields.__name__}.{name}: unsupported trace field type {kind!r}")
    return checked(type(fields.__name__, (_Canonical, fields), {
        "__slots__": (), "__doc__": fields.__doc__, "_kinds": kinds, "_canon": tuple(map(_CANONICAL.get, kinds)),
        "_index": {name: i for i, name in enumerate(fields._fields)},
        "_keys": tuple(f'"{name}":' for name in fields._fields)}))  # each field's key in a line


@_canonical
class TraceMeta(NamedTuple):
    """Scenario identity stored as the first line of a trace file."""

    method: Method
    role: Role
    topic: int
    participant: int
    seed: int
    dt: Step
    user_seat: int
    seats: tuple[Triple, ...]
    desk_anchor: Triple
    names: tuple[str, ...]


@_canonical
class TraceRecord(NamedTuple):
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
    role: Role | None
    env: float
    point_active: bool
    point_side: Side
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


TraceRecord.__dataclass_fields__ = dict.fromkeys(TraceRecord._fields)  # the field names that perfbench/layers.py reads
_BLANK = (_UNSET,) * len(TraceRecord._fields)  # a builder's record before the first


class Records(Sequence):
    """A trace's records as runs at time step dt: a read-only sequence, equal
    to any sequence of the same records, a tuple included, and hashed as their tuple.

    heads holds the records at which a field other than tick changes or whose
    t is not the derived q9(k × dt), the first record always among them; n
    counts the ticks. Record k is its run's head at tick k and the derived t,
    so a repeated tick costs nothing. Records(records, dt) builds one from
    records whose ticks count up from 0; given a Records at dt, it returns it."""

    __slots__ = ("heads", "n", "dt")

    def __new__(cls, records: Iterable[TraceRecord], dt: Step):
        if isinstance(records, Records) and records.dt == dt:
            return records
        runs = _Builder(dt)
        for rec in records:
            runs.step(rec)
        return runs.records()

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i):
        ticks = range(self.n)
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, ticks[i]))
        k = ticks[i]  # IndexError out of range, as a tuple's
        head = self.heads[bisect_right(self.heads, k, key=itemgetter(0)) - 1]
        return head if head[0] == k else tuple.__new__(TraceRecord, (k, q9(k * self.dt)) + head[2:])

    def __iter__(self):
        new, dt = tuple.__new__, self.dt
        for head, end in zip(self.heads, [head[0] for head in self.heads[1:]] + [self.n]):
            yield head
            rest = head[2:]
            for k in range(head[0] + 1, end):
                yield new(TraceRecord, (k, q9(k * dt)) + rest)

    def __eq__(self, other):
        if isinstance(other, Records) and other.dt == self.dt:  # runs are canonical, so equal records have equal heads
            return self.n == other.n and self.heads == other.heads
        if isinstance(other, Sequence):
            return len(other) == self.n and tuple(other) == tuple(self)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Records({tuple(self)!r}, {self.dt!r})"

    def __reduce__(self):
        return Records, (tuple(self), self.dt)


class _Builder:
    """The one builder of Records, at time step dt, and the one rule for where
    a run starts. Each record stepped must be at the next tick; one that
    equals the last record but for tick, at the derived t, extends its run,
    as does a tick counted in n alone."""

    __slots__ = ("heads", "n", "dt", "_raw")

    def __init__(self, dt: Step) -> None:
        self.heads: list[TraceRecord] = []
        self.n = 0
        self.dt = _step(dt)
        self._raw = _BLANK  # the last step's fields

    def step(self, raw: tuple) -> None:
        """Add the record of raw, a tick's fields in order, in one pass: only the
        fields that hold another object than the last step's are canonicalized,
        an object two fields hold in a row once, and compared by value with the
        run's head, which the record extends or, if one differs or its t is not
        derived, follows as a new head. A TraceRecord, canonical already, is only compared."""
        heads, last, self._raw, k = self.heads, self._raw, raw, self.n
        if raw[0] != k:
            raise TraceIntegrityError(f"tick {raw[0]} at position {k}: indices must be contiguous from 0")
        if raw.__class__ is TraceRecord:
            if not heads or raw[2:] != heads[-1][2:] or raw[1] != q9(k * self.dt):
                heads.append(raw)
        else:
            head, canon, values, i = heads[-1] if heads else _BLANK, TraceRecord._canon, None, 1
            seen = form = value = _UNSET  # the last object canonicalized, its canonical form and value
            try:
                t = q9(raw[1])
                for i in compress(count(), map(is_not, raw, last)):
                    if i > 1:
                        x, f = raw[i], canon[i]
                        if x is not seen or f is not form:
                            seen, form, value = x, f, f(x)
                        if value != head[i]:
                            if values is None:
                                values = list(head)
                            values[i] = value
            except (TypeError, ValueError, OverflowError, KeyError):
                raise TraceRecord._invalid(i, raw[i]) from None
            if values is None and raw[1] != k * self.dt and t != q9(k * self.dt):  # equal numbers have one q9
                values = list(head)
            if values is not None:  # tick is the checked position
                values[0], values[1] = k, t
                heads.append(tuple.__new__(TraceRecord, values))
        self.n = k + 1

    def records(self) -> Records:
        runs = object.__new__(Records)
        runs.heads, runs.n, runs.dt = tuple(self.heads), self.n, self.dt
        return runs


@checked
class Trace(NamedTuple):
    """A run's meta and its records, built into a Records at meta.dt however the Trace is built."""

    meta: TraceMeta
    records: Records

    def _check(self):
        if self.meta.__class__ is not TraceMeta:
            raise TraceIntegrityError(f"meta={_SHOWN.repr(self.meta)} is not a valid TraceMeta")
        return tuple.__new__(type(self), (self.meta, Records(self.records, self.meta.dt)))


def _emit(value) -> str:
    """JSON fragment with each float exact: a canonical one at 9 significant digits, any other by its repr."""
    if isinstance(value, float):
        text = _text_memo.get(value)
        if text is None:
            if len(_text_memo) >= _MEMO_CAP:
                _text_memo.clear()
            text = _text_memo[value] = format9(value) if q9(value) == value else repr(value)
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


def _line(obj: _Canonical, last: tuple | None = None, *members: str) -> str:
    """obj's JSON line after members: every field, or with last only the fields whose
    value differs from last's. Canonical values are equal exactly when their text is."""
    keys = obj._keys
    fields = range(len(keys)) if last is None else compress(range(len(keys)), map(ne, obj, last))
    return "{" + ",".join([*members, *[keys[i] + _emit(obj[i]) for i in fields]]) + "}\n"


def write_trace(records: Iterable[TraceRecord], meta: TraceMeta) -> str:
    """Serialize meta and records, built into a Records at meta.dt as a Trace builds them, to JSON Lines.

    A run's head is diffed against the record before it, and t against the derived
    t; every other tick is {}."""
    meta, records = Trace(meta, records)  # a TraceMeta and a Records, or the error that names meta
    frames = [f"{_FRAME}\n"] * len(records)
    for last, head in zip((_BLANK, *records.heads), records.heads):  # a head's line holds its own t
        frames[head[0]] = _line(head, (head[0], q9(head[0] * meta.dt)) + last[2:])
    return _line(meta, None, f'"kind":"meta","format":{FORMAT}') + "".join(frames)


# Not json.loads, which re-checks its keyword arguments on every call: about
# 0.3 us a line, 3% of the time to read the reference suite's traces.
_DECODER = json.JSONDecoder()


def read_trace(text: str) -> Trace:
    """Parse a JSON Lines trace; inverse of write_trace on its own output.

    The first line that is not blank must be the meta line, of format FORMAT
    alone. Every later line is a frame, which holds no kind: the next tick, at
    the derived t unless it holds t, starting from the previous frame's
    values: a field it lacks is unchanged, and only the fields it holds are
    canonicalized. It never holds tick. After the first frame, a line that is
    exactly {} is one more tick of the run before it, without the decoder."""
    meta, runs, heads, lineno = None, None, (), 0
    # Not splitlines, which also breaks at what a JSON string holds raw, U+2028 among
    # them. A CRLF line drops its "\r", so that an unchanged tick skips the decoder.
    lines = [line.removesuffix("\r") for line in text.split("\n")] if "\r" in text else text.split("\n")
    for lineno, line in enumerate(lines, start=1):
        if line == _FRAME and heads:  # an unchanged tick: one more tick of the run before it
            runs.n += 1
            continue
        if not line.strip():
            continue
        try:
            obj = _DECODER.decode(line)
        except json.JSONDecodeError as exc:  # before ValueError, its base class
            raise TraceIntegrityError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        except ValueError:  # JSON bounds no number's length; Python's int() does
            limit = sys.get_int_max_str_digits()
            raise TraceIntegrityError(f"line {lineno}: an integer of more than {limit} digits") from None
        except RecursionError:  # nor its depth; the decoder recurses per level
            raise TraceIntegrityError(f"line {lineno}: a JSON value nested too deeply to read") from None
        kind = obj.pop("kind", _UNSET) if isinstance(obj, dict) else None
        try:
            if meta is None or kind == "meta":
                if meta is not None or kind != "meta":
                    raise TraceIntegrityError("meta must be the first line")
                if (form := obj.pop("format", None)).__class__ is not int or form != FORMAT:  # not 2.0, nor true
                    raise TraceIntegrityError(f"not a format {FORMAT} trace: write it again from its seed")
                meta = TraceMeta._read(None, obj)
                heads = (runs := _Builder(meta.dt)).heads
            elif kind is not _UNSET:  # "frame" too: a frame holds no kind
                raise TraceIntegrityError(f"unknown record kind {_SHOWN.repr(kind)}")
            elif "tick" in obj:  # a frame's tick is its position
                raise TraceIntegrityError("unknown field 'tick'")
            else:
                k = runs.n
                runs.step(TraceRecord._read(heads[-1] if heads else None, {"tick": k, "t": q9(k * meta.dt), **obj}))
        except TraceIntegrityError as exc:
            raise TraceIntegrityError(f"line {lineno}: {exc}") from None
    if meta is None:
        raise TraceIntegrityError(f"line {lineno}: meta must be the first line")
    return Trace(meta, runs.records())
