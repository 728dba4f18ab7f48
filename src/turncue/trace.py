"""Trace schema and JSON Lines serialization.

Every float that enters a trace record is canonically quantized to nine
significant digits at construction, so the in-memory record, its serialized
bytes, and a replayed copy are all bit-identical. Field order in the output
is fixed; identical runs produce identical files. The field annotations of
TraceMeta and TraceRecord are the whole schema: they decide how each field
is canonicalized, written and read back. Both are NamedTuples of canonical
values in field order. A trace holds its records as Records, runs of ticks
that change nothing but tick and t. Frames are deltas: the first frame line
carries every field, each later one only those that changed; the line of an
unchanged tick, tick and t alone, skips the diff and the JSON decoder. A field
of kind Role, Method or Side takes a member or its value and holds the value.
"""

from __future__ import annotations

import json
import math
import re
import reprlib
import sys
from bisect import bisect_right
from collections.abc import Sequence
from enum import Enum
from itertools import compress, count
from operator import index, itemgetter, ne
from typing import Iterable, NamedTuple

from .errors import TraceIntegrityError

Triple = tuple[float, float, float]

# A trace holds few distinct floats (about 3.6k among 680k in the reference
# suite), so q9 and the writer work each one out once. Both memos are keyed
# by value and cleared when they reach this many entries.
_MEMO_CAP = 1 << 16
_q9_memo: dict[float, float] = {}
_text_memo: dict[float, str] = {}
_NUMBER = frozenset((int, float))
_UNSET = object()  # a field that no line has set yet


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
    a, b, c = v
    if a.__class__ is b.__class__ is c.__class__ is float:  # q9's own memo, without its three calls
        q = (_q9_memo.get(a), _q9_memo.get(b), _q9_memo.get(c))
        if None not in q:
            return q
    return (q9(a), q9(b), q9(c))


def _int(x) -> int:
    if x is True or x is False:
        raise TypeError(x)
    return index(x)


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
}


class _Canonical:
    """Base of the trace line types, NamedTuples of canonical values that
    _canonical makes. The constructor, _make and _replace (through _make)
    canonicalize every field; _from, which _read calls, only those that
    changed since the previous record or line."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return cls._make(super().__new__(cls, *args, **kwargs))

    @classmethod
    def _make(cls, iterable):
        values = super()._make(iterable)  # checks the length
        return cls._from(values, values, range(len(values)))

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
    """The NamedTuple fields as a _Canonical of the same name, which canonicalizes
    each field as its annotation says; an annotation without a canonical form
    fails at import."""
    kinds = tuple(getattr(kind, "__forward_arg__", kind) for kind in fields.__annotations__.values())
    for name, kind in zip(fields._fields, kinds):
        if kind not in _CANONICAL:
            raise TypeError(f"{fields.__name__}.{name}: unsupported trace field type {kind!r}")
    return type(fields.__name__, (_Canonical, fields), {
        "__slots__": (), "__doc__": fields.__doc__, "_kinds": kinds, "_canon": tuple(map(_CANONICAL.get, kinds)),
        "_index": {name: i for i, name in enumerate(fields._fields)},
        "_keys": tuple(f',"{name}":' for name in fields._fields)})  # each field's key in a line


@_canonical
class TraceMeta(NamedTuple):
    """Scenario identity stored as the first line of a trace file."""

    method: Method
    role: Role
    topic: int
    participant: int
    seed: int
    dt: float
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
    """A trace's records as runs: a read-only sequence, equal to any sequence
    of the same records, a tuple included, and hashed as their tuple.

    heads holds the records at which a field other than tick and t changes,
    the first record always among them, and ts every tick's canonical t, a
    head's its own. Record k is its run's head at tick k and t ts[k], so a
    repeated tick costs one float. Records(records) builds one from records
    whose ticks count up from 0; given a Records, it returns it."""

    __slots__ = ("heads", "ts")

    def __new__(cls, records: Iterable[TraceRecord] = ()):
        if isinstance(records, Records):
            return records
        runs = _Builder()
        for rec in records:
            runs.step(rec)
        return runs.records()

    def _runs(self):
        """(head, end) per run: its head, and the tick after its last."""
        return zip(self.heads, [head[0] for head in self.heads[1:]] + [len(self.ts)])

    def __len__(self) -> int:
        return len(self.ts)

    def __getitem__(self, i):
        ticks = range(len(self.ts))
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, ticks[i]))
        k = ticks[i]  # IndexError out of range, as a tuple's
        return _at(self.heads[bisect_right(self.heads, k, key=itemgetter(0)) - 1], k, self.ts[k])

    def __iter__(self):
        ts, new = self.ts, tuple.__new__
        for head, end in self._runs():
            yield head
            rest = head[2:]
            for k in range(head[0] + 1, end):
                yield new(TraceRecord, (k, ts[k]) + rest)

    def __eq__(self, other):
        if isinstance(other, Records):  # runs are maximal, so equal records have equal runs
            return self.ts == other.ts and self.heads == other.heads
        if isinstance(other, Sequence):
            return len(other) == len(self.ts) and tuple(other) == tuple(self)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Records({tuple(self)!r})"


def _at(head: TraceRecord, k: int, t: float) -> TraceRecord:
    """The record at tick k and canonical t of the run that head starts."""
    return head if head[0] == k else tuple.__new__(TraceRecord, (k, t) + head[2:])


class _Builder:
    """The one builder of Records. Each record stepped must be at the next
    tick; one that equals the last record but for tick and t extends its run,
    as does a canonical t appended to ts alone."""

    __slots__ = ("heads", "ts", "_raw")

    def __init__(self) -> None:
        self.heads: list[TraceRecord] = []
        self.ts: list[float] = []
        self._raw = _BLANK  # the last step's fields

    def step(self, raw: tuple) -> None:
        """Add the record of raw, a tick's fields in order, in one pass: only the
        fields that differ from the last step's are canonicalized and compared
        with the run's head, which the record extends or, if it differs, follows
        as a new head. A TraceRecord, canonical already, is only compared."""
        ts, heads, last, self._raw = self.ts, self.heads, self._raw, raw
        if raw[0] != len(ts):
            raise TraceIntegrityError(f"tick {raw[0]} at position {len(ts)}: indices must be contiguous from 0")
        if raw.__class__ is TraceRecord:
            if not heads or raw[2:] != heads[-1][2:]:
                heads.append(raw)
            return ts.append(raw[1])
        head, canon, values, i = heads[-1] if heads else _BLANK, TraceRecord._canon, None, 1
        try:
            t = q9(raw[1])
            for i in compress(count(), map(ne, raw, last)):
                if i > 1 and (value := canon[i](raw[i])) != head[i]:
                    if values is None:
                        values = list(head)
                    values[i] = value
        except (TypeError, ValueError, OverflowError, KeyError):
            raise TraceRecord._invalid(i, raw[i]) from None
        if values is not None:  # tick is the checked position
            values[0], values[1] = len(ts), t
            heads.append(tuple.__new__(TraceRecord, values))
        ts.append(t)

    def last(self) -> TraceRecord:
        return _at(self.heads[-1], len(self.ts) - 1, self.ts[-1])

    def records(self) -> Records:
        runs = object.__new__(Records)
        runs.heads, runs.ts = tuple(self.heads), tuple(self.ts)
        return runs


class Trace(NamedTuple):
    meta: TraceMeta | None
    records: Records


def _emit(value) -> str:
    """JSON fragment with floats at 9 significant digits."""
    if isinstance(value, float):
        text = _text_memo.get(value)
        if text is None:
            if len(_text_memo) >= _MEMO_CAP:
                _text_memo.clear()
            text = _text_memo[value] = format9(value)
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


def _line(kind: str, obj: _Canonical, last: tuple | None = None) -> str:
    """obj's JSON line: every field, or with last only the fields whose value
    differs from last's. Canonical values are equal exactly when their text is."""
    keys = obj._keys
    fields = range(len(keys)) if last is None else compress(range(len(keys)), map(ne, obj, last))
    return "".join([f'{{"kind":"{kind}"', *[keys[i] + _emit(obj[i]) for i in fields], "}\n"])


def write_trace(records: Iterable[TraceRecord], meta: TraceMeta | None = None) -> str:
    """Serialize records (with an optional leading meta line) to JSON Lines.

    Records that are not a Records are built into one first. A run's head is
    diffed against the record before it; each later tick of the run changed
    only tick and t, so its line is the diff without the work of one."""
    records = Records(records)
    lines = [] if meta is None else [_line("meta", meta)]
    ts, last = records.ts, None
    for head, end in records._runs():
        lines.append(_line("frame", head, last))
        t_prev = head[1]
        for k in range(head[0] + 1, end):
            t = ts[k]
            lines.append(f'{{"kind":"frame","tick":{k},"t":{_emit(t)}}}\n' if t != t_prev
                         else f'{{"kind":"frame","tick":{k}}}\n')
            t_prev = t
        last = (end - 1, t_prev) + head[2:]
    return "".join(lines)


# Not json.loads, which re-checks its keyword arguments on every call: about
# 0.3 us a line, 3% of the time to read the reference suite's traces.
_DECODER = json.JSONDecoder()
_TOO_DEEP = "a JSON value nested too deeply to read"
# An unchanged tick's line as write_trace writes it, in JSON's number grammar: groups tick,
# t, and t's fraction and exponent, which make t a float and not an int, as in JSON.
# An int of more than 640 digits, the least limit Python may put on int(), takes the decoder.
_INT = "-?(?:0|[1-9][0-9]{0,639})"
_REPEAT = re.compile(rf'{{"kind":"frame","tick":({_INT}),"t":({_INT}((?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?))}}').fullmatch


def read_trace(text: str) -> Trace:
    """Parse a JSON Lines trace; inverse of write_trace on its own output.

    A frame starts from the previous frame's values: a field it lacks is
    unchanged, and only the fields it holds are canonicalized. Ticks must
    count up from 0, one per frame. After the first frame, a line that is exactly
    {"kind":"frame","tick":K,"t":T} gives the decoder's record or error without it,
    and its record is held as one more t of the run before it."""
    meta: TraceMeta | None = None
    runs = _Builder()
    ts = runs.ts
    # Not splitlines, which also breaks at what a JSON string holds raw, U+2028 among
    # them. A CRLF line drops its "\r", so that an unchanged tick keeps the short path.
    lines = [line.removesuffix("\r") for line in text.split("\n")] if "\r" in text else text.split("\n")
    for lineno, line in enumerate(lines, start=1):
        if ts and (repeat := _REPEAT(line)):  # an unchanged tick: one more t for the run before it
            tick, t, real = repeat.groups()
            tick, t = int(tick), float(t) if real else int(t)
            try:  # t's error before the tick's, as on the decoder's path
                ts.append(q9(t))
            except (ValueError, OverflowError):
                raise TraceIntegrityError(f"line {lineno}: t={t!r} is not a valid float") from None
            if tick != len(ts) - 1:
                raise TraceIntegrityError(f"line {lineno}: tick {tick} where {len(ts) - 1} was expected")
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
            raise TraceIntegrityError(f"line {lineno}: {_TOO_DEEP}") from None
        kind = obj.pop("kind", None) if isinstance(obj, dict) else None
        try:
            if kind == "frame":
                # Older files carry the flicker phase, a function of t: checked, then dropped.
                if type(phase := obj.pop("sgd_phase", False)) is not bool:
                    raise TraceIntegrityError(f"sgd_phase={_SHOWN.repr(phase)} is not a valid bool")
                rec = TraceRecord._read(runs.last() if ts else None, obj)
                if rec.tick != len(ts):
                    raise TraceIntegrityError(f"tick {rec.tick} where {len(ts)} was expected")
                runs.step(rec)
            elif kind != "meta":
                raise TraceIntegrityError(f"unknown record kind {_SHOWN.repr(kind)}")
            elif ts or meta is not None:
                raise TraceIntegrityError("meta must be the first line")
            else:
                meta = TraceMeta._read(None, obj)
        except TraceIntegrityError as exc:
            raise TraceIntegrityError(f"line {lineno}: {exc}") from None
    return Trace(meta=meta, records=runs.records())
