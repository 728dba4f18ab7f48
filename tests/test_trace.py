import json
import math
import random
import sys
from enum import Enum
from typing import NamedTuple

import pytest
from hypothesis import example, given, strategies as st

from _rand import make_meta, make_record, random_trace
from turncue.errors import TraceIntegrityError
from turncue.trace import (
    _MEMO_CAP,
    _SHOWN,
    Method,
    Records,
    Role,
    Side,
    TraceMeta,
    TraceRecord,
    _Builder,
    _canonical,
    _emit,
    _q9_memo,
    _text_memo,
    q9,
    read_trace,
    write_trace,
)


def test_q9_idempotent_on_random_values():
    rng = random.Random(4)
    for _ in range(5000):
        x = rng.uniform(-1e6, 1e6) * 10 ** rng.randint(-9, 9)
        assert q9(q9(x)) == q9(x)


def test_q9_examples():
    assert q9(1.0416666666666667) == 1.04166667
    assert q9(0.5) == 0.5
    assert q9(0.0) == 0.0


def _canonical_hex(x) -> str:
    """The unmemoized q9 formula, as bits (hex tells -0.0 from 0.0)."""
    return (float(format(x, ".9g")) + 0.0).hex()


@given(st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**1000), 2**1000))
def test_memoized_q9_and_float_text_equal_the_formula(x):
    for _ in range(2):  # the second pass is served by the memos
        assert q9(x).hex() == _canonical_hex(x)
        assert _emit(q9(x)) == format(q9(x), ".9g")
    if isinstance(x, int):  # an int shares its memo entry with the equal float
        assert q9(float(x)).hex() == _canonical_hex(x)


def test_q9_rejects_bool_and_str_after_equal_numbers_are_memoized():
    for x in (1.0, 0.0, 1):
        q9(x)
    for bad in (True, False, "1"):
        with pytest.raises(TypeError):
            q9(bad)


def test_q9_and_float_text_stay_exact_across_the_memo_cap():
    values = [i / 7 for i in range(_MEMO_CAP + 100)]
    for v in values:
        _emit(q9(v))
    assert len(_q9_memo) <= _MEMO_CAP and len(_text_memo) <= _MEMO_CAP
    for v in values[:200]:
        assert q9(v).hex() == _canonical_hex(v)
        assert _emit(q9(v)) == format(q9(v), ".9g")


@pytest.mark.parametrize(
    "bad,error",
    [(math.nan, ValueError), (math.inf, ValueError), (-math.inf, ValueError), (10**400, OverflowError)],
    ids=["nan", "inf", "-inf", "big-int"],
)
def test_q9_rejects_values_without_a_finite_result(bad, error):
    with pytest.raises(error):
        q9(bad)
    assert q9(1e308) == 1e308  # the largest finite results still pass


def test_negative_zero_is_written_and_read_back_as_zero():
    assert q9(-0.0).hex() == "0x0.0p+0"
    rec = make_record(0, 0.0, duck=-0.0, head=(-0.0, 0, 1))
    text = write_trace([rec])
    assert '"duck":0,' in text and '"head":[0,0,1]' in text
    back = read_trace(text)
    assert write_trace(back.records) == text


def test_three_records_three_lines():
    records = [make_record(i, i * 0.1) for i in range(3)]
    text = write_trace(records)
    assert len(text.splitlines()) == 3
    back = read_trace(text)
    assert back.meta is None
    assert list(back.records) == records


def test_meta_line_prepended():
    records = [make_record(0, 0.0)]
    text = write_trace(records, make_meta())
    lines = text.splitlines()
    assert len(lines) == 2
    assert '"kind":"meta"' in lines[0]


def test_empty_trace_is_empty_file():
    assert write_trace([]) == ""
    back = read_trace("")
    assert back.meta is None and back.records == ()


def test_round_trip_random_traces():
    rng = random.Random(99)
    for _ in range(25):
        trace = random_trace(rng, rng.randint(0, 40))
        back = read_trace(write_trace(trace.records, trace.meta))
        assert back == trace


def test_write_then_write_is_stable():
    rng = random.Random(7)
    trace = random_trace(rng, 20)
    text1 = write_trace(trace.records, trace.meta)
    back = read_trace(text1)
    text2 = write_trace(back.records, back.meta)
    assert text1 == text2


def test_floats_serialized_at_nine_significant_digits():
    rec = make_record(0, 1.0416666666666667)
    text = write_trace([rec])
    assert '"t":1.04166667' in text


def test_non_contiguous_ticks_rejected():
    records = [make_record(0, 0.0), make_record(2, 0.2)]
    for build in (write_trace, Records):  # write_trace builds its input into a Records
        with pytest.raises(TraceIntegrityError, match="^tick 2 at position 1: indices must be contiguous from 0$"):
            build(records)


def test_read_rejects_bad_json():
    with pytest.raises(TraceIntegrityError, match="line 1"):
        read_trace("{broken\n")


def test_read_rejects_unknown_kind():
    with pytest.raises(TraceIntegrityError):
        read_trace('{"kind":"mystery"}\n')


def test_read_rejects_late_meta():
    records = [make_record(0, 0.0)]
    frame_line = write_trace(records)
    meta_line = write_trace([], make_meta())
    with pytest.raises(TraceIntegrityError, match="meta"):
        read_trace(frame_line + meta_line)


def _trace_lines() -> list[str]:
    # Frames are deltas: pos moves on every frame, and the second frame ends
    # a session and clears the panel, so their keys are on the lines below.
    records = [
        make_record(0, 0.0, state="acknowledged", rt=0.5, pos=(0.0, 0.0, 0.0), panel_text="Alex"),
        make_record(1, 0.1, pos=(0.0, 1.0, 0.0)),
        make_record(2, 0.2, pos=(0.0, 2.0, 0.0)),
    ]
    return write_trace(records, make_meta()).splitlines()


@pytest.mark.parametrize(
    "lineno,old,new,message",
    [
        (2, '"env":1.1,', "", "missing field 'env'"),  # only the first frame must carry every field
        (2, '"t":0,', '"t":"abc",', "t='abc' is not a valid float"),
        (4, '"pos":[0,2,0]', '"pos":[0,1]', r"pos=\[0, 1\] is not a valid Triple"),
        (1, '"seats":[[0,1,0],', '"seats":[[0,1],', r"seats=.* is not a valid tuple\[Triple, \.\.\.\]"),
        (1, '"topic":0', '"topic":"x"', "topic='x' is not a valid int"),
        (2, '"point_active":false', '"point_active":"yes"', "point_active='yes' is not a valid bool"),
        (2, '"t":0,', '"t":"0",', "t='0' is not a valid float"),
        (3, '"panel_text":""', '"panel_text":5', "panel_text=5 is not a valid str"),
        (4, '"tick":2', '"tick":true', "tick=True is not a valid int"),
        (3, '"t":0.1,', '"t":NaN,', "t=nan is not a valid float"),
        (3, '"t":0.1,', '"t":Infinity,', "t=inf is not a valid float"),
        (3, '"t":0.1,', '"t":-Infinity,', "t=-inf is not a valid float"),
        (3, '"t":0.1,', '"t":1e400,', "t=inf is not a valid float"),
        (3, '"t":0.1,', '"t":' + "9" * 400 + ",", "t=9{400} is not a valid float"),
        (3, '"pos":[0,1,0]', '"pos":[0,NaN,0]', r"pos=\[0, nan, 0\] is not a valid Triple"),
        (3, '"rt":null', '"rt":-1e999', r"rt=-inf is not a valid float \| None"),
        (3, '"panel_text":""', '"panel_text":NaN', "panel_text=nan is not a valid str"),
        (4, '"tick":2', '"tick":NaN', "tick=nan is not a valid int"),
        (2, '"chime":false', '"chime":Infinity', "chime=inf is not a valid bool"),
        (3, '"rt":null', '"rt":-Infinity', r"rt=-inf is not a valid float \| None"),
        (2, '"in_view":null', '"in_view":NaN', r"in_view=nan is not a valid bool \| None"),
        (3, '"target":null', '"target":Infinity', r"target=inf is not a valid str \| None"),
        (1, '"topic":0', '"topic":0,"bogus":NaN,"tick2":5', "unknown field 'bogus'"),
        (2, '"tick":0', '"tick":0,"bogus":NaN,"tick2":5', "unknown field 'bogus'"),
        (3, '"tick":1', '"tick":1,"bogus":NaN,"tick2":5', "unknown field 'bogus'"),
        (4, '"tick":2,', "", "tick 1 where 2 was expected"),  # a later frame that lost its tick
        (1, '"method":"light_audio"', '"method":"lightaudio"', "method='lightaudio' is not a valid Method"),
        (1, '"role":"listener"', '"role":"lisener"', "role='lisener' is not a valid Role"),
        (2, '"pos":[0,0,0]', '"pos":' + "[" * 100_000 + "]" * 100_000, "a JSON value nested too deeply to read"),
    ],
    ids=["missing-field", "non-numeric", "short-triple", "short-seat", "non-integer", "str-bool", "str-float",
         "int-str", "bool-int", "nan", "infinity", "minus-infinity", "float-overflow", "int-overflow",
         "nan-in-triple", "optional-float", "nan-str", "nan-int", "infinity-bool",
         "minus-infinity-optional-float", "nan-optional-bool", "infinity-optional-str", "unknown-in-meta", "unknown-in-first-frame",
         "unknown-in-later-frame", "lost-tick", "unknown-meta-method", "unknown-meta-role", "nested-too-deeply"],
)
def test_read_rejects_malformed_line_with_its_number(lineno, old, new, message):
    lines = _trace_lines()
    assert old in lines[lineno - 1]
    lines[lineno - 1] = lines[lineno - 1].replace(old, new, 1)
    with pytest.raises(TraceIntegrityError, match=f"^line {lineno}: {message}$"):
        read_trace("\n".join(lines) + "\n")


def test_later_frame_lacking_a_field_reads_as_the_previous_value():
    lines = _trace_lines()
    lines[2] = lines[2].replace('"pos":[0,1,0],', "")
    records = read_trace("\n".join(lines) + "\n").records
    assert records[1].pos == records[0].pos == (0.0, 0.0, 0.0)
    assert records[2].pos == (0.0, 2.0, 0.0) and records[1].state == "idle"


def _fresh(value):
    """An equal value made of new float and tuple objects."""
    if isinstance(value, float):
        return float(repr(value))
    if isinstance(value, tuple):
        return tuple(map(_fresh, value))
    return value


def _fresh_copy(rec: TraceRecord) -> TraceRecord:
    return tuple.__new__(TraceRecord, map(_fresh, rec))


def _at(rec: TraceRecord, k: int, t) -> TraceRecord:
    """rec at tick k and t, sharing its other value objects."""
    return TraceRecord._from(rec, (k, t), (0, 1))


def _repeat(rec: TraceRecord, k: int) -> TraceRecord:
    """rec at tick k, sharing its value objects, as the scenario loop repeats a settled tick."""
    return _at(rec, k, k * 0.1)


def test_frame_text_does_not_depend_on_shared_value_objects():
    # Records repeated from a settled tick share value objects with it, and
    # a frame line leaves out every field whose value has not changed. Their
    # lines must read exactly as if every value were a new object.
    signaled = dict(state="signaled", target="a2", in_view=False, role="listener")
    acked = dict(signaled, state="acknowledged", rt=0.5)
    idle = dict(state="idle", target=None, rt=None, in_view=None, role=None)
    records = [make_record(0, 0.0)]  # None in the first line's optional fields
    for fields in (None, signaled, None, acked, "fresh", idle, None, acked, "fresh", "fresh", idle):
        prev, k = records[-1], len(records)
        if fields is None:
            rec = _repeat(prev, k)
        elif fields == "fresh":  # equal values in new objects
            rec = _fresh_copy(_repeat(prev, k))
            assert rec.pos == prev.pos and rec.pos is not prev.pos
        else:
            rec = prev._replace(tick=k, t=k * 0.1, **fields)
        records.append(rec)
    rng = random.Random(12)
    for rec in random_trace(rng, 30).records:  # every field moves
        records.append(rec._replace(tick=len(records)))

    text = write_trace(records)
    assert text == write_trace([_fresh_copy(rec) for rec in records])
    assert read_trace(text).records == tuple(records)
    lines = text.splitlines()
    assert '"target":null,"rt":null,"in_view":null,"role":null' in lines[0]
    assert lines[4] == '{"kind":"frame","tick":4,"t":0.4,"state":"acknowledged","rt":0.5}'
    assert lines[5] == '{"kind":"frame","tick":5,"t":0.5}'  # equal values in new objects
    assert lines[6].endswith(',"state":"idle","target":null,"rt":null,"in_view":null,"role":null}')
    assert '"state":"acknowledged","target":"a2","rt":0.5,"in_view":false,"role":"listener"}' in lines[8]


_FLOAT = st.sampled_from([0.0, -0.0, 0.1, 1e-7]) | st.floats(-1e6, 1e6)
_TRIPLE = st.tuples(_FLOAT, _FLOAT, _FLOAT)
_VALUES = {  # a strategy per field annotation of TraceRecord, tick aside
    "float": _FLOAT,
    "float | None": st.none() | _FLOAT,
    "Triple": _TRIPLE,
    "str": st.sampled_from(["", "a1", "Alex", 'say "hi"']),
    "str | None": st.none() | st.sampled_from(["a1", "a2"]),
    "bool": st.booleans(),
    "bool | None": st.none() | st.booleans(),
    "Role | None": st.none() | st.sampled_from([role.value for role in Role]),
    "Side": st.sampled_from([side.value for side in Side]),
}
_KIND = dict(zip(TraceRecord._fields, TraceRecord._kinds))
_CHANGING = [name for name in TraceRecord._fields if name != "tick"]
_SUBSET = st.sets(st.sampled_from(_CHANGING), max_size=8)


def _full_key_text(records) -> str:
    """Frames in the earlier full-key layout: every field on every line."""
    return "".join(
        '{"kind":"frame",' + ",".join(f'"{name}":{_emit(getattr(rec, name))}' for name in TraceRecord._fields) + "}\n"
        for rec in records
    )


@given(st.data())
def test_delta_frames_round_trip_any_change_pattern(data):
    # Each tick changes a random subset of fields; the rest either keep their
    # objects or are rebuilt as equal values in new objects.
    values = {name: v for name, v in make_record(0, 0.0)._asdict().items() if name != "tick"}
    records = []
    for k in range(data.draw(st.integers(1, 8))):
        for name in data.draw(_SUBSET):
            values[name] = data.draw(_VALUES[_KIND[name]])
        rec = TraceRecord(tick=k, **values)
        records.append(_fresh_copy(rec) if data.draw(st.booleans()) else rec)
        fresh = data.draw(_SUBSET)
        values = {name: _fresh(v) if name in fresh else v for name, v in rec._asdict().items() if name != "tick"}
    meta = data.draw(st.none() | st.just(make_meta()))
    text = write_trace(records, meta)
    back = read_trace(text)
    assert back.records == tuple(records) and back.meta == meta
    assert write_trace(back.records, back.meta) == text
    assert read_trace(_full_key_text(records)).records == tuple(records)


def test_read_rejects_non_object_line():
    with pytest.raises(TraceIntegrityError, match="line 1: unknown record kind"):
        read_trace("[1, 2]\n")


def test_lines_padded_with_json_whitespace_read_as_written():
    text = write_trace([make_record(0, 0.0), make_record(1, 0.1)], make_meta())
    padded = "".join(f"{pad}{line}{pad[::-1]}\n" for pad, line in zip((" ", "\t", " \t\t "), text.splitlines()))
    back = read_trace(padded)
    assert back == read_trace(text)
    assert write_trace(back.records, back.meta) == text


@pytest.mark.parametrize(
    "lineno,edit,message",
    [
        (2, lambda line: line + ' {"kind":"frame"}', "Extra data"),
        (2, lambda line: line + "}", "Extra data"),
        (2, lambda line: "\xa0" + line, "Expecting value"),  # not JSON whitespace
        (2, lambda line: line + "\xa0", "Extra data"),
        (3, lambda line: line[:-5], "Expecting ':' delimiter"),
        (3, lambda line: line[:-5] + " \t", "Expecting ':' delimiter"),
        (1, lambda line: line[:12], "Unterminated string starting at"),
    ],
    ids=["extra-object", "extra-brace", "nbsp-before", "nbsp-after", "truncated", "truncated-padded",
         "truncated-in-a-string"],
)
def test_read_rejects_a_line_that_is_not_one_json_value(lineno, edit, message):
    lines = write_trace([make_record(0, 0.0), make_record(1, 0.1)], make_meta()).splitlines()
    lines[lineno - 1] = edit(lines[lineno - 1])
    with pytest.raises(TraceIntegrityError) as caught:
        read_trace("\n".join(lines) + "\n")
    assert str(caught.value) == f"line {lineno}: invalid JSON ({message})"


_LINE_PIECES = [" ", "\t", "\xa0", "\u3000", "{", "}", '"kind"', ":", '"frame"', ",", "[1, 2]", "1", "x", "null", '"a']


@given(st.lists(st.sampled_from(_LINE_PIECES), max_size=8).map("".join))
def test_read_accepts_and_rejects_each_line_as_json_decode_does(line):
    # read_trace decodes once per line; what it takes for JSON, and the text of
    # every JSON error, are json.JSONDecoder().decode's on the line as read.
    try:
        json.JSONDecoder().decode(line)
        expected = None
    except json.JSONDecodeError as exc:
        expected = f"line 1: invalid JSON ({exc.msg})"
    if not line.strip():
        expected = None  # a blank line is skipped
    try:
        read_trace(line)
        got = None
    except TraceIntegrityError as exc:
        got = str(exc) if "invalid JSON" in str(exc) else None
    assert got == expected


def _diff_only_write(records, meta=None) -> str:
    """write_trace as a plain diff of every line against the last: the oracle for its short path."""
    def lines(kind, objs):
        last = None
        for obj in objs:
            fields = [f',"{name}":{_emit(value)}' for i, (name, value) in enumerate(obj._asdict().items())
                      if last is None or value != last[i]]
            yield "".join([f'{{"kind":"{kind}"', *fields, "}\n"])
            last = obj

    return "".join([*lines("meta", [] if meta is None else [meta]), *lines("frame", records)])


@given(st.data())
def test_written_repeats_equal_the_diff_of_every_field(data):
    # Runs of repeated ticks, some at an unchanged t, between ticks that change fields.
    records = [make_record(0, 0.0)]
    for _ in range(data.draw(st.integers(0, 12))):
        prev, k = records[-1], len(records)
        step = data.draw(st.sampled_from(["repeat", "repeat", "same t", "change", "fresh"]))
        if step == "repeat":
            t = data.draw(st.sampled_from([k * 0.1, prev.t + 1e-12]) | _FLOAT)
            rec = _at(prev, k, t)
        elif step == "same t":
            rec = _at(prev, k, prev.t)
        elif step == "change":
            rec = prev._replace(tick=k, **{name: data.draw(_VALUES[_KIND[name]]) for name in data.draw(_SUBSET)})
        else:
            rec = _fresh_copy(_at(prev, k, k * 0.1))
        records.append(rec)
    meta = data.draw(st.none() | st.just(make_meta()))
    text = write_trace(records, meta)
    assert text == _diff_only_write(records, meta)
    assert read_trace(text) == read_trace(_padded(text)) == (meta, tuple(records))


def test_nesting_at_any_depth_reads_as_a_value_or_the_line_s_error():
    # Around the recursion limit, where the decoder may recurse too deeply on
    # either of its two passes over a line that is not one JSON value.
    limit = sys.getrecursionlimit()
    for depth in range(limit - 150, limit + 5):
        for tail in ("", " x"):
            with pytest.raises(TraceIntegrityError) as caught:
                read_trace("[" * depth + "]" * depth + tail)
            assert str(caught.value) in ("line 1: unknown record kind None", "line 1: invalid JSON (Extra data)",
                                         "line 1: a JSON value nested too deeply to read")


_STEP = st.sampled_from(["repeat", "repeat", "same t", "change", "fresh"])


@given(st.data())
def test_records_behave_as_the_tuple_of_their_records(data):
    # Runs of repeated ticks, some at an unchanged t, between ticks that change
    # fields, some to values equal to the last ones, which extend the run.
    records = [make_record(0, 0.0)]
    for _ in range(data.draw(st.integers(0, 12))):
        prev, k = records[-1], len(records)
        step = data.draw(_STEP)
        if step == "repeat":
            rec = _at(prev, k, data.draw(st.sampled_from([k * 0.1, prev.t + 1e-12]) | _FLOAT))
        elif step == "same t":
            rec = _at(prev, k, prev.t)
        elif step == "change":
            rec = prev._replace(tick=k, **{name: data.draw(_VALUES[_KIND[name]]) for name in data.draw(_SUBSET)})
        else:
            rec = _fresh_copy(_at(prev, k, k * 0.1))
        records.append(rec)
    runs, expected = Records(records), tuple(records)
    assert runs.heads == tuple(rec for i, rec in enumerate(expected) if i == 0 or rec[2:] != expected[i - 1][2:])
    assert runs.ts == tuple(rec.t for rec in expected)

    n = len(expected)
    assert len(runs) == n and Records(runs) is runs
    for i in range(-n, n):
        assert type(runs[i]) is TraceRecord and runs[i] == expected[i]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            runs[i]
    cut = slice(*data.draw(st.tuples(st.none() | st.integers(-n - 2, n + 2), st.none() | st.integers(-n - 2, n + 2),
                                     st.none() | st.integers(1, 3) | st.integers(-3, -1))))
    assert type(runs[cut]) is tuple and runs[cut] == expected[cut]
    assert tuple(runs) == expected and list(runs) == records
    for same in (expected, records, Records(expected)):
        assert runs == same and same == runs and not runs != same and not same != runs
    assert hash(runs) == hash(expected)
    other = data.draw(st.sampled_from(["shorter", "moved"]))
    differs = expected[:-1] if other == "shorter" else expected[:-1] + (expected[-1]._replace(duck=0.5),)
    if differs != expected:
        assert runs != differs and differs != runs and runs != Records(differs) and not runs == differs

    meta = data.draw(st.none() | st.just(make_meta()))
    text = write_trace(runs, meta)
    assert text == write_trace(records, meta) == _diff_only_write(records, meta)
    for back in (read_trace(text), read_trace(_padded(text))):  # the short path, and the decoder's
        assert back == (meta, expected)
        assert back.records.heads == runs.heads and back.records.ts == runs.ts
        assert write_trace(back.records, back.meta) == text


def test_empty_records():
    runs = Records()
    assert runs == () == Records([]) and len(runs) == 0 and runs.heads == runs.ts == ()
    assert runs[:] == () and list(runs) == [] and hash(runs) == hash(())
    with pytest.raises(IndexError):
        runs[0]


def _outcome(text: str):
    """read_trace's records as repr shows them (-0.0 apart from 0.0, 1 from 1.0),
    or the error it raises, with its type."""
    try:
        return repr(read_trace(text).records)
    except Exception as exc:  # a bare ValueError, say, must be the same on both paths
        return type(exc), str(exc)


def _padded(text: str) -> str:
    """text with one space before every line, which sends every line to the JSON decoder."""
    return "".join(" " + line + "\n" for line in text.splitlines())


def test_unchanged_ticks_read_as_decoded():
    records = [make_record(0, 0.0)]
    for k in range(1, 40):
        records.append(_at(records[-1], k, round(k * 0.1, 1) if k % 7 else records[-1].t))
        if k % 9 == 0:
            records[-1] = records[-1]._replace(pos=(0.0, float(k), 0.0))
    text = write_trace(records, make_meta())
    assert '{"kind":"frame","tick":8,"t":0.8}' in text.splitlines()
    assert read_trace(text) == read_trace(_padded(text)) == (make_meta(), tuple(records))
    with pytest.raises(TraceIntegrityError, match="^line 1: missing field 'pos'$"):  # the first frame is never short
        read_trace('{"kind":"frame","tick":0,"t":0}\n')


_NUMBER_PIECES = ["0", "1", "2", "9", "\u0663", "-", "+", ".", "e", "E", "NaN", "Infinity", "01", "1e999", "-0.0", " "]
_NUMBER = st.lists(st.sampled_from(_NUMBER_PIECES), min_size=1, max_size=4).map("".join)
_KEYS = st.sampled_from([('"tick"', '"t"')] * 4 + [('"t"', '"tick"'), ('"tick"', '"kind"'), ('"pos"', '"t"')])
_SHORT = st.tuples(_KEYS, st.none() | _NUMBER, _NUMBER)  # keys, tick (None: the expected one), t


@given(st.lists(_SHORT, min_size=1, max_size=3))
@example([(('"tick"', '"t"'), None, "1e999")])
@example([(('"tick"', '"t"'), "01", "0.1")])
@example([(('"tick"', '"t"'), "2", "0.1")])
@example([(('"tick"', '"t"'), None, "-0.0"), (('"tick"', '"t"'), None, "9" * 400)])
@example([(('"tick"', '"t"'), None, "1"), (('"tick"', '"t"'), None, "2E+1"), (('"tick"', '"t"'), None, "-0")])
@example([(('"tick"', '"t"'), None, "1.")])
@example([(('"tick"', '"t"'), None, "1e+")])
@example([(('"tick"', '"t"'), None, "1\u0663")])  # a digit to str.isdigit, not to JSON
def test_a_short_line_reads_as_the_decoder_reads_it(lines):
    # After a valid first frame, lines shaped like an unchanged tick's, or
    # nearly: the records or the error are those of the decoder's path.
    text = write_trace([make_record(0, 0.0)]) + "".join(
        f'{{"kind":"frame",{k1}:{i if tick is None else tick},{k2}:{t}}}\n'
        for i, ((k1, k2), tick, t) in enumerate(lines, start=1)
    )
    assert _outcome(text) == _outcome(_padded(text))


@pytest.mark.parametrize(
    "line,message",
    [
        ('{"kind":"frame","tick":1,"t":1e999}', "t=inf is not a valid float"),
        ('{"kind":"frame","tick":1,"t":-1E400}', "t=-inf is not a valid float"),
        ('{"kind":"frame","tick":1,"t":' + "9" * 400 + "}", "t=9{400} is not a valid float"),
        ('{"kind":"frame","tick":01,"t":0.1}', r"invalid JSON \(Expecting ',' delimiter\)"),
        ('{"kind":"frame","tick":3,"t":0.1}', "tick 3 where 1 was expected"),
        ('{"kind":"frame","tick":-0,"t":0.1}', "tick 0 where 1 was expected"),
    ],
    ids=["inf", "minus-inf", "int-overflow", "leading-zero", "wrong-tick", "minus-zero-tick"],
)
def test_read_rejects_a_bad_short_line_with_its_number(line, message):
    for text in (write_trace([make_record(0, 0.0)]) + line + "\n", _padded(write_trace([make_record(0, 0.0)]) + line)):
        with pytest.raises(TraceIntegrityError, match=f"^line 2: {message}$"):
            read_trace(text)


_HUGE = "9" * 5000  # more digits than Python's int() reads, 4300 unless set otherwise


@pytest.mark.parametrize(
    "line",
    [
        '{"kind":"frame","tick":%s,"t":0.1}' % _HUGE,
        '{"kind":"frame","tick":1,"t":%s}' % _HUGE,
        '{"kind":"frame","tick":1,"t":0.1,"env":%s}' % _HUGE,  # never a short line
    ],
    ids=["tick", "t", "env"],
)
def test_read_rejects_an_integer_longer_than_int_reads_with_its_line(line):
    # JSON bounds no number's length; the short line and the decoder each give
    # the line's error, not a bare ValueError.
    def message(lineno):
        return f"^line {lineno}: an integer of more than {sys.get_int_max_str_digits()} digits$"

    first = write_trace([make_record(0, 0.0)])
    for text in (first + line + "\n", _padded(first + line)):
        with pytest.raises(TraceIntegrityError, match=message(2)):
            read_trace(text)
    with pytest.raises(TraceIntegrityError, match=message(1)):  # a first frame, which the decoder reads
        read_trace(line.replace('"tick":1,', '"tick":0,'))


def test_an_unchanged_tick_of_many_digits_reads_as_decoded():
    # 640 digits, the least limit Python may set on int(), and more take the decoder.
    for digits in (639, 640, 641, 4300):
        text = write_trace([make_record(0, 0.0)]) + '{"kind":"frame","tick":1,"t":%s}\n' % ("9" * digits)
        error = (TraceIntegrityError, f"line 2: t={'9' * digits} is not a valid float")
        assert _outcome(text) == _outcome(_padded(text)) == error


def test_unsupported_field_type_fails_at_class_definition():
    with pytest.raises(TypeError, match="unsupported trace field type"):
        _canonical(NamedTuple("Bad", [("x", "list[int]")]))


def test_record_keeps_the_field_names_that_perfbench_layers_reads():
    # perfbench/layers.py takes the record's field names from __dataclass_fields__ at import.
    assert tuple(TraceRecord.__dataclass_fields__) == TraceRecord._fields


_ENUMS = {"Method": Method, "Role": Role, "Role | None": Role, "Side": Side}  # each named kind's enum


def _is_canonical(value, kind: str) -> bool:
    """value is what canonicalizing a value of annotation kind gives: q9 floats, 0.0 for -0.0,
    a member's value for a member."""
    if kind.endswith(" | None") and value is None:
        return True
    if kind in _ENUMS:
        return type(value) is str and value in [member.value for member in _ENUMS[kind]]
    if kind.startswith("float"):
        return type(value) is float and value.hex() == _canonical_hex(value)
    if kind == "Triple":
        return type(value) is tuple and len(value) == 3 and all(_is_canonical(v, "float") for v in value)
    return kind != "int" or type(value) is int


_RAW_FLOAT = _FLOAT | st.integers(-(10**6), 10**6)  # an int is a valid float field value too
_RAW = {**_VALUES, "float": _RAW_FLOAT, "float | None": st.none() | _RAW_FLOAT,
        "Triple": st.tuples(_RAW_FLOAT, _RAW_FLOAT, _RAW_FLOAT),
        "Role | None": _VALUES["Role | None"] | st.sampled_from(Role), "Side": _VALUES["Side"] | st.sampled_from(Side)}


@given(st.data())
def test_every_way_to_build_a_record_canonicalizes(data):
    raw = {name: data.draw(_RAW[_KIND[name]]) for name in _CHANGING}
    replaced = data.draw(st.sets(st.sampled_from(_CHANGING)))
    built = [
        TraceRecord(tick=0, **raw),
        TraceRecord(0, *raw.values()),
        TraceRecord._make((0, *raw.values())),
        make_record(0, 0.0)._replace(**raw),
        TraceRecord(tick=0, **raw)._replace(**{name: raw[name] for name in replaced}),
    ]
    text = write_trace(built[:1])
    back = read_trace(text).records[0]
    for rec in (*built, back):
        assert type(rec) is TraceRecord and rec == built[0]
        assert all(_is_canonical(value, _KIND[name]) for name, value in rec._asdict().items())
    assert write_trace([back]) == text


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: make_record(0, math.nan), "t=nan is not a valid float"),
        (lambda: TraceRecord._make(make_record(0, 0.0)[:-1] + (5,)), "speaker=5 is not a valid str"),
        (lambda: make_record(0, 0.0)._replace(pos=(0, 1)), r"pos=\(0, 1\) is not a valid Triple"),
        (lambda: make_record(0, 0.0)._replace(tick=True), "tick=True is not a valid int"),
        (lambda: make_meta(seats=((0.0, 1.0),)), r"seats=.* is not a valid tuple\[Triple, \.\.\.\]"),
    ],
    ids=["constructor", "make", "replace", "replace-bool-int", "meta"],
)
def test_every_way_to_build_a_record_rejects_a_bad_value(build, message):
    with pytest.raises(TraceIntegrityError, match=f"^{message}$"):
        build()


_NAMED = [(cls, name) for cls in (TraceMeta, TraceRecord) for name, kind in zip(cls._fields, cls._kinds) if kind in _ENUMS]


def _builds(cls, name: str, value) -> list:
    """Each way to build a line of cls whose field name is value, the others make_meta's or make_record's:
    the constructor by keyword and by position, _make, _replace, and for a record _Builder.step, first
    and after a record that differs in that field alone."""
    base = make_meta() if cls is TraceMeta else make_record(0, 0.0)
    i = cls._fields.index(name)
    raw = (*base[:i], value, *base[i + 1:])

    def step(*before):
        runs = _Builder()
        for rec in (*before, raw if not before else (1, *raw[1:])):
            runs.step(rec)
        return _at(runs.last(), 0, 0.0)  # at the first tick, as the other ways build it

    ways = [lambda: cls(**dict(zip(cls._fields, raw))), lambda: cls(*raw), lambda: cls._make(raw),
            lambda: base._replace(**{name: value})]
    return ways + [step, lambda: step(tuple(base))] if cls is TraceRecord else ways


def _read_with(cls, name: str, value):
    """read_trace of a meta line and a frame, the line of cls with its field name set to value."""
    lines = write_trace([make_record(0, 0.0)], make_meta()).splitlines()
    k = 0 if cls is TraceMeta else 1
    lines[k] = json.dumps({**json.loads(lines[k]), name: value})
    back = read_trace("\n".join(lines) + "\n")
    return back.meta if cls is TraceMeta else back.records[0]


_NOT_A_NAME = (st.none() | st.text(max_size=12) | st.integers(-(10**30), 10**30) | st.booleans()
               | st.lists(st.integers(-9, 9) | st.text(max_size=3), max_size=3))


@given(st.sampled_from(_NAMED), st.data())
def test_a_named_field_takes_a_member_or_its_value_and_nothing_else(named, data):
    # method and role of the meta line, and role and point_side of a frame: every way to build
    # or read one holds a member's value, which write -> read gives back, and rejects any other
    # value, another enum's member included, with the one message.
    cls, name = named
    kind = cls._kinds[cls._fields.index(name)]
    member = data.draw(st.sampled_from(_ENUMS[kind]))
    for value in (member, member.value):
        for build in _builds(cls, name, value):
            line = build()
            assert type(line) is cls and type(getattr(line, name)) is str and getattr(line, name) == member.value
            back = read_trace(write_trace([], line) if cls is TraceMeta else write_trace([line]))
            assert (back.meta if cls is TraceMeta else back.records[0]) == line == _read_with(cls, name, member.value)
    valid = [*_ENUMS[kind], *(m.value for m in _ENUMS[kind]), *([None] if kind.endswith(" | None") else [])]
    bad = data.draw((_NOT_A_NAME | st.sampled_from([*Method, *Role, *Side])).filter(lambda v: v not in valid))
    message = f"{name}={_SHOWN.repr(bad)} is not a valid {kind}"
    for build in _builds(cls, name, bad):
        with pytest.raises(TraceIntegrityError) as caught:
            build()
        assert str(caught.value) == message
    if not isinstance(bad, Enum):  # JSON holds no member
        with pytest.raises(TraceIntegrityError) as caught:
            _read_with(cls, name, bad)
        assert str(caught.value) == f"line {1 if cls is TraceMeta else 2}: {message}"


@given(st.data())
def test_stepping_raw_ticks_gives_the_runs_of_their_records(data):
    # run_scenario's one pass over each tick's raw fields: a drawn subset
    # changes, to raw values (an int for a float, -0.0, a list for a triple)
    # or to ones equal to the last once canonical (0.1 + 1e-12 for 0.1); the
    # rest keep their objects or become equal new ones. Stepping them must
    # give the runs that the records built from them give.
    near = {"float": st.just(0.1 + 1e-12), "Triple": st.just([0.1, 0, -0.0]), "str": st.just("a1")}
    draw = {kind: near[kind] | value if kind in near else value for kind, value in _RAW.items()}
    values = {name: data.draw(draw[_KIND[name]]) for name in _CHANGING}
    built, records = _Builder(), []
    for k in range(data.draw(st.integers(1, 10))):
        values["t"] = data.draw(st.sampled_from([k * 0.1, k]))
        for name in data.draw(_SUBSET):
            values[name] = data.draw(draw[_KIND[name]])
        fresh = data.draw(_SUBSET)
        raw = (k, *(_fresh(v) if name in fresh else v for name, v in values.items()))
        built.step(raw)
        records.append(TraceRecord._make(raw))
    runs = built.records()
    assert runs == Records(records) and runs.heads == Records(records).heads
    assert all(type(head[0]) is int for head in runs.heads)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("t", math.nan, "t=nan is not a valid float"),
        ("pos", (0, 1), r"pos=\(0, 1\) is not a valid Triple"),
        ("speaker", 5, "speaker=5 is not a valid str"),
        ("tick", 2, "tick 2 at position 1: indices must be contiguous from 0"),
    ],
)
def test_stepping_rejects_a_bad_changed_field_as_a_record_does(field, value, message):
    built, first = _Builder(), make_record(0, 0.0)
    built.step(tuple(first))
    with pytest.raises(TraceIntegrityError, match=f"^{message}$"):
        built.step(tuple((first._replace(tick=1, t=0.1)._asdict() | {field: value}).values()))


_SHORTENED = r"'x{12}\.\.\.x{13}'"  # how an error shows a long str


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: make_record(0, 0.0)._replace(pos=(0,) * 200_000),
         r"pos=\(0, 0, 0, 0, 0, 0, \.\.\.\) is not a valid Triple"),
        (lambda: make_record(0, 0.0)._replace(chime="x" * 200_000), f"chime={_SHORTENED} is not a valid bool"),
        (lambda: make_meta(seats=[[[0] * 200_000]] * 9),
         r"seats=\[(\[\[\.\.\.\]\], ){6}\.\.\.\] is not a valid tuple\[Triple, \.\.\.\]"),
        (lambda: read_trace('{"kind":"frame","tick":0,"' + "x" * 200_000 + '":1}'),
         f"line 1: unknown field {_SHORTENED}"),
        (lambda: read_trace('{"kind":"' + "x" * 200_000 + '"}'), f"line 1: unknown record kind {_SHORTENED}"),
    ],
    ids=["long-tuple", "long-str", "deep-list", "long-field-name", "long-kind"],
)
def test_an_error_shows_a_huge_value_bounded(build, message):
    # The field, its kind and the line are named; the value is cut to a few items and characters.
    with pytest.raises(TraceIntegrityError, match=f"^{message}$") as caught:
        build()
    assert len(str(caught.value)) < 100


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c"],
                         ids=["u2028", "u2029", "x85", "x0b", "x0c", "x1c"])
def test_a_raw_line_break_inside_a_json_string_reads_as_its_escape(char):
    # str.splitlines breaks a line at each of these. A JSON string may hold
    # U+2028, U+2029 and U+0085 raw, and no raw control character.
    meta = make_meta(names=("Al" + char + "ex", "B", "C", "D", "E"))
    records = (make_record(0, 0.0), make_record(1, 0.1))
    escaped = write_trace(records, meta)
    raw = escaped.replace(json.dumps(char)[1:-1], char)
    assert raw != escaped
    if ord(char) >= 0x20:
        assert read_trace(raw) == read_trace(escaped) == (meta, records)
    else:
        with pytest.raises(TraceIntegrityError, match=r"^line 1: invalid JSON \(Invalid control character at\)$"):
            read_trace(raw)
