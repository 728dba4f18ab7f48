import re
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from _rand import DENSE, dense_listener_script, make_meta, make_record
from reference_run import reference_scan
from turncue.audio import Role
from turncue.config import GuidanceConfig
from turncue.errors import TraceIntegrityError
from turncue.metrics import _scan_trace, extract_metrics, metrics_to_csv
from turncue.scenario import GazeAgentModel, Method, default_script, run_scenario
from turncue.trace import Records, Trace


def as_tuple_and_as_records(trace):
    """trace with its records in a tuple and in a Records: extract_metrics must treat the two alike."""
    return [trace._replace(records=tuple(trace.records)), trace._replace(records=Records(trace.records, trace.meta.dt))]


def session_trace(outcome="acknowledged", rt=2.0, in_view=False, role="listener", method="light_audio"):
    records = [
        make_record(0, 0.0, "idle"),
        make_record(1, 0.1, "signaled", in_view=in_view, role=role),
        make_record(2, 0.2, "signaled", in_view=in_view, role=role),
        make_record(
            3, 0.3, outcome,
            rt=rt if outcome == "acknowledged" else None,
            in_view=in_view, role=role,
        ),
    ]
    return Trace(meta=make_meta(method=method, role=role), records=tuple(records))


def test_single_acknowledged_trace():
    summary = extract_metrics([session_trace()])
    cell = summary.cells[("light_audio", "out", "listener")]
    assert cell.n == 1
    assert cell.missed == 0
    assert cell.mean_rt == 2.0
    assert cell.min_rt == 2.0 and cell.max_rt == 2.0


def test_single_missed_trace():
    summary = extract_metrics([session_trace(outcome="missed")])
    cell = summary.cells[("light_audio", "out", "listener")]
    assert cell.n == 1
    assert cell.missed == 1
    assert cell.mean_rt is None


def test_cells_keyed_by_method_view_role():
    traces = [
        session_trace(in_view=True, role="speaker", method="sgd"),
        session_trace(in_view=False, role="listener", method="sgd"),
        session_trace(in_view=True, role="speaker", method="light"),
    ]
    summary = extract_metrics(traces)
    assert set(summary.cells) == {
        ("sgd", "in", "speaker"),
        ("sgd", "out", "listener"),
        ("light", "in", "speaker"),
    }


def test_broken_sequence_names_tick():
    records = [
        make_record(0, 0.0, "idle"),
        make_record(1, 0.1, "acknowledged", rt=1.0, in_view=True, role="listener"),
    ]
    trace = Trace(meta=make_meta(), records=tuple(records))
    for each in as_tuple_and_as_records(trace):
        with pytest.raises(TraceIntegrityError, match="^tick 1: illegal session transition idle -> acknowledged$"):
            extract_metrics([each])


@pytest.mark.parametrize(
    "method,records,message",
    [
        ("light_audio", (make_record(0, 0.0, "waiting"),), "tick 0: unknown session state 'waiting'"),
        ("light_audio", (make_record(0, 0.0, "signaled", in_view=True),), "tick 0: signaled frame lacks view/role"),
        ("light_audio", (make_record(0, 0.0, "signaled", in_view=True, role="listener"),
                         make_record(1, 0.1, "missed", role="listener")), "tick 1: terminal frame lacks view/role"),
        # The meta line of an unknown method is rejected where it is built, so no trace of one reaches the scan.
        ("lightaudio", (make_record(0, 0.0),), "method='lightaudio' is not a valid Method"),
    ],
    ids=["unknown-state", "signaled-without-role", "terminal-without-view", "unknown-method"],
)
def test_scan_rejection_messages(method, records, message):
    pattern = "^" + re.escape(message) + "$"
    if method not in [m.value for m in Method]:
        with pytest.raises(TraceIntegrityError, match=pattern):
            make_meta(method=method)
        return
    for each in as_tuple_and_as_records(Trace(meta=make_meta(method=method), records=records)):
        with pytest.raises(TraceIntegrityError, match=pattern):
            extract_metrics([each])


def test_acknowledged_without_rt_rejected():
    records = [
        make_record(0, 0.0, "signaled", in_view=True, role="listener"),
        make_record(1, 0.1, "acknowledged", rt=None, in_view=True, role="listener"),
    ]
    trace = Trace(meta=make_meta(), records=tuple(records))
    for each in as_tuple_and_as_records(trace):
        with pytest.raises(TraceIntegrityError, match="^tick 1: acknowledged frame lacks a response time$"):
            extract_metrics([each])


def test_trace_without_meta_rejected():
    # Every way to build a Trace rejects one without a TraceMeta, naming the field, so no scan meets one.
    trace = Trace(meta=make_meta(), records=(make_record(0, 0.0),))
    for build in (lambda: Trace(meta=None, records=trace.records), lambda: Trace(None, ()),
                  lambda: Trace._make((None, ())), lambda: trace._replace(meta=None)):
        with pytest.raises(TraceIntegrityError, match="^meta=None is not a valid TraceMeta$"):
            build()


def test_mean_over_multiple_sessions():
    traces = [session_trace(rt=1.0), session_trace(rt=3.0), session_trace(outcome="missed")]
    cell = extract_metrics(traces).cells[("light_audio", "out", "listener")]
    assert cell.n == 3
    assert cell.missed == 1
    assert cell.mean_rt == 2.0
    assert cell.min_rt == 1.0
    assert cell.max_rt == 3.0


def test_csv_shape():
    csv = metrics_to_csv(extract_metrics([session_trace()]))
    lines = csv.splitlines()
    assert lines[0] == "method,view,role,n,mean_rt,min_rt,max_rt,missed"
    assert lines[1] == "light_audio,out,listener,1,2,2,2,0"


def test_csv_nan_for_empty_rt():
    csv = metrics_to_csv(extract_metrics([session_trace(outcome="missed")]))
    assert csv.splitlines()[1] == "light_audio,out,listener,1,nan,nan,nan,1"


def test_empty_input_empty_summary():
    summary = extract_metrics([])
    assert summary.cells == {}
    assert metrics_to_csv(summary).splitlines() == ["method,view,role,n,mean_rt,min_rt,max_rt,missed"]


def test_trace_cut_inside_a_session_names_its_signal_tick():
    trace = run_scenario(default_script(Method.LIGHT, Role.LISTENER), GazeAgentModel(), GuidanceConfig(),
                         dt=0.05, seed=1)
    signal = next(r.tick for r in trace.records if r.state == "signaled")
    cut = Trace(meta=trace.meta, records=trace.records[: signal + 3])
    for each in as_tuple_and_as_records(cut):
        with pytest.raises(TraceIntegrityError, match=f"^tick {signal}: .*still open at end of trace$"):
            extract_metrics([each])


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
@pytest.mark.parametrize("role", list(Role), ids=lambda r: r.value)
def test_metrics_of_tuple_records_equal_those_of_their_runs(method, role):
    # A tuple is built into runs before the scan: it must read as the Records it builds.
    trace = run_scenario(default_script(method, role), GazeAgentModel(), GuidanceConfig(), dt=0.05, seed=2)
    assert len(trace.records.heads) < len(trace.records)
    as_tuple, as_records = as_tuple_and_as_records(trace)
    assert extract_metrics([as_tuple]) == extract_metrics([as_records]) == extract_metrics([trace])


@pytest.mark.parametrize("field", ["in_view", "role"])
def test_a_signaled_head_inside_a_session_without_view_or_role_names_its_own_tick(field):
    # The head at tick 3 starts a run of its own within the session signaled at tick 1.
    records = [
        make_record(0, 0.0, "idle"),
        make_record(1, 0.1, "signaled", in_view=True, role="listener"),
        make_record(2, 0.2, "signaled", in_view=True, role="listener"),
        make_record(3, 0.3, "signaled", **{"in_view": True, "role": "listener", field: None}),
    ]
    for each in as_tuple_and_as_records(Trace(meta=make_meta(), records=tuple(records))):
        with pytest.raises(TraceIntegrityError, match="^tick 3: signaled frame lacks view/role$"):
            extract_metrics([each])


def test_acknowledged_heads_of_another_view_after_the_entry_add_no_outcome():
    records = [
        make_record(0, 0.0, "idle"),
        make_record(1, 0.1, "signaled", in_view=False, role="listener"),
        make_record(2, 0.2, "acknowledged", rt=0.1, in_view=False, role="listener"),
        make_record(3, 0.3, "acknowledged", rt=0.2, in_view=True, role="listener"),
        make_record(4, 0.4, "acknowledged", rt=0.3, in_view=True, role="speaker"),
    ]
    for each in as_tuple_and_as_records(Trace(meta=make_meta(), records=tuple(records))):
        assert len(each.records.heads) == 5
        summary = extract_metrics([each])
        assert list(summary.cells) == [("light_audio", "out", "listener")]
        assert summary.cells[("light_audio", "out", "listener")].n == 1
        assert summary.cells[("light_audio", "out", "listener")].mean_rt == 0.1


@lru_cache(maxsize=None)
def _real_trace(which):
    """A run_scenario trace at 20 Hz: a default script's, or the dense listener script's, whose sessions
    signal half a second into each turn and two of which run into the miss timeout."""
    if which == "dense":
        return run_scenario(dense_listener_script(Method.LIGHT_AUDIO), DENSE, GuidanceConfig(), dt=0.05, seed=3)
    method, role = which
    return run_scenario(default_script(method, role), GazeAgentModel(), GuidanceConfig(), dt=0.05, seed=3)


_STATES = ("idle", "signaled", "acknowledged", "missed", "waiting")  # the four session tags and an unknown one


@st.composite
def _corrupted_traces(draw):
    """A real trace with drawn heads corrupted, on the head's tick alone or on its whole run: its state swapped
    for another tag or an unknown one, its view or role unset, an acknowledged head's rt dropped; and perhaps
    cut inside a session."""
    trace = _real_trace(draw(st.sampled_from(["dense", (Method.LIGHT, Role.LISTENER), (Method.SGD, Role.SPEAKER)])))
    records, heads = list(trace.records), trace.records.heads
    ends = [head.tick for head in heads[1:]] + [len(records)]
    for _ in range(draw(st.integers(0, 3))):
        change = draw(st.sampled_from(["state", "in_view", "role", "rt"]))
        i = draw(st.sampled_from([j for j, head in enumerate(heads) if change != "rt" or head.state == "acknowledged"]))
        value = draw(st.sampled_from(_STATES)) if change == "state" else None
        for k in range(heads[i].tick, ends[i] if draw(st.booleans()) else heads[i].tick + 1):
            records[k] = records[k]._replace(**{change: value})
    if draw(st.booleans()):
        inside = [k for head, end in zip(heads, ends) if head.state == "signaled" for k in range(head.tick, end)]
        records = records[:draw(st.sampled_from(inside)) + 1]
    return Trace(trace.meta, records)


def _scanned(scan, trace):
    try:
        return scan(trace)
    except TraceIntegrityError as exc:
        return f"TraceIntegrityError: {exc}"


@settings(max_examples=150, deadline=None)
@given(trace=_corrupted_traces())
def test_the_run_scan_reads_every_trace_as_the_head_by_head_scan(trace):
    # reference_scan checks each head in full; _scan_trace each run of equal (state, view, role) at its first head.
    assert _scanned(_scan_trace, trace) == _scanned(reference_scan, trace)
