import re

import pytest

from _rand import make_meta, make_record
from turncue.audio import Role
from turncue.config import GuidanceConfig
from turncue.errors import TraceIntegrityError
from turncue.metrics import extract_metrics, metrics_to_csv
from turncue.scenario import GazeAgentModel, Method, default_script, run_scenario
from turncue.trace import Records, Trace


def as_tuple_and_as_records(trace):
    """trace with its records in a tuple and in a Records: extract_metrics must treat the two alike."""
    return [trace._replace(records=tuple(trace.records)), trace._replace(records=Records(trace.records))]


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
    trace = Trace(meta=None, records=(make_record(0, 0.0),))
    with pytest.raises(TraceIntegrityError, match="meta"):
        extract_metrics([trace])


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
