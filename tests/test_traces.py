import io
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tlcausal.dtmc import build_dtmc, export_text
from tlcausal.errors import DataError
from tlcausal.pipeline import load_data
from tlcausal.traces import (EventList, Trace, TraceSet, discretize,
                             events_of, load_events, write_events)


class TestWideCsv:
    def test_basic(self):
        data = load_data([io.StringIO("time,a,b\n0,1,0\n1,0,1\n")], "wide-csv",
                         None)
        trace = data.traces[0]
        assert trace.variables == ("a", "b")
        assert trace.column("a").tolist() == [True, False]
        assert trace.column("b").tolist() == [False, True]

    def test_bad_cell(self):
        with pytest.raises(DataError, match="line 3"):
            load_data([io.StringIO("time,a\n0,1\n1,2\n")], "wide-csv", None)

    def test_tick_order_enforced(self):
        with pytest.raises(DataError, match="expected tick"):
            load_data([io.StringIO("time,a\n0,1\n2,1\n")], "wide-csv", None)

    def test_crlf(self):
        data = load_data([io.StringIO("time,a\r\n0,1\r\n")], "wide-csv", None)
        assert data.traces[0].length == 1

    @pytest.mark.parametrize("row, message", [
        ("1,0", "expected 3 cells"), ("2,0,1", "expected tick 1"),
        ("1,0,2", "cell must be 0 or 1")])
    def test_error_names_the_line_past_blank_lines(self, row, message):
        text = f"time,a,b\n\n0,1,0\n\n{row}\n"
        with pytest.raises(DataError, match=f"line 5: {message}"):
            load_data([io.StringIO(text)], "wide-csv", None)


class TestEventCsv:
    def test_densify(self):
        data = load_data([io.StringIO("0,a\n5,a\n2,e\n")], "event-csv", 10)
        trace = data.traces[0]
        assert trace.length == 10
        assert set(np.flatnonzero(trace.column("a"))) == {0, 5}
        assert set(np.flatnonzero(trace.column("e"))) == {2}

    def test_time_out_of_range(self):
        with pytest.raises(DataError, match="out of range"):
            load_data([io.StringIO("12,a\n")], "event-csv", 10)

    def test_duplicate(self):
        with pytest.raises(DataError, match="duplicate"):
            load_data([io.StringIO("3,a\n3,a\n")], "event-csv", 10)

    def test_malformed(self):
        with pytest.raises(DataError, match="line 2"):
            load_data([io.StringIO("1,a\nnope\n")], "event-csv", 10)

    def test_time_must_be_decimal(self):
        # "²" passes str.isdigit(), but int() rejects it
        with pytest.raises(DataError, match="line 1"):
            load_data([io.StringIO("²,a\n")], "event-csv", None)

    def test_default_horizon(self):
        data = load_data([io.StringIO("7,a\n")], "event-csv", None)
        assert data.traces[0].length == 8

    def test_declared_variables_cover_silent_ones(self):
        trace = load_events(io.StringIO("0,a\n"), 3).to_trace(("a", "quiet"))
        assert trace.variables == ("a", "quiet")
        assert not trace.column("quiet").any()

    def test_serialization_roundtrip(self):
        text = "0,a\n2,e\n5,a\n"
        data = load_data([io.StringIO(text)], "event-csv", 10)
        events = events_of(data.traces[0])
        sink = io.StringIO()
        write_events(EventList(events.records, events.horizon), sink)
        assert sink.getvalue() == text


@st.composite
def _traces(draw):
    """A trace of 1-4 variables over 1-30 ticks."""
    names = tuple(f"v{i}" for i in range(draw(st.integers(1, 4))))
    length = draw(st.integers(1, 30))
    cells = draw(st.lists(st.booleans(), min_size=len(names) * length,
                          max_size=len(names) * length))
    return Trace(names, np.array(cells).reshape(len(names), length))


class TestWriters:
    @pytest.fixture(params=["events", "model"])
    def write(self, request):
        trace = Trace(("a", "b"), np.array([[1, 0, 1], [0, 1, 1]], bool))
        if request.param == "events":
            return lambda sink: write_events(events_of(trace), sink)
        return lambda sink: export_text(build_dtmc(TraceSet((trace,))), sink)

    def test_path_gets_the_stream_text(self, tmp_path, write):
        sink = io.StringIO()
        write(sink)
        path = tmp_path / "missing" / "dir" / "out.txt"
        write(path)
        assert path.read_bytes() == sink.getvalue().encode("utf-8")
        write(str(path))
        assert path.read_bytes() == sink.getvalue().encode("utf-8")

    def test_unwritable_path_is_a_data_error(self, tmp_path, write):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(DataError, match=re.escape(f"cannot write {blocker}")):
            write(blocker / "out.txt")


class TestEventProperties:
    @settings(max_examples=100, deadline=None)
    @given(trace=_traces())
    def test_roundtrip_through_event_csv(self, trace):
        assume(trace.values.any())
        sink = io.StringIO()
        write_events(events_of(trace), sink)
        events = load_events(io.StringIO(sink.getvalue()), trace.length)
        back = events.to_trace(trace.variables)
        assert np.array_equal(back.values, trace.values)

    @settings(max_examples=200, deadline=None)
    @given(records=st.lists(st.tuples(st.integers(-2, 12),
                                      st.sampled_from("abc")), max_size=8),
           horizon=st.integers(1, 10))
    def test_from_records_accepts_exactly_valid_lists(self, records,
                                                      horizon):
        valid = (all(0 <= t < horizon for t, _ in records)
                 and len(set(records)) == len(records))
        if not valid:
            with pytest.raises(DataError):
                EventList.from_records(records, horizon)
            return
        events = EventList.from_records(records, horizon)
        assert events.records == tuple(sorted(records))
        assert events.horizon == horizon


class TestTraceSet:
    def test_variable_mismatch(self):
        t1 = Trace(("a",), np.zeros((1, 3), bool))
        t2 = Trace(("b",), np.zeros((1, 3), bool))
        with pytest.raises(DataError):
            TraceSet((t1, t2))

    def test_empty(self):
        with pytest.raises(DataError):
            TraceSet(())


class TestDiscretize:
    def test_single_series(self):
        trace = discretize(np.array([[-1.0, 0.0, 1.0]]), 0.5, -0.5, ["v"])
        assert trace.variables == ("v_up", "v_down")
        assert trace.column("v_up").tolist() == [False, False, True]
        assert trace.column("v_down").tolist() == [True, False, False]

    def test_all_zero(self):
        trace = discretize(np.zeros((1, 4)), 0.5, -0.5, ["v"])
        assert not trace.values.any()

    def test_threshold_order(self):
        with pytest.raises(DataError, match="theta_down < theta_up"):
            discretize(np.zeros((1, 4)), 0.0, 0.0)

    def test_non_finite(self):
        with pytest.raises(DataError, match="non-finite"):
            discretize(np.array([[np.nan, 0.0]]), 0.5, -0.5)

    def test_up_down_never_together(self):
        rng = np.random.default_rng(5)
        trace = discretize(rng.normal(size=(4, 60)), 0.3, -0.3)
        for i in range(4):
            up = trace.values[2 * i]
            down = trace.values[2 * i + 1]
            assert not (up & down).any()

    def test_variable_order_preserved(self):
        trace = discretize(np.zeros((2, 3)), 0.5, -0.5, ["g2", "g1"])
        assert trace.variables == ("g2_up", "g2_down", "g1_up", "g1_down")
