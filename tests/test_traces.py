import io
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from tlcausal import traces
from tlcausal.dtmc import build_dtmc, export_text, load_text
from tlcausal.errors import DataError
from tlcausal.pipeline import load_data, read_hypotheses_tsv
from tlcausal.synthgen import GenConfig, StructureSpec, generate
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

    @pytest.mark.parametrize("header", ["time,a,,b", "time,a, ,b",
                                        "time,a,b,"])
    def test_empty_header_cell_is_malformed(self, header):
        with pytest.raises(DataError, match=re.escape(
                f"malformed header at line 1: {header!r}")):
            load_data([io.StringIO(f"{header}\n0,1,0,1\n")], "wide-csv",
                      None)


# names holding a control character (Unicode category Cc): a tab, NUL, the
# ASCII controls that are not whitespace, DEL, and C1 controls
_CONTROL_NAMES = ["a\tb", "a\x00", "\x01", "a\x1bb", "a\x7fb", "a\x9fb"]


class TestControlCharacterNames:
    """No loader takes a variable name with a control character in it: a
    tab would add a cell to its rows in hypotheses.tsv."""

    @pytest.mark.parametrize("name", _CONTROL_NAMES)
    @pytest.mark.parametrize("as_bytes", [False, True])
    def test_event_csv_names_the_line(self, name, as_bytes):
        text = f"0,a\n1,{name}\n2,a\n"
        if name.isascii():  # the byte parse takes no such text
            assert traces._parse_clean(text.encode()) is None
        message = f"malformed row at line 2: {f'1,{name}'!r}"
        assert _outcome(_load, text, None, as_bytes) == message
        assert _outcome(oracles.load_events, text, None) == message

    @pytest.mark.parametrize("name", _CONTROL_NAMES)
    def test_wide_csv_header_names_its_line(self, name):
        text = f"\ntime,a,{name}\n0,1,0\n"
        with pytest.raises(DataError, match=re.escape(
                f"malformed header at line 2: {f'time,a,{name}'!r}")):
            load_data([io.StringIO(text)], "wide-csv", None)

    def test_padding_and_quotes_stay_allowed(self):
        # a control character that strip() removes is not in the name, and
        # `"` waits for a quoted-atom grammar
        events = load_events(io.StringIO('0,a\t\n1,"b"\n'))
        assert events.names == ("a", '"b"')
        assert traces._parse_clean(b'0,"b"\n') is not None
        data = load_data([io.StringIO('time,a\t,"b"\n0,1,0\n')],
                         "wide-csv", None)
        assert data.variables == ("a", '"b"')


class TestEventCsv:
    @pytest.mark.parametrize("time", ["\u0661", "\uff13", "1\u0662"],
                             ids=["arabic-indic", "full-width", "mixed"])
    @pytest.mark.parametrize("as_bytes", [False, True])
    def test_time_digits_are_ascii(self, time, as_bytes):
        # as wide-csv ticks and hypothesis-table windows are
        text = f"0,a\n{time},b\n2,a\n"
        message = f"malformed row at line 2: {f'{time},b'!r}"
        assert _outcome(_load, text, None, as_bytes) == message
        assert _outcome(oracles.load_events, text, None) == message

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
        write_events(oracles.events_from_records(events.records, events.horizon),
                     sink)
        assert sink.getvalue() == text

    @pytest.mark.parametrize("text, line", [
        ("9223372036854775808,a\n", 1), ("0,a\n9223372036854775808,b\n", 2),
        ("0,a\n 99999999999999999999 , b\n", 2)])
    def test_time_beyond_int64_names_its_line(self, text, line):
        message = f"event time above 2^63 - 1 at line {line}"
        with pytest.raises(DataError, match=re.escape(message)):
            load_events(io.StringIO(text))

    def test_largest_int64_time_is_read(self):
        events = load_events(io.StringIO("9223372036854775807,a\n"),
                             2 ** 63)
        assert events.records == ((2 ** 63 - 1, "a"),)
        with pytest.raises(DataError, match="must fit in int64"):
            oracles.events_from_records([(2 ** 63, "a")], 2 ** 64)


# Whitespace other than LF, \x1c-\x1f (whitespace to str), a non-ASCII
# character, and the control characters that are not whitespace.
_FORBIDDEN = "\t\v\f\r \x1c\x1d\x1e\x1f\x80\x00\x01\x1b\x7f"
# Line-by-line triggers: each makes load_events leave the whole-text path.
_DIRTY = ["0,a\r\n", " 3,a\n", "3 ,a\n", "3, a\n", "3,a\t\n", "+3,a\n",
          "3_0,a\n", "²,a\n", "٣,a\n", "3,é\n", "3,a\x1f\n", "3,a\x0b1,b\n",
          "\n3,a\n", "3,a\n\n", "3,a\n\n4,a\n", "3\n", "3,a,b\n", ",a\n",
          "1234567890123456789,a\n", "", "1a,b\n", "1,a\n,b\n",
          "0,a\n2,b\n1,\n", "3, \n",  # an empty name
          "1\n2,a,b\n",  # as many commas as lines, none on the first
          # each byte the clean parse forbids, inside a time and a name
          *(f"3{c}0,a\n" for c in _FORBIDDEN),
          *(f"30,a{c}b\n" for c in _FORBIDDEN)]


class TestWholeTextPath:
    @pytest.mark.parametrize("text", ["3,a\n", "3,a",
                                      "123456789012345678,a\n"])
    def test_clean_text_is_read_whole(self, text):
        assert oracles.is_clean(text)

    @pytest.mark.parametrize("text", _DIRTY)
    def test_other_text_goes_line_by_line(self, text):
        assert not oracles.is_clean(text)


@pytest.mark.parametrize("text", _DIRTY + ["3,a\n", "3,a",
                                          "123456789012345678,a\n"])
def test_loader_rule_is_the_whole_text_rule(text):
    parsed = traces._parse_clean(text.encode())
    assert oracles.is_clean(text) == (parsed is not None)


@pytest.mark.parametrize("line", ["+2,c", " 2,c", "2 ,c", ",c", "c", "2,c,d",
                                  "", "2,\x1fc", "1234567890123456789,c",
                                  "2,"])
@pytest.mark.parametrize("block", [1, 5])
def test_unclean_line_at_a_block_start(line, block):
    # "0,a\n1,b\n" fills the first block of 5 bytes and more; with 1 byte
    # blocks, each line is a block
    text = f"0,a\n1,b\n{line}\n3,d\n"
    with mock.patch.object(traces, "_BLOCK", block):
        assert traces._parse_clean(text.encode()) is None
        assert _outcome(_load, text, None) == \
            _outcome(oracles.load_events, text, None)


# Pieces of event-csv rows, clean and not: every line-by-line trigger above
_CLEAN_TIMES = st.one_of(st.integers(0, 12).map(str),
                         st.integers(10 ** 16, 10 ** 18 - 1).map(str))
_DECIMAL_TIMES = st.one_of(_CLEAN_TIMES,
                           st.integers(10 ** 17, 10 ** 20).map(str),
                           st.integers(2 ** 63 - 2, 2 ** 63 + 2).map(str))
_TIMES = st.one_of(
    _DECIMAL_TIMES,
    st.sampled_from(["+3", " 3", "3 ", "3_0", "²", "٣", "", "-1", "0x3",
                     "03"]))
# prefixes of each other, ending in "!" (the lowest byte a clean
# name holds), longer than the 8 bytes of one name-key word, and longer
# than two words with the same first 16 bytes
_CLEAN_NAMES = st.sampled_from(["a", "b", "B", "b10", "b2", "n1", "n10",
                                "a!", "!", "abcdefgh", "abcdefgh!",
                                "abcdefghij", "abcdefghik",
                                "abcdefghijklmnop", "abcdefghijklmnopq",
                                "abcdefghijklmnop!", "abcdefghijklmnopqr"])
_NAMES = st.one_of(_CLEAN_NAMES,
                   st.sampled_from(["", " ", " a", "a ", "a\t", "\x1fa",
                                    "é", "a b", "a\tb", "a\x00", "\x01",
                                    "a\x7fb", "a\x85b", "a\x9fb"]))
_ROWS = st.one_of(
    st.tuples(_TIMES, _NAMES).map(",".join),
    st.sampled_from(["", " ", "\t", "\x1f", "3", "3,a,b", ",", "a,3"]))
_ENDINGS = st.sampled_from(["\n", "\r\n", "\r", "\x1c", "\n\n"])


@st.composite
def _event_texts(draw):
    """Event-csv text of one of four kinds: clean enough for the whole-text
    path; laid out as clean but with times of any length; clean times but
    any names and line ends; anything."""
    kind = draw(st.integers(0, 3))
    times = _DECIMAL_TIMES if kind == 1 else _CLEAN_TIMES
    names = _NAMES if kind == 2 else _CLEAN_NAMES
    row = _ROWS if kind == 3 else st.tuples(times, names).map(",".join)
    rows = draw(st.lists(row, min_size=0 if kind == 3 else 1, max_size=8))
    ending = _ENDINGS if kind >= 2 else st.just("\n")
    endings = [draw(ending) for _ in rows]
    if rows and draw(st.booleans()):
        endings[-1] = ""
    return "".join(row + end for row, end in zip(rows, endings))


def _outcome(load, text, horizon, as_bytes=False):
    """What a loader makes of ``text``, read from a text stream or a UTF-8
    byte stream: its records and horizon, or the message of its data
    error."""
    source = io.BytesIO(text.encode("utf-8")) if as_bytes else \
        io.StringIO(text)
    try:
        return load(source, horizon)
    except DataError as exc:
        return str(exc)


def _load(source, horizon):
    events = load_events(source, horizon)
    return events.records, events.horizon


def _loop_time(line):
    """The time the line loop reads on ``line`` alone, or -1 for none."""
    out = _outcome(oracles.load_events, line, None)
    return out[0][0][0] if isinstance(out, tuple) else -1


class TestLoaderParity:
    @settings(max_examples=600, deadline=None)
    @given(text=_event_texts(), horizon=st.none() | st.integers(1, 14),
           block=st.sampled_from([1, 5, traces._BLOCK]),
           as_bytes=st.booleans())
    def test_same_records_or_message_as_line_loop(self, text, horizon, block,
                                                  as_bytes):
        want = _outcome(oracles.load_events, text, horizon)
        lines = text.splitlines()
        # int64 holds no time of 2^63 or more: the first row the line
        # loop reads as one is refused, unless an earlier row is malformed
        huge = next((n for n, line in enumerate(lines, start=1)
                     if _loop_time(line) >= 2 ** 63), None)
        if huge is not None:
            before = _outcome(oracles.load_events,
                              "\n".join(lines[:huge - 1]), None)
            want = before if str(before).startswith("malformed") else (
                f"event time above 2^63 - 1 at line {huge}: "
                f"{lines[huge - 1]!r}")
        clean = oracles.is_clean(text)
        with mock.patch.object(traces, "_BLOCK", block):
            assert clean == (traces._parse_clean(text.encode()) is not None)
            assert _outcome(_load, text, horizon, as_bytes) == want
            if clean and isinstance(want, tuple):
                _assert_first_appearance(text, horizon)

    @pytest.mark.parametrize("text", [
        "0,n1\n0,n10\n1,n10\n1,n1\n", "0,a!\n0,a\n1,a\n",
        "2,abcdefgh!\n2,abcdefgh\n", "123456789012345678,a\n1,b\n",
        "5,a\n7,b", "4,a"],
        ids=["prefix-names", "bang-ending", "bang-ending-long",
             "18-digit-time", "no-final-lf", "single-event"])
    @pytest.mark.parametrize("block", [1, traces._BLOCK])
    def test_clean_cases_match_line_loop(self, text, block):
        assert oracles.is_clean(text)
        want = _outcome(oracles.load_events, text, None)
        with mock.patch.object(traces, "_BLOCK", block):
            for as_bytes in (False, True):
                assert _outcome(_load, text, None, as_bytes) == want
            _assert_first_appearance(text, None)

    @pytest.mark.parametrize("text, message", [
        ("3,", "line 1: '3,'"), ("3,\n0,\n", "line 1: '3,'"),
        ("0,a\n1,\n2,b\n3,a\n", "line 2: '1,'"),
        ("0,a\n1, \r\n", "line 2: '1, '")],
        ids=["empty-name", "empty-name-twice", "empty-name-inside",
             "blank-name"])
    @pytest.mark.parametrize("block", [1, traces._BLOCK])
    def test_empty_name_is_malformed(self, text, message, block):
        # before, "1," read as an event of a variable named "", and infer
        # wrote rows with an empty cause or effect cell
        assert not oracles.is_clean(text)
        message = f"malformed row at {message}"
        with mock.patch.object(traces, "_BLOCK", block):
            assert traces._parse_clean(text.encode()) is None
            for as_bytes in (False, True):
                assert _outcome(_load, text, None, as_bytes) == message
        assert _outcome(oracles.load_events, text, None) == message

    @pytest.mark.parametrize("text, horizon, message", [
        ("3,a\n3,a\n", None, "duplicate event: (3, 'a')"),
        ("3,a\n1,b\n", 2, "event time out of range: (3, a) with horizon 2"),
        ("0,a\n2,b", 2, "event time out of range: (2, b) with horizon 2")])
    def test_clean_text_keeps_from_arrays_messages(self, text, horizon,
                                                   message):
        assert oracles.is_clean(text)
        assert _outcome(_load, text, horizon) == message


# uint64 values at the edges of a word, so that rows of 0-60 draws repeat
_WORDS = st.sampled_from([0, 1, 2, 2 ** 63, 2 ** 64 - 1])


@settings(max_examples=300, deadline=None)
@given(width=st.integers(1, 3), data=st.data())
def test_first_seen_matches_dict_oracle(width, data):
    rows = data.draw(st.lists(st.lists(_WORDS, min_size=width,
                                       max_size=width), max_size=60))
    keys = np.array(rows, np.uint64).reshape(len(rows), width)
    got = traces._first_seen(keys)
    assert [part.tolist() for part in got] == oracles.first_seen(rows)


def test_one_long_name_among_short_ones_stays_small():
    # keyed at the longest name's width, the 29,000-odd rows of the long
    # name's 256 KB block would take about 2 GB of name keys
    long = "n" * (1 << 16)
    lines = [f"{123456 + k},a" for k in range(30_000)]
    lines[15_000] = f"7,{long}"
    data = ("\n".join(lines) + "\n").encode()
    assert oracles.is_clean(data.decode())
    tracemalloc.start()
    try:
        events = load_events(io.BytesIO(data))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert events.names == ("a", long) and len(events) == 30_000
    assert events.records[0] == (7, long)
    assert peak < 32 * len(data)


def _assert_first_appearance(text, horizon):
    """A clean text's names are listed in order of first appearance."""
    names = [line.split(",")[1] for line in text.splitlines()]
    events = load_events(io.StringIO(text), horizon)
    assert events.names == tuple(dict.fromkeys(names))


class TestNameOrder:
    """Names whose first-appearance order (b10, b2, B, a) is not their
    ``str`` order (B, a, b10, b2), all at one tick."""

    NAMES = ("b10", "b2", "B", "a")
    SORTED = ((0, "B"), (0, "a"), (0, "b10"), (0, "b2"))
    TEXT = "0,B\n0,a\n0,b10\n0,b2\n"

    @pytest.fixture(params=["load_events", "events_of", "generate"])
    def events(self, request):
        if request.param == "load_events":
            text = "".join(f"0,{v}\n" for v in self.NAMES)
            return load_events(io.StringIO(text))
        if request.param == "events_of":
            return events_of(Trace(self.NAMES, np.ones((4, 1), bool)))
        events, _ = generate(GenConfig(StructureSpec(self.NAMES, ()), 1.0,
                                       target_firings=4, seed=1))
        return events

    def test_records_sorted_by_name(self, events):
        assert events.records == self.SORTED
        assert events == oracles.events_from_records(reversed(self.SORTED), 1)
        assert events.variables() == ("B", "a", "b10", "b2")

    @settings(max_examples=200, deadline=None)
    @given(records=st.lists(st.tuples(st.integers(0, 9),
                                      st.sampled_from(NAMES + ("v0",))),
                            unique=True, max_size=20),
           unused=st.lists(st.sampled_from(["u", "w", "B0"]), unique=True))
    def test_variables_in_first_appearance(self, records, unused):
        # records in any order, and names that never occur listed first
        events = oracles.events_from_records(records, 10)
        events = EventList.from_arrays(events.times, events.ids + len(unused),
                                       (*unused, *events.names), 10)
        ids, first = np.unique(events.ids, return_index=True)
        want = tuple(events.names[i] for i in ids[np.argsort(first)])
        assert events.variables() == want

    def test_written_in_name_order(self, events):
        sink = io.StringIO()
        write_events(events, sink)
        assert sink.getvalue() == self.TEXT


@st.composite
def _traces(draw):
    """A trace of 1-4 variables over 1-30 ticks, named so that their order
    is often not ``str`` order."""
    names = tuple(draw(st.lists(st.sampled_from(["b10", "b2", "B", "a", "v0"]),
                                min_size=1, max_size=4, unique=True)))
    length = draw(st.integers(1, 30))
    cells = draw(st.lists(st.booleans(), min_size=len(names) * length,
                          max_size=len(names) * length))
    return Trace(names, np.array(cells).reshape(len(names), length))


class TestWriters:
    @pytest.fixture(params=["events", "model", "chunks"])
    def write(self, request):
        trace = Trace(("a", "b"), np.array([[1, 0, 1], [0, 1, 1]], bool))
        if request.param == "events":
            return lambda sink: write_events(events_of(trace), sink)
        if request.param == "chunks":
            return lambda sink: traces._write_text(
                sink, iter(["0,a\n", "", "1,caf\u00e9\n2,", "b\n"]))
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


class TestChunkedWriting:
    """``write_events`` in blocks of ``_EVENTS`` lines against the joined
    text of ``oracles.events_text``."""

    NAMES = ["a", "b10", "B", "caf\u00e9", "\u03b1\u03b2", "\U0001f600"]

    @settings(max_examples=60, deadline=None)
    @given(records=st.sets(st.tuples(st.integers(0, 30),
                                     st.sampled_from(NAMES)), max_size=40))
    @example(records=set())
    def test_write_events_matches_oracle(self, records):
        events = (oracles.events_from_records(records, 31) if records
                  else EventList.from_arrays([], [], ("a",), 31))
        want = oracles.events_text(events)
        for rows in (1, 7, traces._EVENTS):
            with mock.patch.object(traces, "_EVENTS", rows):
                sink = io.StringIO()
                write_events(events, sink)
                assert sink.getvalue() == want
                with tempfile.TemporaryDirectory() as tmp:
                    path = Path(tmp) / "events.csv"
                    write_events(events, path)
                    assert path.read_bytes() == want.encode("utf-8")


class TestReaders:
    LATIN = b"0,a\n1,caf\xe9\n"  # Latin-1, not UTF-8

    @pytest.fixture(params=["events", "model", "hypotheses"])
    def read(self, request):
        return {"events": load_events, "model": load_text,
                "hypotheses": read_hypotheses_tsv}[request.param]

    def test_not_utf8_is_a_data_error(self, tmp_path, read):
        path = tmp_path / "latin.csv"
        path.write_bytes(self.LATIN)
        for source in (path, str(path)):
            with pytest.raises(DataError, match=re.escape(
                    f"cannot read {path}: not valid UTF-8 (byte 9)")):
                read(source)
        with pytest.raises(DataError, match="not valid UTF-8"):
            read(io.BytesIO(self.LATIN))

    def test_missing_path_is_a_data_error(self, tmp_path, read):
        with pytest.raises(DataError, match="cannot read"):
            read(tmp_path / "missing.csv")

    def test_bytes_and_text_read_alike(self, tmp_path):
        text = "0,a\r\n2,caf\u00e9\n"
        path = tmp_path / "events.csv"
        path.write_bytes(text.encode("utf-8"))
        assert traces._read_text(path) == text
        assert traces._read_text(io.BytesIO(text.encode("utf-8"))) == text
        assert traces._read_text(io.StringIO(text)) == text


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

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), trace=_traces(), silent=st.integers(1, 3))
    def test_densify_with_silent_declared_variables(self, data, trace,
                                                    silent):
        declared = data.draw(st.permutations(
            trace.variables + tuple(f"quiet{i}" for i in range(silent))))
        back = events_of(trace).to_trace(declared)
        assert back.variables == tuple(declared)
        for v in declared:
            want = trace.column(v) if v in trace.variables else \
                np.zeros(trace.length, bool)
            assert np.array_equal(back.column(v), want)

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
                oracles.events_from_records(records, horizon)
            return
        events = oracles.events_from_records(records, horizon)
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
