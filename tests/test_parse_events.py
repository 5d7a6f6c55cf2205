"""parse_events against the row-at-a-time reference loop, and what it holds in memory.

``parse_events`` reads its input in chunks of ``lob.CHUNK`` csv rows and
converts a column at a time; the reference in ``helpers`` applies every
rule to one ``csv.reader`` row at a time.  Both must give the same arrays,
counts and horizon, or raise the same exception with the same message.
"""
import csv
import io
import os
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_reaped, count_forks, parse_events_reference, set_cpus, time_limit
from stefansim import lob
from stefansim.errors import StefansimError
from stefansim.lob import parse_events

TOUCH = [(0.0, 1_000_000, 1_000_100), (2.0, 1_000_050, 1_000_150), (1.0, 999_900, 1_000_000)]

#: per field of each format: the values a row draws from, the well-formed first
FIELDS = {
    "normalized": [
        None,                                                      # time, drawn below
        ["bid", "ask", " Bid", "ASK ", "sell", ""],
        ["limit", "cancel", "market", "LIMIT", " Market ", "trade"],
        ["0.03", "0", "1", "0.5", "1.5", "-0.25", "x", "1e400", " nan", "1_0"],
        ["10", "0.5", " 2 ", "0", "-1", " nan", "inf", "1e400", "x", "1_0"],
    ],
    "lobster": [
        None,
        ["1", "2", "3", "4", "5", " 1 ", "6", "7", "0", "x", "1.0"],
        ["11", "x", ""],
        ["100", " 50 ", "1_0", "0", "-5", " nan", "inf", "x"],
        ["999700", "1000400", "1000000", "990000", "1020000", "x", "1e400", " nan"],
        ["1", "-1", " 1", "2", "0", "x"],
    ],
}
#: a time step of a row: forward, none, backward, or a field that is not a finite time
TIME_STEPS = [0.25, 0.25, 0.0, -1.0, "x", " nan", "1e400", "1_0", "-inf"]
HEADERS = ["time,side,event_type,relative_price,size",
           " Time,SIDE ,event_type,Relative_Price,size",
           '"time","side",event_type,relative_price,size',
           "time,side,event_type,relative_price"]
BLANKS = ["", "  ", "\t", '""']
ENDS = ["\n", "\r\n", "\r"]
EXTRA = ["7", '"q,\nq"', ""]


@st.composite
def event_text(draw, fmt, plain=False):
    """An event file's text: rows of every shape the parser has a rule for.

    A ``plain`` text has no '"' and only LF line ends, so each line is a csv row.
    """
    def options(values):
        return [v for v in values if not (plain and '"' in v)]
    values = FIELDS[fmt]
    width = len(values)
    t, lines = 0.0, []
    quoting = not plain and draw(st.booleans())
    if fmt == "normalized" and draw(st.booleans()):
        lines.append(draw(st.sampled_from(options(HEADERS))))
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "header", "short", "extra"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(options(BLANKS))))
            continue
        if kind == "header":
            lines.append(draw(st.sampled_from(options(HEADERS))))
            continue
        step = draw(st.sampled_from(TIME_STEPS))
        if isinstance(step, float):
            t += step
            fields = [repr(t)]
        else:
            fields = [step]
        # most rows are well formed: the first value of each field
        fields += [draw(st.sampled_from(v[:1] * 4 + v)) for v in values[1:]]
        if kind == "short":
            fields = fields[:draw(st.integers(1, width - 1))]
        elif kind == "extra":
            fields += draw(st.lists(st.sampled_from(options(EXTRA)), min_size=1, max_size=2))
        quoted = 0
        if quoting and draw(st.booleans()):
            quoted = draw(st.integers(0, 2 ** len(fields) - 1))
        fields = [f'"{f}"' if quoted >> i & 1 else f for i, f in enumerate(fields)]
        if fmt == "normalized" and quoted & 2 and draw(st.booleans()):
            fields[1] = fields[1][:-1] + '\n"'          # a quoted newline in a label
        lines.append(",".join(fields))
    # LF, CRLF or mixed
    ends = draw(st.sampled_from([ENDS[:1]] if plain else [ENDS[:1], ENDS[1:2], ENDS]))
    ends = draw(st.lists(st.sampled_from(ends), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _outcome(parse, source, fmt, threshold):
    """``parse`` of ``source``, a text or a path, or the exception it raised."""
    if isinstance(source, str):
        source = io.StringIO(source, newline="")
    try:
        return parse(source, fmt=fmt,
                     book_reference_prices=TOUCH if fmt == "lobster" else None,
                     malformed_threshold=threshold)
    except (lob.FormatError, lob.NonMonotoneTime) as exc:
        return exc


def _assert_same(ours, theirs):
    if isinstance(theirs, Exception):
        assert type(ours) is type(theirs) and str(ours) == str(theirs)
        return
    assert not isinstance(ours, Exception), ours
    for name in ("times", "rel_prices", "sizes"):
        a, b = getattr(ours, name), getattr(theirs, name)
        assert a.dtype == b.dtype == float and a.tobytes() == b.tobytes(), name
    for name in ("sides", "event_types"):
        assert getattr(ours, name).dtype == object
        assert getattr(ours, name).tolist() == getattr(theirs, name).tolist(), name
    assert (ours.malformed_count, ours.filtered_count) == (theirs.malformed_count,
                                                          theirs.filtered_count)
    assert ours.horizon == theirs.horizon


@settings(max_examples=300)
@given(data=st.data(), fmt=st.sampled_from(["normalized", "lobster"]),
       chunk=st.sampled_from([1, 3, 7, lob.CHUNK]), threshold=st.sampled_from([0.05, 1.0]))
def test_parse_events_matches_row_loop(data, fmt, chunk, threshold):
    text = data.draw(event_text(fmt))
    theirs = _outcome(parse_events_reference, text, fmt, threshold)
    with mock.patch.object(lob, "CHUNK", chunk):
        ours = _outcome(parse_events, text, fmt, threshold)
    _assert_same(ours, theirs)
    _assert_same_from_a_file(text, fmt, chunk, threshold, ours)


def _assert_same_from_a_file(text, fmt, chunk, threshold, ours):
    """The parse of ``text`` as a file, at 2 and 3 CPUs, is ``ours``."""
    with tempfile.TemporaryDirectory() as folder, mock.patch.object(lob, "CHUNK", chunk):
        path = Path(folder) / "events.csv"
        path.write_bytes(text.encode())
        for n_cpus in (2, 3):
            with pytest.MonkeyPatch.context() as patch:
                set_cpus(patch, n_cpus)
                _assert_same(_outcome(parse_events, path, fmt, threshold), ours)


@settings(max_examples=300)
@given(data=st.data(), fmt=st.sampled_from(["normalized", "lobster"]),
       chunk=st.sampled_from([1, 3, 7]), threshold=st.sampled_from([0.05, 1.0]))
def test_a_file_cut_into_parts_matches_row_loop(data, fmt, chunk, threshold):
    # a plain text's chunks start at known offsets, so its file is cut into parts
    text = data.draw(event_text(fmt, plain=True))
    theirs = _outcome(parse_events_reference, text, fmt, threshold)
    with mock.patch.object(lob, "CHUNK", chunk):
        _assert_same(_outcome(parse_events, text, fmt, threshold), theirs)
    _assert_same_from_a_file(text, fmt, chunk, threshold, theirs)


def _rows(n):
    return "".join(f"{0.001 * i!r},{'bid' if i % 3 else 'ask'},{'limit' if i % 2 else 'cancel'},"
                   f"{(i % 97) / 97!r},{1 + i % 5}\n" for i in range(n))


def _parse_peak(path, n):
    path.write_text(_rows(n))
    tracemalloc.start()
    try:
        stream = parse_events(path)
        return tracemalloc.get_traced_memory()[1], stream.n_events
    finally:
        tracemalloc.stop()


def test_parse_memory_scales_with_the_output_not_the_text(tmp_path):
    # the output holds 3 float64 and 2 object pointers per event, 40 B; one
    # more float64 column is allowed for the copy that joins the chunks
    n = 3 * lob.CHUNK
    peak_small, events_small = _parse_peak(tmp_path / "small.csv", n)
    peak_large, events_large = _parse_peak(tmp_path / "large.csv", 4 * n)
    assert (events_small, events_large) == (n, 4 * n)
    assert peak_large - peak_small <= 3 * n * (5 + 1) * 8


def test_parse_memory_scales_with_the_output_not_the_text_in_one_process(tmp_path, monkeypatch):
    # tracemalloc sees only its own process: with one CPU it sees every chunk parsed
    set_cpus(monkeypatch, 1)
    test_parse_memory_scales_with_the_output_not_the_text(tmp_path)


@pytest.mark.parametrize("row", ["0.1,bid,limit,0.5,nan", "0.1,bid,limit,0.5,inf",
                                 "0.1,ask,market,0.5,1e400", "0.1,bid,limit,0.5, NaN "])
def test_non_finite_size_is_malformed(row):
    stream = parse_events(io.StringIO(f"{row}\n0.2,bid,limit,0.5,3\n"), malformed_threshold=1.0)
    assert stream.malformed_count == 1 and stream.sizes.tolist() == [3.0]
    messages = parse_events(io.StringIO("0.1,1,11,nan,999700,1\n0.2,1,12,inf,999700,1\n"
                                        "0.3,1,13,4,999700,1\n"), fmt="lobster",
                            book_reference_prices=TOUCH, malformed_threshold=1.0)
    assert messages.malformed_count == 2 and messages.sizes.tolist() == [4.0]


#: a field over ``csv.field_size_limit()``, quoted or plain
_LONG = "b" * (csv.field_size_limit() + 1)


@pytest.mark.parametrize("text, newline, line", [
    (f'0.1,bid,limit,0.5,1\n0.2,"{_LONG}",limit,0.5,1\n', "", 2),
    (f"0.1,bid,limit,0.5,1\n0.2,{_LONG},limit,0.5,1\n", "", 2),
    ("0.1,bid,limit,0.5,1\r0.2,bid,limit,0.5,1\n", "\n", 1),   # a lone CR inside a line
])
def test_text_csv_cannot_read_is_a_format_error(text, newline, line):
    with mock.patch.object(lob, "CHUNK", 1), pytest.raises(lob.FormatError, match=f"^line {line}: "):
        parse_events(io.StringIO(text, newline=newline), malformed_threshold=1.0)


@pytest.mark.parametrize("quote", ['"', ""])
@pytest.mark.parametrize("n_cpus", [1, 2, 3])
def test_text_csv_cannot_read_in_a_file_is_a_format_error_on_its_line(tmp_path, monkeypatch,
                                                                       quote, n_cpus):
    # one row a chunk: the long field is on line 3 of 4, in the second part of two or three,
    # unless a quote makes the file one part
    path = tmp_path / "events.csv"
    path.write_text(f"0.1,bid,limit,0.5,1\n0.2,bid,limit,0.5,1\n"
                    f"0.3,{quote}{_LONG}{quote},limit,0.5,1\n0.4,bid,limit,0.5,1\n")
    set_cpus(monkeypatch, n_cpus)
    pids = count_forks(monkeypatch)
    with mock.patch.object(lob, "CHUNK", 1), pytest.raises(lob.FormatError, match="^line 3: "):
        parse_events(path, malformed_threshold=1.0)
    assert len(pids) == (n_cpus - 1 if not quote else 0)
    assert_reaped(pids)


_ROW = "{},bid,limit,0.5,1\n"


@pytest.mark.parametrize("text, error", [
    # a time that drops at the first row of a part, and inside one
    ("".join(map(_ROW.format, [1, 2, 3, 2.5, 4, 5])),
     lob.NonMonotoneTime("event time 2.5 after 3.0")),
    ("".join(map(_ROW.format, [1, 2, 3, 4, 5, 4.5])),
     lob.NonMonotoneTime("event time 4.5 after 5.0")),
    # a drop comes before an error in a later row, in its part or the next
    ("".join(map(_ROW.format, [1, 2, 3, 1.5])) + f"6,{_LONG},limit,0.5,1\n",
     lob.NonMonotoneTime("event time 1.5 after 3.0")),
    # the header: dropped as the first non-blank row, wherever that falls, and a malformed
    # row after it
    ("\n \n\ntime,side,event_type,relative_price,size\n" + _ROW.format(1) + _ROW.format(2),
     None),
    (_ROW.format(1) + "\n\n Time,SIDE,event_type,relative_price,size\n" + _ROW.format(2),
     lob.FormatError("1 of 3 rows malformed (threshold 30%)")),
    ("time,side,event_type,relative_price,size\n" * 4 + _ROW.format(1),
     lob.FormatError("3 of 4 rows malformed (threshold 30%)")),
    # malformed rows against the threshold, counted over every part
    ("".join(map(_ROW.format, [1, "x", 2, "y", 3, 4])),
     lob.FormatError("2 of 6 rows malformed (threshold 30%)")),
    (" \n\n\t\n", None),
], ids=["drop_at_a_part", "drop_inside_a_part", "drop_before_an_error", "header_after_blanks",
        "header_after_a_row", "headers", "malformed", "blank_only"])
@pytest.mark.parametrize("n_cpus", [1, 2, 3])
def test_a_file_in_parts_parses_as_one_stream(tmp_path, monkeypatch, text, error, n_cpus):
    # error: the exception the parse raises, None if it returns
    path = tmp_path / "events.csv"
    path.write_text(text)
    set_cpus(monkeypatch, n_cpus)
    if n_cpus == 1:             # a file of one part is not scanned for its chunk starts
        monkeypatch.setattr(lob, "_chunk_starts", None)
    pids = count_forks(monkeypatch)
    with mock.patch.object(lob, "CHUNK", 1), time_limit(60):
        ours = _outcome(parse_events, path, "normalized", 0.3)
        _assert_same(ours, _outcome(parse_events, text, "normalized", 0.3))
    if error is None:
        assert not isinstance(ours, Exception), ours
    else:
        _assert_same(ours, error)
    assert len(pids) == n_cpus - 1
    assert_reaped(pids)


@pytest.mark.parametrize("times, error", [
    ([1, 2, 3, 4], StefansimError("the worker parsing the lines from 3 ended without a result")),
    # a drop in the rows before the part that died is raised instead
    ([2, 1, 3, 4], lob.NonMonotoneTime("event time 1.0 after 2.0")),
], ids=["dies", "drop_before_it"])
def test_a_part_that_dies_ends_the_parse(tmp_path, monkeypatch, times, error):
    # one row a chunk: the second part of two reads lines 3 and 4, and its child dies
    path = tmp_path / "events.csv"
    path.write_text("".join(map(_ROW.format, times)))
    set_cpus(monkeypatch, 2)
    pids = count_forks(monkeypatch)
    parent, chunks = os.getpid(), lob._chunks

    def dies_in_a_child(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(1)
        return chunks(*args, **kwargs)
    monkeypatch.setattr(lob, "_chunks", dies_in_a_child)
    with mock.patch.object(lob, "CHUNK", 1), time_limit(60):
        with pytest.raises(StefansimError) as raised:
            parse_events(path)
    _assert_same(raised.value, error)
    assert len(pids) == 1
    assert_reaped(pids)


def test_a_drop_before_an_error_in_its_chunk_is_raised(tmp_path):
    # the rows of a chunk read before text csv cannot read are checked, as the row loop does
    text = "".join(map(_ROW.format, [1, 2, 1.5])) + f"3,{_LONG},limit,0.5,1\n" + _ROW.format(4)
    theirs = _outcome(parse_events_reference, text, "normalized", 1.0)
    assert type(theirs) is lob.NonMonotoneTime and str(theirs) == "event time 1.5 after 2.0"
    path = tmp_path / "events.csv"
    path.write_text(text)
    for source in (text, path):
        _assert_same(_outcome(parse_events, source, "normalized", 1.0), theirs)


@pytest.mark.parametrize("text", ['0.1,bid,limit,0.5,1\n0.2,"bid",limit,0.5,1\n',
                                  "0.1,bid,limit,0.5,1\r\n0.2,bid,limit,0.5,1\r\n",
                                  "0.1,bid,limit,0.5,1\n0.2,bid,limit,0.5,1\r",
                                  "0.1,bid,limit,0.5,1\n0.2,b\u00efd,limit,0.5,1\n",
                                  "", "\n", " \t"],
                         ids=["quote", "crlf", "cr", "not_ascii", "empty", "blank", "blank_no_end"])
def test_a_file_that_is_one_part_forks_nothing(tmp_path, monkeypatch, text):
    # a '"', a '\r' or a byte that is not ASCII: csv rows need not be lines, nor
    # characters bytes; a file of one line at most is one chunk
    path = tmp_path / "events.csv"
    path.write_bytes(text.encode())
    set_cpus(monkeypatch, 2)
    pids = count_forks(monkeypatch)
    with mock.patch.object(lob, "CHUNK", 1):
        _assert_same(_outcome(parse_events, path, "normalized", 1.0),
                     _outcome(parse_events, text, "normalized", 1.0))
    assert pids == []
