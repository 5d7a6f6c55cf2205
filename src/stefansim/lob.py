"""Order-book application: event ingestion, coefficient fitting, price simulation.

Order flow at each relative price x (distance from the touch, in dollars,
restricted to [0, 1]) is summarised by a drift f(x) - the net arrival
rate of volume per unit price per second - and a volatility sigma(x)
measuring the fluctuation of the net flow around that drift.  The fitted
pair feeds the coupled simulator, whose boundary position plays the role
of the price.

The canonical interchange format is the normalized CSV
``time,side,event_type,relative_price,size``; a thin adapter converts
raw 6-column message files (time, type, order id, size, price in 1e-4
dollar ticks, direction) given a companion touch-price series.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import partial
from itertools import islice, repeat
from operator import itemgetter

import numpy as np

from ._csv import read_table, write_table
from ._workers import count, split
from .boundary import BoundaryFunctional
from .errors import FormatError, NonMonotoneTime
from .grids import GridSpec
from .spde import Trajectory, run_relative_frame, tabulated_coefficients

BID = "bid"
ASK = "ask"
LIMIT = "limit"
CANCEL = "cancel"
MARKET = "market"

NORMALIZED = "normalized"
LOBSTER = "lobster"

NORMALIZED_HEADER = ["time", "side", "event_type", "relative_price", "size"]

#: message-file type codes: new limit order; cancel/delete; visible/hidden execution
_MESSAGE_TYPE_MAP = {1: LIMIT, 2: CANCEL, 3: CANCEL, 4: MARKET, 5: MARKET}

TICKS_PER_DOLLAR = 10_000.0

#: fewest relative-price bins a coefficient fit accepts
MIN_BINS = 4


@dataclass
class LobEventStream:
    """Normalised event arrays plus the observation horizon (seconds)."""

    times: np.ndarray
    sides: np.ndarray        # BID / ASK strings
    event_types: np.ndarray  # LIMIT / CANCEL / MARKET strings
    rel_prices: np.ndarray
    sizes: np.ndarray
    horizon: tuple
    malformed_count: int = 0
    filtered_count: int = 0

    @property
    def n_events(self) -> int:
        return len(self.times)

    def subset(self, mask: np.ndarray) -> "LobEventStream":
        return LobEventStream(self.times[mask], self.sides[mask],
                              self.event_types[mask], self.rel_prices[mask],
                              self.sizes[mask], self.horizon)


class _TouchSeries:
    """Step-function lookup of (bid touch, ask touch) prices over time."""

    def __init__(self, rows):
        rows = np.atleast_2d(np.asarray(rows, dtype=float))    # one row may come flat
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise FormatError("touch series must have rows (time, bid, ask)")
        order = np.argsort(rows[:, 0], kind="stable")
        self.times = rows[order, 0]
        self.bid = rows[order, 1]
        self.ask = rows[order, 2]

    def relative(self, t, ask_side, price_ticks) -> np.ndarray:
        """Dollars from the touch in force at each time ``t``, positive away from the spread."""
        idx = np.maximum(np.searchsorted(self.times, t, side="right") - 1, 0)
        with np.errstate(invalid="ignore", over="ignore"):
            signed = np.where(ask_side, price_ticks - self.ask[idx], self.bid[idx] - price_ticks)
            return signed / TICKS_PER_DOLLAR


#: csv rows read per parse chunk; bounds the Python fields held at once
CHUNK = 8192

_SIDE_CODES = {BID: 0, ASK: 1}
_TYPE_CODES = {LIMIT: 0, CANCEL: 1, MARKET: 2}
_MESSAGE_CODES = {code: _TYPE_CODES[etype] for code, etype in _MESSAGE_TYPE_MAP.items()}


def _columns(rows, width: int) -> list:
    """A chunk's non-blank ``csv.reader`` rows as ``width`` columns of field strings.

    The blank rows are taken out of ``rows``.  Extra fields are dropped,
    and a short row is padded with "", which no column accepts.
    """
    lengths = np.fromiter(map(len, rows), np.intp, len(rows))
    for i in np.flatnonzero(lengths < width):
        row = rows[i]
        rows[i] = (row + [""] * width)[:width] if len(row) > 1 or row and row[0].strip() else []
    rows[:] = filter(None, rows)
    return [list(map(itemgetter(j), rows)) for j in range(width)]


def _read(reader, line0: int, errors: list) -> list:
    """The next CHUNK rows of ``reader``, up to text it cannot read.

    That text's FormatError is appended to ``errors``; ``line0`` is the
    number of lines before the reader's first.
    """
    rows = []
    try:
        rows.extend(islice(reader, CHUNK))      # keeps the rows read before an error
    except csv.Error as exc:
        errors.append(FormatError(f"line {line0 + reader.line_num}: {exc}"))
    return rows


def _convert(fields, convert, bad: np.ndarray) -> list:
    """``convert`` of each field; a field it rejects reads 0 and is marked in ``bad``."""
    try:
        return list(map(convert, fields))
    except ValueError:
        out = []
        for i, field in enumerate(fields):
            try:
                out.append(convert(field))
            except ValueError:
                out.append(0)
                bad[i] = True
        return out


def _floats(fields, bad: np.ndarray) -> np.ndarray:
    return np.array(_convert(fields, float, bad), dtype=float)


def _codes(values, lookup) -> np.ndarray:
    """int8 codes of ``values`` by ``lookup``, -1 where it has none."""
    return np.array(list(map(lookup.get, values, repeat(-1))), dtype=np.int8)


def _labels(fields, codes) -> np.ndarray:
    """Codes of trimmed, lower-cased labels, through a table of the chunk's distinct fields."""
    return _codes(fields, {f: codes.get(f.strip().lower(), -1) for f in set(fields)})


def _concat(chunks, i: int) -> np.ndarray:
    """Column ``i`` of the chunks joined; the chunks' parts are released."""
    column = np.concatenate([chunk[i] for chunk in chunks])
    for chunk in chunks:
        chunk[i] = None
    return column


def parse_events(source, fmt: str = NORMALIZED, book_reference_prices=None,
                 horizon=None, malformed_threshold: float = 0.05) -> LobEventStream:
    """Read an event CSV into a normalised stream.

    ``source`` is a path or a text stream opened with ``newline=""``.
    Blank rows are skipped, and in the normalized format so is a header
    as the first non-blank row.  Malformed rows are counted and skipped;
    more than ``malformed_threshold`` (as a fraction of data rows) raises
    FormatError.  Events whose relative price falls outside [0, 1], and
    message-file rows of other type codes, are filtered (counted
    separately).  Timestamps must be nondecreasing over the rows that are
    neither malformed nor of another type code, the well-formed rows.
    Text ``csv`` cannot read (a field longer than
    ``csv.field_size_limit()``, a line break in an unquoted field) raises
    FormatError.  The rows are read in chunks of CHUNK and converted a
    column at a time.  ``horizon`` comes back as a pair of floats; by
    default it spans the kept events, (0, 0) when none is kept.

    A file whose bytes are ASCII without a ``"`` or a ``\r`` has a csv row
    per ``\n`` line, so where the affinity mask has more than one CPU its
    chunks start at known byte offsets: they are cut into contiguous
    parts, one per ``_workers.split`` process, each reading its own
    chunks.  A part only reads and converts: it returns its well-formed
    rows, its counts, whether its first non-blank row reads the header,
    and the csv error that ended it.  Any other file, and a stream, is one
    part.  Every rule is applied here, once, to the parts' rows joined in
    order, as one pass over the rows would apply it: a time that drops
    comes before the error of a later row.
    """
    if fmt not in (NORMALIZED, LOBSTER):
        raise FormatError(f"unknown event format {fmt!r}")
    touch = None
    if fmt == LOBSTER:
        if book_reference_prices is None:
            raise FormatError("message-file parsing needs a companion touch-price series")
        touch = _TouchSeries(book_reference_prices)
    chunks = partial(_chunks, fmt=fmt, touch=touch)

    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        starts = _chunk_starts(source) if count(2) > 1 else [0]

        def part(lo, hi, *links):
            with open(source, "rb") as raw:
                raw.seek(starts[lo])
                # the last part reads to the end of the file
                return chunks(io.TextIOWrapper(raw, newline=""), lo * CHUNK,
                              hi - lo if hi < len(starts) else None)
        parts = split(len(starts), part,
                      lambda lo, hi: f"parsing the lines from {lo * CHUNK + 1}")
    else:
        parts = [chunks(source, 0, None)]

    joined, failure = [], None          # the parts up to the first failure, and that failure
    for p in parts:
        if isinstance(p, BaseException):        # a part that raised, or died
            failure = p
            break
        joined.append(p)
        if p.error is not None:
            failure = p.error
            break
    rows = [p.rows for p in joined]
    times = _concat(rows, 0)
    drops = np.flatnonzero(times[1:] < times[:-1])
    if drops.size:
        i = drops[0]
        raise NonMonotoneTime(f"event time {float(times[i + 1])} after {float(times[i])}")
    if failure is not None:
        raise failure

    # a header row is malformed as data: its time is not a number
    header = next((p.header for p in joined if p.header is not None), False)
    malformed = sum(p.malformed for p in joined) - header
    unknown = sum(p.unknown for p in joined)
    total = malformed + unknown + len(times)
    if total and malformed > malformed_threshold * total:
        raise FormatError(f"{malformed} of {total} rows malformed "
                          f"(threshold {malformed_threshold:.0%})")
    rels = _concat(rows, 3)
    inside = (rels >= 0.0) & (rels <= 1.0)
    # float columns first: each object column then replaces a smaller int8 one
    times, rels, sizes = times[inside], rels[inside], _concat(rows, 4)[inside]
    if horizon is None:
        horizon = (times[0], times[-1]) if len(times) else (0.0, 0.0)
    sides = np.array([BID, ASK], dtype=object)[_concat(rows, 1)[inside]]
    types = np.array([LIMIT, CANCEL, MARKET], dtype=object)[_concat(rows, 2)[inside]]
    return LobEventStream(times, sides, types, rels, sizes, horizon=tuple(map(float, horizon)),
                          malformed_count=malformed,
                          filtered_count=unknown + len(inside) - len(times))


#: bytes read at a time while a file is scanned for its chunk starts
SCAN = 1 << 20


def _chunk_starts(path) -> list:
    """The byte offset of each CHUNK-line chunk of the file, or [0] if it must be one part.

    A file with a non-ASCII byte, a ``"`` or a ``\r`` is one part: its csv
    rows need not be its lines, nor its characters its bytes.
    """
    starts, lines, size = [0], 0, 0
    with open(path, "rb") as fh:
        while data := fh.read(SCAN):
            if not data.isascii() or b'"' in data or b"\r" in data:
                return [0]
            ends = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
            # the ends of lines CHUNK, 2 CHUNK, ... start the next chunks
            starts += (size + 1 + ends[(-lines - 1) % CHUNK::CHUNK]).tolist()
            lines, size = lines + len(ends), size + len(data)
    if len(starts) > 1 and starts[-1] == size:
        starts.pop()                    # the file ends with a chunk's last line
    return starts


@dataclass
class _Part:
    """A run of chunks read and converted, for ``parse_events`` to join in row order."""

    rows: list              # its well-formed rows: times, side codes, type codes, rel prices, sizes
    malformed: int
    unknown: int            # message-file rows of another type code
    header: bool | None     # its first non-blank row reads the header; None if it has none
    error: FormatError | None   # the csv error that ended it


def _chunks(fh, line0: int, n_chunks, fmt: str, touch) -> _Part:
    """Read and convert the next ``n_chunks`` chunks of ``fh``, all of them for None.

    ``line0`` is the number of lines before the first.  Text ``csv``
    cannot read ends the run, and its error is returned with the rows
    read before it.  No rule of order, header or threshold is applied
    here; see parse_events.
    """
    width = 5 if fmt == NORMALIZED else 6
    # per chunk: times, side codes, type codes, rel prices, sizes; the first is empty
    kept = [[np.empty(0), *np.empty((2, 0), dtype=np.int8), np.empty(0), np.empty(0)]]
    malformed = unknown_rows = 0
    header, errors = None, []
    reader = csv.reader(fh)
    # the empty chunk at the end of the input, or at an error, stops iter
    for rows in islice(iter(partial(_read, reader, line0, errors), []), n_chunks):
        columns = _columns(rows, width)
        if header is None and rows:
            header = (fmt == NORMALIZED
                      and [c.strip().lower() for c in rows[0]] == NORMALIZED_HEADER)
        n = len(columns[0])
        bad = np.zeros(n, dtype=bool)
        t = _floats(columns[0], bad)
        if fmt == NORMALIZED:
            sides = _labels(columns[1], _SIDE_CODES)
            types = _labels(columns[2], _TYPE_CODES)
            rel, size = _floats(columns[3], bad), _floats(columns[4], bad)
            bad |= (sides < 0) | (types < 0)
            unknown = np.zeros(n, dtype=bool)
        else:
            types = _codes(_convert(columns[1], int, bad), _MESSAGE_CODES)
            size, price = _floats(columns[3], bad), _floats(columns[4], bad)
            # direction 1 is the bid side (code 0), any other the ask side
            sides = np.array(list(map((1).__ne__, _convert(columns[5], int, bad))),
                             dtype=np.int8)
            unknown = ~bad & (types < 0)
            rel = touch.relative(t, sides == 1, price)
        # a message-file row of another type code is filtered before any test
        bad |= ~unknown & ~((size > 0) & np.isfinite(size) & np.isfinite(t)
                            & np.isfinite(rel))
        good = ~bad & ~unknown
        malformed += int(np.count_nonzero(bad))
        unknown_rows += int(np.count_nonzero(unknown))
        if good.any():
            kept.append([t[good], sides[good], types[good], rel[good], size[good]])
        del rows, columns           # the chunk's text goes before the next chunk is read
        if errors:
            break
    return _Part([_concat(kept, i) for i in range(5)], malformed, unknown_rows, header,
                 errors[0] if errors else None)


@dataclass
class FitResult:
    """Binned drift/volatility estimates over relative price in [0, 1]."""

    x_centers: np.ndarray
    f: np.ndarray
    sigma: np.ndarray
    counts: np.ndarray

    @property
    def flagged(self) -> np.ndarray:
        """The insufficient-data bins: those without events."""
        return self.counts == 0

    @property
    def n_bins(self) -> int:
        return len(self.x_centers)

    def to_csv(self, path, header_comment: str | None = None) -> None:
        write_table(path, ["x_center", "f", "sigma", "count"],
                    ["%.10g", "%.17g", "%.17g", "%d"],
                    [self.x_centers, self.f, self.sigma, self.counts], header_comment)

    @classmethod
    def from_csv(cls, path) -> "FitResult":
        """Read a written fit table: header ``x_center,f,sigma,count``, values finite,
        counts whole and in [0, 2**63)."""
        table = read_table(path, ["x_center", "f", "sigma", "count"], "fit table")
        if not len(table):
            raise FormatError("fit table has no rows")
        x_centers, f, sigma, counts = table.T
        bad = ~(np.isfinite(table).all(axis=1) & (counts >= 0) & (counts < 2.0**63)
                & (counts == np.round(counts)))
        if bad.any():
            raise FormatError(f"fit table row {bad.argmax() + 1}: x_center, f and sigma must be "
                              "finite and count a whole number in [0, 2**63)")
        return cls(x_centers=x_centers, f=f, sigma=sigma, counts=counts.astype(int))


def _signed_sizes(stream: LobEventStream) -> np.ndarray:
    sign = np.where(stream.event_types == LIMIT, 1.0, -1.0)
    return sign * stream.sizes


def fit_coefficients(stream: LobEventStream, n_bins: int, side: str | None = None,
                     agg_interval: float = 1.0) -> FitResult:
    """Binned net-flow estimator for (f, sigma) over relative price.

    Per bin of width D = 1/n_bins: f is the signed volume (+limit,
    -cancel, -market) per second per unit price; sigma is the root mean
    square fluctuation of per-interval net volume around its mean, scaled
    by 1/sqrt(horizon * D) so that it estimates the white-noise loading.
    ``side`` "bid" or "ask" fits that side's events alone; None pools
    both.  A pooled fit estimates the common per-side coefficient, so when
    both sides are present the totals are split evenly between them (the
    pooled fit then matches the average of the two per-side fits on
    balanced data).
    """
    if n_bins < MIN_BINS:
        raise ValueError(f"n_bins={n_bins} below minimum {MIN_BINS}")
    t0, t1 = stream.horizon
    horizon = t1 - t0
    if not horizon > 0:
        raise ValueError("stream horizon must have positive length")
    if side is not None:
        if side not in (BID, ASK):
            raise ValueError(f"side must be 'bid', 'ask' or None, got {side!r}")
        stream = stream.subset(stream.sides == side)
    n_sides = max(1, len(set(stream.sides.tolist())))
    width = 1.0 / n_bins
    centers = (np.arange(n_bins) + 0.5) * width

    bin_idx = np.minimum((stream.rel_prices / width).astype(int), n_bins - 1)
    signed = _signed_sizes(stream)
    counts = np.bincount(bin_idx, minlength=n_bins)
    net = np.bincount(bin_idx, weights=signed, minlength=n_bins)
    f = net / (horizon * width * n_sides)

    # fluctuations are pooled per side so that a pooled fit reduces to the
    # root mean square of the per-side estimates
    n_int = max(1, int(np.ceil(horizon / agg_interval)))
    int_idx = np.minimum(((stream.times - t0) / agg_interval).astype(int), n_int - 1)
    sq_sum = np.zeros(n_bins)
    for side_label in sorted(set(stream.sides.tolist())):
        mask = stream.sides == side_label
        flat = bin_idx[mask] * n_int + int_idx[mask]
        per_interval = np.bincount(flat, weights=signed[mask],
                                   minlength=n_bins * n_int).reshape(n_bins, n_int)
        fluct = per_interval - per_interval.mean(axis=1, keepdims=True)
        sq_sum += np.sum(fluct**2, axis=1)
    sigma = np.sqrt(sq_sum / (horizon * width * n_sides))

    flagged = counts == 0
    f = np.where(flagged, 0.0, f)
    sigma = np.where(flagged, 0.0, sigma)
    return FitResult(x_centers=centers, f=f, sigma=sigma, counts=counts)


def _filled_coefficients(fit: FitResult):
    """Interpolate flagged bins from their populated neighbours."""
    good = ~fit.flagged
    if not np.any(good):
        return np.zeros_like(fit.f), np.zeros_like(fit.sigma)
    f = np.interp(fit.x_centers, fit.x_centers[good], fit.f[good])
    sigma = np.interp(fit.x_centers, fit.x_centers[good], fit.sigma[good])
    return f, sigma


def simulate_price(fit: FitResult, boundary: BoundaryFunctional, grid: GridSpec,
                   seed: int, lap_scale: float = 0.2, p0: float = 0.0) -> Trajectory:
    """Run the untruncated coupled simulator from empty books; p(t) is the price."""
    f, sigma = _filled_coefficients(fit)
    coeffs = tabulated_coefficients(fit.x_centers, f, sigma)
    z = np.zeros(grid.n_nodes)
    return run_relative_frame((z, z.copy(), p0), coeffs, boundary, M=np.inf, M_max=np.inf,
                              grid=grid, noise=seed, lap_scale=lap_scale)


def price_series_to_csv(traj: Trajectory, path, header_comment: str | None = None) -> None:
    write_table(path, ["t", "p"], ["%.10g", "%.17g"], [traj.times, traj.p], header_comment)
