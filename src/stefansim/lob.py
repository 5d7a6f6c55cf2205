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
from dataclasses import dataclass

import numpy as np

from ._csv import read_table, write_table
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


def _empty_stream(horizon) -> LobEventStream:
    return LobEventStream(np.empty(0), np.empty(0, dtype=object),
                          np.empty(0, dtype=object), np.empty(0), np.empty(0),
                          horizon=horizon or (0.0, 0.0))


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

    def at(self, t: float) -> tuple:
        idx = np.searchsorted(self.times, t, side="right") - 1
        if idx < 0:
            idx = 0
        return self.bid[idx], self.ask[idx]


def parse_events(source, fmt: str = NORMALIZED, book_reference_prices=None,
                 horizon=None, malformed_threshold: float = 0.05) -> LobEventStream:
    """Read an event CSV into a normalised stream.

    ``source`` is a path or an open text stream.  Malformed rows are
    counted and skipped; more than ``malformed_threshold`` (as a fraction
    of data rows) raises FormatError.  Events whose relative price falls
    outside [0, 1] are filtered (counted separately).  Timestamps must be
    nondecreasing.
    """
    if fmt not in (NORMALIZED, LOBSTER):
        raise FormatError(f"unknown event format {fmt!r}")
    touch = None
    if fmt == LOBSTER:
        if book_reference_prices is None:
            raise FormatError("message-file parsing needs a companion touch-price series")
        touch = _TouchSeries(book_reference_prices)

    close_after = False
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        fh = open(source, "r", newline="")
        close_after = True
    else:
        fh = source
    try:
        reader = csv.reader(fh)
        times, sides, types, rels, sizes = [], [], [], [], []
        malformed = 0
        filtered = 0
        total = 0
        last_time = -np.inf
        first = True
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if first and fmt == NORMALIZED:
                first = False
                if [c.strip().lower() for c in row] == NORMALIZED_HEADER:
                    continue
            first = False
            total += 1
            try:
                if fmt == NORMALIZED:
                    t = float(row[0])
                    side = row[1].strip().lower()
                    etype = row[2].strip().lower()
                    rel = float(row[3])
                    size = float(row[4])
                    if side not in (BID, ASK) or etype not in (LIMIT, CANCEL, MARKET):
                        raise ValueError(side)
                else:
                    t = float(row[0])
                    code = int(row[1])
                    size = float(row[3])
                    price_ticks = float(row[4])
                    direction = int(row[5])
                    if code not in _MESSAGE_TYPE_MAP:
                        filtered += 1
                        continue
                    etype = _MESSAGE_TYPE_MAP[code]
                    side = BID if direction == 1 else ASK
                    bid_touch, ask_touch = touch.at(t)
                    ref = bid_touch if side == BID else ask_touch
                    signed = (ref - price_ticks) if side == BID else (price_ticks - ref)
                    rel = signed / TICKS_PER_DOLLAR
                if size <= 0 or not np.isfinite(t) or not np.isfinite(rel):
                    raise ValueError("bad numeric field")
            except (ValueError, IndexError):
                malformed += 1
                continue
            if t < last_time:
                raise NonMonotoneTime(f"event time {t} after {last_time}")
            last_time = t
            if not 0.0 <= rel <= 1.0:
                filtered += 1
                continue
            times.append(t)
            sides.append(side)
            types.append(etype)
            rels.append(rel)
            sizes.append(size)
    finally:
        if close_after:
            fh.close()

    if total and malformed > malformed_threshold * total:
        raise FormatError(f"{malformed} of {total} rows malformed "
                          f"(threshold {malformed_threshold:.0%})")
    if not times:
        stream = _empty_stream(horizon)
        stream.malformed_count = malformed
        stream.filtered_count = filtered
        return stream
    if horizon is None:
        horizon = (float(times[0]), float(times[-1]))
    return LobEventStream(np.asarray(times), np.asarray(sides, dtype=object),
                          np.asarray(types, dtype=object), np.asarray(rels),
                          np.asarray(sizes), horizon=tuple(map(float, horizon)),
                          malformed_count=malformed, filtered_count=filtered)


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
        x_centers, f, sigma, counts = read_table(path).T
        return cls(x_centers=x_centers, f=f, sigma=sigma, counts=counts.astype(int))


def _signed_sizes(stream: LobEventStream) -> np.ndarray:
    sign = np.where(stream.event_types == LIMIT, 1.0, -1.0)
    return sign * stream.sizes


def fit_coefficients(stream: LobEventStream, n_bins: int, pool_sides: bool = True,
                     side: str | None = None, agg_interval: float = 1.0) -> FitResult:
    """Binned net-flow estimator for (f, sigma) over relative price.

    Per bin of width D = 1/n_bins: f is the signed volume (+limit,
    -cancel, -market) per second per unit price; sigma is the root mean
    square fluctuation of per-interval net volume around its mean, scaled
    by 1/sqrt(horizon * D) so that it estimates the white-noise loading.
    A pooled fit estimates the common per-side coefficient, so when both
    sides are present the totals are split evenly between them (the
    pooled fit then matches the average of the two per-side fits on
    balanced data).
    """
    if n_bins < MIN_BINS:
        raise ValueError(f"n_bins={n_bins} below minimum {MIN_BINS}")
    t0, t1 = stream.horizon
    horizon = t1 - t0
    if not horizon > 0:
        raise ValueError("stream horizon must have positive length")
    if not pool_sides:
        if side not in (BID, ASK):
            raise ValueError("per-side fit needs side='bid' or side='ask'")
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
                              grid=grid, seed=seed, lap_scale=lap_scale)


def price_series_to_csv(traj: Trajectory, path, header_comment: str | None = None) -> None:
    write_table(path, ["t", "p"], ["%.10g", "%.17g"], [traj.times, traj.p], header_comment)
