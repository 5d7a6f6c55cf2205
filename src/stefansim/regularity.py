"""Empirical Hölder-exponent estimation from sampled paths.

The q-th order structure function S_q(l) = mean |v(. + l) - v(.)|^q scales
like l^(qH) for an H-Hölder path, so the exponent is read off as the
least-squares slope of log S_q against log l over dyadic lags, divided
by q.  Increments are pooled over an interior window that drops 10%
margins along each axis, matching the local nature of the regularity
statements being checked (1/4- in time, 1/2- in space for the profiles,
1/4- for the boundary derivative).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData
from .grids import Field

TIME = "time"
SPACE = "space"

#: fraction trimmed from each end of every axis before pooling increments
WINDOW_MARGIN = 0.1

DEFAULT_LAG_RANGE = (2, 64)

#: fewest pooled increments tolerated at the largest lag
MIN_INCREMENTS = 100


@dataclass
class HolderEstimate:
    """Fitted scaling exponent with its regression standard error."""

    exponent: float
    stderr: float
    lag_range: tuple
    q: float
    axis: str
    n_paths: int = 1
    degenerate: bool = False

    def to_json_dict(self) -> dict:
        """JSON-safe row: a degenerate fit has null values and is flagged."""
        row = {
            "axis": self.axis,
            "q": float(self.q),
            "exponent": None if self.degenerate else float(self.exponent),
            "stderr": None if self.degenerate else float(self.stderr),
            "n_paths": int(self.n_paths),
        }
        if self.degenerate:
            row["degenerate"] = True
        return row


def _as_values(path) -> np.ndarray:
    if isinstance(path, Field):
        return path.values
    arr = np.asarray(path, dtype=float)
    if arr.ndim == 1:
        return arr[:, None]
    if arr.ndim == 2:
        return arr
    raise ValueError("path must be a Field, a 1-D series or a 2-D array")


def _interior(values: np.ndarray) -> np.ndarray:
    out = values
    for axis in range(2):
        n = out.shape[axis]
        lo = int(np.floor(WINDOW_MARGIN * n))
        hi = n - lo
        if axis == 0:
            out = out[lo:hi, :]
        else:
            # never trim away a degenerate second axis (1-D series)
            if n > 1:
                out = out[:, lo:hi]
    return out


def structure_function(path, axis: str, lags, q: float):
    """Mean q-th absolute increment per lag, pooled over the interior window.

    Returns a list of (lag, S_q(lag)) pairs; lags are in grid units.
    """
    if q not in (1, 2):
        raise ValueError(f"supported moment orders are q in {{1, 2}}, got {q}")
    values = _interior(_as_values(path))
    ax = 0 if axis == TIME else 1
    n = values.shape[ax]
    out = []
    for lag in lags:
        lag = int(lag)
        if lag < 1 or lag >= n:
            raise InsufficientData(f"lag {lag} outside series of length {n}")
        if ax == 0:
            diffs = values[lag:, :] - values[:-lag, :]
        else:
            diffs = values[:, lag:] - values[:, :-lag]
        if diffs.size < MIN_INCREMENTS:
            raise InsufficientData(
                f"only {diffs.size} increments at lag {lag}; need {MIN_INCREMENTS}"
            )
        out.append((lag, float(np.mean(np.abs(diffs) ** q))))
    return out


#: rows reduced at once; the row buffer is this much deeper than the largest time lag
BLOCK_ROWS = 512


class StructureSums:
    """Structure functions of P paths, reduced while their rows arrive.

    Rows are pushed in order, all live paths at once (``push``), into a
    buffer ``max(time_lags) + BLOCK_ROWS`` rows deep.  Each time it fills,
    every path's per-row sums of |increment|^q over the interior columns
    are taken for each lag (a time lag L pairs row i with row i + L and
    is booked on row i; a space lag pairs nodes within a row), and the
    last ``max(time_lags)`` rows move to the front.  The interior window
    is trimmed from the per-row sums at the end, with each path's own row
    count, so ``structure_functions`` pools exactly what
    ``structure_function`` pools on that path's stored rows.  Memory is
    O(P (max lag + BLOCK_ROWS) n_cols + P n_lags n_rows).
    """

    def __init__(self, n_paths: int, n_cols: int, n_rows: int, q: float,
                 time_lags=(), space_lags=()):
        if q not in (1, 2):
            raise ValueError(f"supported moment orders are q in {{1, 2}}, got {q}")
        self.q = q
        self.n_paths = int(n_paths)
        self.time_lags = [int(lag) for lag in time_lags]
        self.space_lags = [int(lag) for lag in space_lags]
        if min(self.time_lags + self.space_lags, default=1) < 1:
            raise ValueError("lags must be at least 1")
        self._max_lag = max(self.time_lags, default=0)
        self._buf = np.zeros((self._max_lag + BLOCK_ROWS, self.n_paths, n_cols))
        edge = int(np.floor(WINDOW_MARGIN * n_cols)) if n_cols > 1 else 0
        self._cols = slice(edge, n_cols - edge)
        self._sums = {TIME: np.zeros((len(self.time_lags), n_rows, self.n_paths)),
                      SPACE: np.zeros((len(self.space_lags), n_rows, self.n_paths))}
        self._count = np.zeros(self.n_paths, dtype=int)
        self._base = 0       # row number of buffer row 0
        self._held = 0       # buffer rows already reduced
        self._filled = 0     # buffer rows in use

    @classmethod
    def from_paths(cls, paths, q: float, time_lags=(), space_lags=()) -> "StructureSums":
        """Push stored paths (Fields, 1-D series or 2-D arrays) through a reducer."""
        values = [_as_values(path) for path in paths]
        if not values:
            raise InsufficientData("empty ensemble")
        n_cols = values[0].shape[1]
        if any(v.shape[1] != n_cols for v in values):
            raise ValueError("ensemble paths must have the same number of columns")
        lengths = np.array([len(v) for v in values])
        sums = cls(len(values), n_cols, int(lengths.max()), q, time_lags, space_lags)
        # pieces of at most BLOCK_ROWS rows over which the live paths do not change
        cuts = sorted(set(range(0, int(lengths.max()), BLOCK_ROWS)) | set(lengths.tolist()))
        for a, b in zip(cuts, cuts[1:]):
            live = np.flatnonzero(lengths >= b)
            sums.push(live, np.stack([values[k][a:b] for k in live], axis=1))
        return sums

    def push(self, at, rows: np.ndarray) -> None:
        """Append the next m rows, (m, P_live, n_cols), to the paths ``at``.

        ``at`` is a slice or an index array; a path left out has stopped
        and takes no more rows.  This is a ``run_paths`` sink when one
        side is stored: each stored step's (1, P_live, n) profiles are
        one row.
        """
        depth = len(self._buf)
        while len(rows):
            f = self._filled
            take = min(len(rows), depth - f)
            self._buf[f:f + take, at] = rows[:take]
            self._count[at] += take
            self._filled = f + take
            rows = rows[take:]
            if self._filled == depth:
                self._reduce()

    def _reduce(self) -> None:
        """Book the per-row sums of the rows not yet reduced, then shift."""
        buf, f, h, base = self._buf, self._filled, self._held, self._base
        cols = self._cols
        # a time lag pairs each new row j >= lag with row j - lag
        for sums, lag in zip(self._sums[TIME], self.time_lags):
            lo = max(h, lag)
            if lo < f:
                # whole rows subtract faster than their interior columns
                d = buf[lo:f] - buf[lo - lag:f - lag]
                sums[base + lo - lag:base + f - lag] = self._row_sums(d[..., cols])
        if h < f:
            new = buf[h:f, :, cols]
            for sums, lag in zip(self._sums[SPACE], self.space_lags):
                sums[base + h:base + f] = self._row_sums(new[..., lag:] - new[..., :-lag])
        keep = min(self._max_lag, f)
        buf[:keep] = buf[f - keep:f]
        self._base += f - keep
        self._held = self._filled = keep

    def _row_sums(self, d: np.ndarray) -> np.ndarray:
        if self.q == 2:
            return np.einsum("rpc,rpc->rp", d, d)
        return np.abs(d).sum(axis=-1)

    def structure_functions(self, axis: str, lags) -> np.ndarray:
        """(P, len(lags)) mean q-th absolute increments over each path's window.

        Raises InsufficientData where ``structure_function`` would.
        """
        self._reduce()
        own = self.time_lags if axis == TIME else self.space_lags
        n_cols = self._cols.stop - self._cols.start
        out = np.empty((self.n_paths, len(lags)))
        for k, n_rows in enumerate(self._count.tolist()):
            lo = int(np.floor(WINDOW_MARGIN * n_rows))
            hi = n_rows - lo
            for j, lag in enumerate(lags):
                lag = int(lag)
                if lag not in own:
                    raise ValueError(f"lag {lag} was not reduced along {axis}")
                sums = self._sums[axis][own.index(lag), :, k]
                n = hi - lo if axis == TIME else n_cols
                if lag >= n:
                    raise InsufficientData(f"lag {lag} outside series of length {n}")
                if axis == TIME:
                    count, total = (hi - lo - lag) * n_cols, np.sum(sums[lo:hi - lag])
                else:
                    count, total = (hi - lo) * (n_cols - lag), np.sum(sums[lo:hi])
                if count < MIN_INCREMENTS:
                    raise InsufficientData(
                        f"only {count} increments at lag {lag}; need {MIN_INCREMENTS}")
                out[k, j] = total / count
        return out


def dyadic_lags(lag_range) -> list:
    lo, hi = int(lag_range[0]), int(lag_range[1])
    lags = []
    lag = 1
    while lag <= hi:
        if lag >= lo:
            lags.append(lag)
        lag *= 2
    if len(lags) < 4:
        raise ValueError(f"lag range {lag_range} spans {len(lags)} dyadic lags; need >= 4")
    return lags


def _fit_loglog(lags, s_values, q, axis, lag_range, n_paths) -> HolderEstimate:
    s = np.asarray(s_values, dtype=float)
    if np.any(s <= 0.0):
        return HolderEstimate(exponent=float("nan"), stderr=float("nan"),
                              lag_range=tuple(lag_range), q=q, axis=axis,
                              n_paths=n_paths, degenerate=True)
    lx = np.log(np.asarray(lags, dtype=float))
    ly = np.log(s)
    n = len(lx)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    denom = np.sum((lx - lx.mean()) ** 2)
    if n > 2:
        slope_se = np.sqrt(np.sum(resid**2) / (n - 2) / denom)
    else:
        slope_se = 0.0
    return HolderEstimate(exponent=float(slope / q), stderr=float(slope_se / q),
                          lag_range=tuple(lag_range), q=q, axis=axis,
                          n_paths=n_paths)


def estimate_holder(path, axis: str, q: float = 2,
                    lag_range=DEFAULT_LAG_RANGE) -> HolderEstimate:
    """Least-squares scaling exponent of one path along an axis."""
    lags = dyadic_lags(lag_range)
    pairs = structure_function(path, axis, lags, q)
    return _fit_loglog([p[0] for p in pairs], [p[1] for p in pairs],
                       q, axis, lag_range, n_paths=1)


def estimate_holder_ensemble(paths, axis: str, q: float = 2,
                             lag_range=DEFAULT_LAG_RANGE) -> HolderEstimate:
    """Pool structure functions across ensemble members, then fit once.

    ``paths`` is a fed StructureSums reduced at the dyadic lags of
    ``lag_range`` along ``axis``, or a list of stored paths, which is
    pushed through one.
    """
    lags = dyadic_lags(lag_range)
    if isinstance(paths, StructureSums):
        sums = paths
        if sums.q != q:
            raise ValueError(f"structure sums were reduced with q={sums.q}, not {q}")
    else:
        sums = StructureSums.from_paths(paths, q, **{
            "time_lags" if axis == TIME else "space_lags": lags})
    pooled = sums.structure_functions(axis, lags).mean(axis=0)
    return _fit_loglog(lags, pooled, q, axis, lag_range, n_paths=sums.n_paths)


def boundary_holder(p_prime_series, q: float = 2,
                    lag_range=DEFAULT_LAG_RANGE) -> HolderEstimate:
    """Exponent of the boundary-derivative series p'(t)."""
    series = np.asarray(p_prime_series, dtype=float)
    if series.ndim != 1:
        raise ValueError("boundary series must be one-dimensional")
    return estimate_holder(series, TIME, q=q, lag_range=lag_range)


def boundary_holder_ensemble(series_list, q: float = 2,
                             lag_range=DEFAULT_LAG_RANGE) -> HolderEstimate:
    return estimate_holder_ensemble([np.asarray(s, dtype=float) for s in series_list],
                                    TIME, q=q, lag_range=lag_range)
