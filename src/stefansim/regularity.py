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


def window(n: int) -> slice:
    """The interior of n rows or columns: WINDOW_MARGIN of n dropped at each end, rounded down."""
    edge = int(np.floor(WINDOW_MARGIN * n))
    return slice(edge, n - edge)


def pooled_increments(axis: str, lag: int, n_rows: int, n_cols: int) -> int:
    """The increments at ``lag`` along ``axis`` in the window of an (n_rows, n_cols) path.

    Raises InsufficientData where the lag spans the window or pools fewer
    than MIN_INCREMENTS increments; then so does every larger lag.
    """
    rows, cols = window(n_rows), window(n_cols)
    n_r, n_c = rows.stop - rows.start, cols.stop - cols.start
    n = n_r if axis == TIME else n_c
    if lag >= n:
        raise InsufficientData(f"lag {lag} outside series of length {n}")
    count = (n_r - lag) * n_c if axis == TIME else n_r * (n_c - lag)
    if count < MIN_INCREMENTS:
        raise InsufficientData(f"only {count} increments at lag {lag}; need {MIN_INCREMENTS}")
    return count


@dataclass
class HolderEstimate:
    """Fitted scaling exponent with its regression standard error."""

    exponent: float
    stderr: float
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


#: rows ``from_paths`` pushes at once, which bounds the temporaries of a push
BLOCK_ROWS = 512


class StructureSums:
    """Structure functions of P paths, reduced as their rows arrive.

    Rows are pushed in order, all live paths at once (``push``), and
    reduced at once: every path's per-row sums of |increment|^q over the
    interior columns are taken for each lag (a time lag L pairs row i with
    row i + L and is booked on row i; a space lag pairs nodes within a
    row).  Only each path's last ``max(time_lags)`` rows are kept, for the
    next push's time lags to pair with.  The sums run over the ``window``
    of the columns and, at the end, of each path's own rows.
    Memory is O(P max(time_lags) n_cols + P n_lags n_rows).
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
        self._tail = np.zeros((max(self.time_lags, default=0), self.n_paths, n_cols))
        self._rows = 0       # rows pushed to each live path
        self._cols = window(n_cols)
        self._sums = {TIME: np.zeros((len(self.time_lags), n_rows, self.n_paths)),
                      SPACE: np.zeros((len(self.space_lags), n_rows, self.n_paths))}
        self._count = np.zeros(self.n_paths, dtype=int)
        self._joined = None  # the totals of joined sums, which hold no rows

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
        """Reduce the next m rows, (m, P_live, n_cols), of the paths ``at``.

        ``at`` is a slice or an index array; a path left out has stopped
        and takes no more rows, so the live paths share one row count.
        This is a ``run_paths`` sink when one side is stored: a block's
        (m, P_live, n) profiles of that side are m rows.
        """
        held, start, m = len(self._tail), self._rows, len(rows)
        # joined row i is row start - held + i; the rows before row 0 are never read
        joined = np.concatenate([self._tail[:, at], rows])
        cols = self._cols
        # a time lag pairs each new row j >= lag with row j - lag
        for sums, lag in zip(self._sums[TIME], self.time_lags):
            lo = max(start, lag)
            if lo < start + m:
                i = lo - start + held
                # whole rows subtract faster than their interior columns
                sums[lo - lag:start + m - lag, at] = self._row_sums(
                    (joined[i:] - joined[i - lag:len(joined) - lag])[..., cols])
        new = joined[held:, :, cols]
        for sums, lag in zip(self._sums[SPACE], self.space_lags):
            sums[start:start + m, at] = self._row_sums(new[..., lag:] - new[..., :-lag])
        self._tail[:, at] = joined[len(joined) - held:]
        self._rows = start + m
        self._count[at] += m

    def _row_sums(self, d: np.ndarray) -> np.ndarray:
        if self.q == 2:
            return np.einsum("rpc,rpc->rp", d, d)
        return np.abs(d).sum(axis=-1)

    def totals(self) -> list:
        """Each path's row count and its totals over its own window, per lag.

        One ``(n_rows, totals)`` pair per path, the time lags' totals first:
        all that ``structure_functions`` reads of the path.
        """
        if self._joined is not None:
            return self._joined
        out = []
        for k, n_rows in enumerate(self._count.tolist()):
            rows = window(n_rows)
            # a time lag's sum is booked on the earlier row of each pair
            time = [np.sum(sums[rows.start:max(rows.stop - lag, 0), k])
                    for sums, lag in zip(self._sums[TIME], self.time_lags)]
            space = [np.sum(sums[rows, k]) for sums in self._sums[SPACE]]
            out.append((n_rows, np.array(time + space)))
        return out

    @classmethod
    def join(cls, totals, n_cols: int, q: float, time_lags=(), space_lags=()) -> "StructureSums":
        """The sums of paths reduced elsewhere, from their ``totals`` in path order.

        The lags and ``n_cols`` are those of the reducers that took them;
        nothing more can be pushed.
        """
        sums = cls(len(totals), n_cols, 0, q, time_lags, space_lags)
        sums._joined = list(totals)
        sums._count[:] = [n_rows for n_rows, _ in sums._joined]
        return sums

    def structure_functions(self, axis: str, lags) -> np.ndarray:
        """(P, len(lags)) mean q-th absolute increments over each path's window.

        Raises InsufficientData where a lag spans a path's window or pools
        fewer than MIN_INCREMENTS increments in it.
        """
        own = self.time_lags if axis == TIME else self.space_lags
        first = 0 if axis == TIME else len(self.time_lags)
        out = np.empty((self.n_paths, len(lags)))
        for k, (n_rows, totals) in enumerate(self.totals()):
            for j, lag in enumerate(lags):
                lag = int(lag)
                if lag not in own:
                    raise ValueError(f"lag {lag} was not reduced along {axis}")
                count = pooled_increments(axis, lag, n_rows, self._tail.shape[-1])
                out[k, j] = totals[first + own.index(lag)] / count
        return out


class HolderObserver:
    """A ``run_paths`` observer that keeps each path's p' and reduces its side-1 profiles.

    The profiles go into StructureSums (``sums``) as they are stepped.
    ``finish`` gives, per path, its p' series, its (last_step, cause) end
    and its ``StructureSums.totals`` entry: all that the estimates read,
    so a slice stepped in another process sends back a few numbers per
    lag besides p', and ``StructureSums.join`` takes them back.
    """

    def __init__(self, n_paths: int, grid, q: float = 2, time_lags=(), space_lags=()):
        self.sums = StructureSums(n_paths, grid.n_nodes, grid.nt + 1, q, time_lags, space_lags)
        self.p_prime = np.empty((n_paths, grid.nt + 1))

    def __call__(self, at, steps, t, p, p_prime, norms, v):
        self.sums.push(at, v[:, 0])
        self.p_prime[at, steps] = p_prime.T

    def finish(self, ends) -> list:
        return [(self.p_prime[k, :end[0] + 1], end, totals)
                for k, (end, totals) in enumerate(zip(ends, self.sums.totals()))]


def structure_function(path, axis: str, lags, q: float):
    """Mean q-th absolute increment per lag, pooled over the interior window.

    Returns a list of (lag, S_q(lag)) pairs; lags are in grid units.  This
    is the one-path reading of ``StructureSums``.
    """
    lags = [int(lag) for lag in lags]
    pooled = _reduced([path], axis, lags, q).structure_functions(axis, lags)[0]
    return list(zip(lags, pooled.tolist()))


def _reduced(paths, axis: str, lags, q: float) -> StructureSums:
    """Stored paths pushed through one reducer at ``lags`` along ``axis``."""
    return StructureSums.from_paths(paths, q, **{
        "time_lags" if axis == TIME else "space_lags": lags})


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


def _fit_loglog(lags, s_values, q, axis, n_paths) -> HolderEstimate:
    s = np.asarray(s_values, dtype=float)
    if np.any(s <= 0.0):
        return HolderEstimate(exponent=float("nan"), stderr=float("nan"), q=q, axis=axis,
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
                          q=q, axis=axis, n_paths=n_paths)


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
        sums = _reduced(paths, axis, lags, q)
    pooled = sums.structure_functions(axis, lags).mean(axis=0)
    return _fit_loglog(lags, pooled, q, axis, n_paths=sums.n_paths)


def boundary_holder_ensemble(series_list, q: float = 2,
                             lag_range=DEFAULT_LAG_RANGE) -> HolderEstimate:
    return estimate_holder_ensemble([np.asarray(s, dtype=float) for s in series_list],
                                    TIME, q=q, lag_range=lag_range)
