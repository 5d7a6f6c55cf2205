"""Shared oracles and generators for the test suite."""
import csv

import numpy as np

from stefansim.errors import InsufficientData
from stefansim.grids import Field, GridSpec
from stefansim.regularity import MIN_INCREMENTS, TIME, WINDOW_MARGIN


def fbm_path(hurst: float, n: int, seed: int, dt: float = 1.0) -> np.ndarray:
    """Exact fractional Brownian motion via circulant embedding.

    Builds fractional Gaussian noise from the eigenvalues of the circulant
    extension of its covariance, then cumulates.  Independent of the
    structure-function estimator under test.
    """
    k = np.arange(n + 1, dtype=float)
    gamma = 0.5 * (np.abs(k + 1) ** (2 * hurst) - 2 * np.abs(k) ** (2 * hurst)
                   + np.abs(k - 1) ** (2 * hurst))
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    eig = np.fft.fft(row).real
    if eig.min() < -1e-8:
        raise ValueError("circulant embedding failed; increase n")
    eig = np.maximum(eig, 0.0)
    m = len(row)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    noise = np.fft.fft(np.sqrt(eig / (2 * m)) * z)
    fgn = noise.real[:n] * np.sqrt(2.0)
    return np.concatenate([[0.0], np.cumsum(fgn)]) * dt**hurst


def structure_function_reference(values, axis: str, lags, q: float) -> list:
    """Mean q-th absolute increment per lag of one stored path, reduced directly.

    ``values`` is a 1-D series or a 2-D (rows, columns) array.  The window
    drops WINDOW_MARGIN of the rows and of the columns at each end; every
    increment inside it is differenced and averaged at once.  Raises
    InsufficientData where a reducer must.
    """
    values = np.asarray(values, dtype=float).reshape(len(values), -1)
    r, c = (int(np.floor(WINDOW_MARGIN * n)) for n in values.shape)
    values = values[r:len(values) - r, c:values.shape[1] - c]
    out = []
    for lag in lags:
        n = values.shape[0 if axis == TIME else 1]
        if lag >= n:
            raise InsufficientData(f"lag {lag} outside series of length {n}")
        diffs = (values[lag:] - values[:-lag] if axis == TIME
                 else values[:, lag:] - values[:, :-lag])
        if diffs.size < MIN_INCREMENTS:
            raise InsufficientData(f"only {diffs.size} increments at lag {lag}")
        out.append(float(np.mean(np.abs(diffs) ** q)))
    return out


def random_smooth_obstacle(grid: GridSpec, seed: int, amplitude: float = 1.0,
                           n_modes: int = 4) -> Field:
    """Random Fourier obstacle, zero at t = 0 and at the spatial boundary."""
    rng = np.random.default_rng(seed)
    t = grid.time_nodes()[:, None]
    x = grid.space_nodes()[None, :]
    values = np.zeros((grid.nt + 1, grid.n_nodes))
    for k in range(1, n_modes + 1):
        a = amplitude * rng.uniform(-1.0, 1.0) / k
        freq = rng.uniform(0.5, 3.0) / grid.T
        phase = rng.uniform(0, 2 * np.pi)
        values += a * np.sin(k * np.pi * x / grid.length) * np.sin(
            2 * np.pi * freq * t + phase)
    envelope = np.minimum(t / (0.1 * grid.T), 1.0)
    values *= envelope
    return Field(grid, values)


def sine_ramp_obstacle(grid: GridSpec, amplitude: float = 5.0,
                       ramp: float = 0.02) -> Field:
    """The standard test obstacle amplitude * sin(pi x) * min(t, ramp)."""
    f = Field.from_function(
        grid, lambda t, x: amplitude * np.sin(np.pi * x / grid.length) * np.minimum(t, ramp))
    f.values[:, 0] = 0.0
    f.values[:, -1] = 0.0
    return f


def synthetic_lob_rows(f_bins, sigma_bins, horizon: float, seed: int,
                       interval: float = 1.0, sides=("bid",)):
    """Event rows realising piecewise-constant net flow f + sigma * noise.

    Per bin and per interval the net volume f*D*dt + sigma*sqrt(D*dt)*Z is
    booked as one limit (positive) or cancel (negative) event at the bin
    centre, independently per side, so the fitter's estimand matches the
    generator's (f, sigma) exactly.
    """
    n_bins = len(f_bins)
    width = 1.0 / n_bins
    rng = np.random.default_rng(seed)
    n_int = int(round(horizon / interval))
    rows = []
    for i in range(n_int):
        t = (i + 0.5) * interval
        for b in range(n_bins):
            xc = (b + 0.5) * width
            for side in sides:
                net = (f_bins[b] * width * interval
                       + sigma_bins[b] * np.sqrt(width * interval) * rng.standard_normal())
                if net == 0.0:
                    continue
                etype = "limit" if net > 0 else "cancel"
                rows.append(f"{t},{side},{etype},{xc},{abs(net)}")
    return rows


def parse_events_reference(source, fmt="normalized", book_reference_prices=None,
                           horizon=None, malformed_threshold=0.05):
    """``lob.parse_events`` as one ``csv.reader`` loop, a row at a time.

    Every rule is applied to each row in turn: blank rows skipped, a
    header only as the first non-blank normalized row, a row malformed on
    a short row, a field its conversion rejects, an unknown label, a size
    that is not a positive finite number or a non-finite time or relative
    price; message-file rows of another type code filtered before those
    tests and the time check; the [0, 1] filter after it.  ``source`` is
    an open text stream.
    """
    from stefansim.errors import FormatError, NonMonotoneTime
    from stefansim.lob import (_MESSAGE_TYPE_MAP, ASK, BID, CANCEL, LIMIT, MARKET,
                               NORMALIZED, NORMALIZED_HEADER, TICKS_PER_DOLLAR,
                               LobEventStream)

    if fmt == NORMALIZED:
        touch = None
    else:
        if book_reference_prices is None:
            raise FormatError("message-file parsing needs a companion touch-price series")
        touch = np.atleast_2d(np.asarray(book_reference_prices, dtype=float))
        touch = touch[np.argsort(touch[:, 0], kind="stable")]
    times, sides, types, rels, sizes = [], [], [], [], []
    malformed = filtered = total = 0
    last_time = -np.inf
    first = True
    for row in csv.reader(source):
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
                idx = max(np.searchsorted(touch[:, 0], t, side="right") - 1, 0)
                ref = touch[idx, 1] if side == BID else touch[idx, 2]
                signed = (ref - price_ticks) if side == BID else (price_ticks - ref)
                rel = signed / TICKS_PER_DOLLAR
            if size <= 0 or not np.isfinite(size) or not np.isfinite(t) or not np.isfinite(rel):
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
    if total and malformed > malformed_threshold * total:
        raise FormatError(f"{malformed} of {total} rows malformed "
                          f"(threshold {malformed_threshold:.0%})")
    if horizon is None:
        horizon = (times[0], times[-1]) if times else (0.0, 0.0)
    return LobEventStream(np.asarray(times, dtype=float), np.asarray(sides, dtype=object),
                          np.asarray(types, dtype=object), np.asarray(rels, dtype=float),
                          np.asarray(sizes, dtype=float),
                          horizon=tuple(map(float, horizon)),
                          malformed_count=malformed, filtered_count=filtered)


class PushSide1:
    """A run_paths observer that only pushes the side-1 profiles into the sums."""

    def __init__(self, sums):
        self.sums = sums

    def __call__(self, at, steps, t, p, p_prime, norms, v):
        self.sums.push(at, v[:, 0])

    def finish(self, ends):
        return ends


def _laplacian_reference(u, dx):
    out = np.zeros_like(u)
    out[..., 1:-1] = (u[..., :-2] - 2.0 * u[..., 1:-1] + u[..., 2:]) / (dx * dx)
    return out


def _upwind_reference(u, dx, speed):
    out = np.zeros_like(u)
    diff = (u[..., 1:] - u[..., :-1]) / dx
    out[..., 1:-1] = np.where(speed >= 0.0, diff[..., :-1], diff[..., 1:])
    return out


def reference_path(initial, coeffs, fn, M, M_max, grid: GridSpec, seed: int,
                   lap_scale: float = 1.0):
    """One path of ``run_paths``, stepped by the plain allocating formula.

    Every quantity is a new array each step and the coefficients are
    evaluated at every state.  Returns (rows, cause): one (t, p, p', norm1,
    norm2, (2, n_nodes) state) row per kept step, and the blow-up cause.
    """
    from stefansim.boundary import cap_profile, eval_h
    from stefansim.grids import profile_norm
    from stefansim.noise import sample_white_noise
    from stefansim.spde import SIDE_SIGN, per_side

    x, dx, dt, n = grid.space_nodes(), grid.dx, grid.dt, grid.n_nodes
    xi = np.stack([sample_white_noise(grid, seed, side).xi for side in (0, 1)])
    v = np.stack(initial[:2])[:, None]            # (2, 1, n_nodes)
    capped = cap_profile(v, grid, M)
    c, p, t = eval_h(fn, *capped, grid), float(initial[2]), 0.0
    rows = [(t, p, c[0], *profile_norm(v, grid)[:, 0], v[:, 0])]
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(grid.nt):
            speed = SIDE_SIGN * c[:, None]
            rate = (lap_scale * _laplacian_reference(v, dx)
                    - speed * _upwind_reference(capped, dx, speed))
            rate += per_side(coeffs.f1, coeffs.f2, x, v)
            rate *= dt
            new = v + rate
            new += dt * per_side(coeffs.sigma1, coeffs.sigma2, x, v) * xi[:, i, None]
            np.maximum(new, 0.0, out=new)
            new[..., ::n - 1] = 0.0
            capped = cap_profile(new, grid, M)
            c = eval_h(fn, *capped, grid)
            p, t = p + dt * c[0], t + dt
            norms = profile_norm(new, grid)[:, 0]
            if not (np.isfinite(norms).all() and np.isfinite(p)):
                return rows, "non_finite"
            rows.append((t, p, c[0], *norms, new[:, 0]))
            if norms[0] + norms[1] >= M_max:
                return rows, "threshold"
            v = new
    return rows, None
