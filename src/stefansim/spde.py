"""Explicit finite-difference integrator for the coupled reflected system.

In the frame attached to the boundary the two profiles solve

    dv1/dt = Lap v1 - c * d/dx(cap(v1)) + f1(x, v1) + sigma1(x, v1) * xi1 + eta1
    dv2/dt = Lap v2 + c * d/dx(cap(v2)) + f2(x, v2) + sigma2(x, v2) * xi2 + eta2

with c = h(cap(v1), cap(v2)) the boundary speed, cap the truncation
(v ^ M on the compact domain, the weighted cap on the half-line), and
eta the reflection keeping both profiles nonnegative.  One step is:
explicit Euler increment (upwind advection selected by the sign of c),
projection onto the nonnegative cone, Dirichlet re-zeroing, then the
boundary update p' = h and p <- p + dt p'.

There is one stepping loop, ``run_paths``: it advances P independent
paths together on (2, P, n_nodes) arrays, sides and paths stacked, and a
single run is its P = 1 case.  ``step_reflected`` is the Euler increment
alone; ``run_paths`` owns every per-state quantity.  It steps in blocks
of ``NOISE_BLOCK`` steps, and each step computes only what the next one
reads: the increment, the cap of the new state (for h and for the next
advection) and its h.  Once per block it takes the norms, p and t, checks
|c| dt <= dx for every step a path was stepped from, finds each path's
end and hands the block to the observer.  It owns the work arrays: the
block's states and speeds, the step's scratch and the noise block are
allocated once per run and written in place, and coefficients that
ignore u are evaluated once.  Blow-up is a per-path flag, raised once
the pair norm reaches M_max or a step yields a non-finite value; the
path then stops with its last finite state, so no infinities are ever
handed on.  A stopped path keeps its batch row, which is stepped on with
the others but never drawn for, checked or handed on again.

Path k of a batch equals bit for bit the run of its own noise entry, so
``run_paths`` splits a batch into contiguous slices with one
``_workers.split`` call, steps each in its own process (the calling one,
forked children the others; one path forks nothing) and joins the
slices' ``finish`` lists in path order, with the same bytes for any
number of workers.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from ._csv import write_table
from ._fd import laplacian, upwind_gradient
from ._workers import split
from .boundary import BoundaryFunctional, cap_profile, eval_h
from .errors import CflViolation, ConfigError, DimensionMismatch, GridMismatch
from .grids import COMPACT, STABILITY_FACTOR, GridSpec, profile_norm
# sample_white_noise stays importable from here: the benchmark's tracer wraps it by name
from .noise import NoiseStream, sample_white_noise  # noqa: F401


@dataclass
class ModelCoefficients:
    """Drift and volatility of the relative coordinate, plus growth metadata.

    The callables take (x, u) arrays of equal shape and must broadcast.
    r and delta describe the half-line growth/decay envelope of condition
    |sigma(x, u)| <= growth_R * exp(-delta x) * (exp(r x) + |u|); when
    growth_R is set the envelope is spot-checked before half-line runs.
    ``u_free`` marks callables that ignore u (the constant, tabulated and
    exponentially decaying kinds): ``run_paths`` then evaluates them once
    per run instead of once per step.
    """

    f1: Callable
    f2: Callable
    sigma1: Callable
    sigma2: Callable
    r: float = 0.0
    delta: float = 0.0
    growth_R: float | None = None
    u_free: bool = False

    def terms(self, v: np.ndarray, grid: GridSpec):
        """Drift and dt * sigma at the (2, ..., n_nodes) stack v, each broadcastable to it."""
        x = grid.space_nodes()
        return (per_side(self.f1, self.f2, x, v),
                grid.dt * per_side(self.sigma1, self.sigma2, x, v))

    def validate_growth(self, grid: GridSpec) -> float:
        """Max violation of the volatility growth envelope at u in {0, 0.5, 2, 10}."""
        if self.growth_R is None:
            return 0.0
        x = grid.space_nodes()
        worst = 0.0
        bound_base = self.growth_R * np.exp(-self.delta * x)
        for u0 in (0.0, 0.5, 2.0, 10.0):
            u = np.full_like(x, float(u0))
            bound = bound_base * (np.exp(self.r * x) + np.abs(u))
            for sig in (self.sigma1, self.sigma2):
                worst = max(worst, float(np.max(np.abs(sig(x, u)) - bound)))
        return worst


def constant_coefficients(f: float = 0.0, sigma: float = 1.0, **meta) -> ModelCoefficients:
    """Spatially homogeneous drift/volatility, identical on both sides."""
    def drift(x, u):
        return np.full_like(np.asarray(x, dtype=float), f)

    def vol(x, u):
        return np.full_like(np.asarray(x, dtype=float), sigma)

    return ModelCoefficients(f1=drift, f2=drift, sigma1=vol, sigma2=vol, u_free=True, **meta)


def tabulated_coefficients(x_centers, f_values, sigma_values, **meta) -> ModelCoefficients:
    """Coefficients depending on the relative price only, linearly interpolated.

    The table is sorted by x; outside its range the end values are held
    constant.
    """
    # three lists of one length (or a ValueError), then sorted together by x
    table = np.array([x_centers, f_values, sigma_values], dtype=float)
    xc, fv, sv = table[:, np.argsort(table[0], kind="stable")]

    def drift(x, u):
        return np.interp(np.asarray(x, dtype=float), xc, fv)

    def vol(x, u):
        return np.interp(np.asarray(x, dtype=float), xc, sv)

    return ModelCoefficients(f1=drift, f2=drift, sigma1=vol, sigma2=vol, u_free=True, **meta)


def step_reflected(v: np.ndarray, capped: np.ndarray, c: np.ndarray, noise: np.ndarray,
                   terms, grid: GridSpec, lap_scale: float, out: np.ndarray, work) -> np.ndarray:
    """The explicit Euler increment of a batch of profile pairs over one step.

    ``v`` is the state as (2, P, n_nodes), side 1 then side 2, ``capped``
    its cap at the run's M, ``c`` the boundary speed h of each path at that
    state, ``noise`` the step's (2, P, n_nodes) white noise and ``terms``
    the (drift, dt * sigma) pair of ``ModelCoefficients.terms`` at v.
    Side 1 is advected with speed c and side 2 with -c, each upwinded by
    the sign of its own speed; the caller keeps |c| dt <= dx.  The new
    state, projected onto v >= 0 with the Dirichlet nodes re-zeroed, is
    written to ``out`` (never ``v`` itself) and returned.  ``work`` is a
    pair of C-contiguous scratch arrays of v's shape.
    """
    if v.ndim != 3 or v.shape[::2] != (2, grid.n_nodes) or noise.shape != v.shape:
        raise DimensionMismatch("state and noise must be (2, P, n_nodes) arrays")
    drift, dt_sigma = terms
    rate, kick = work
    speed = SIDE_SIGN * c[:, None]
    laplacian(v, grid.dx, out=rate)
    rate *= lap_scale
    upwind_gradient(capped, grid.dx, speed, out=kick)
    kick *= speed
    rate -= kick
    rate += drift
    rate *= grid.dt
    out = np.add(v, rate, out=out)
    out += np.multiply(dt_sigma, noise, out=kick)

    np.maximum(out, 0.0, out=out)
    out[..., ::grid.n_nodes - 1] = 0.0
    return out


#: side 1 is advected with the boundary speed c, side 2 with -c
SIDE_SIGN = np.array([1.0, -1.0]).reshape(2, 1, 1)


def per_side(f1: Callable, f2: Callable, x: np.ndarray, v: np.ndarray):
    """f1 on side 1 and f2 on side 2 of a (2, ...) stack v, broadcastable to it.

    The coefficients act node by node, so one function shared by both
    sides is called once on the whole stack.
    """
    if f1 is f2:
        return f1(x, v)
    shape = v.shape[1:]
    return np.stack((np.broadcast_to(f1(x, v[0]), shape),
                     np.broadcast_to(f2(x, v[1]), shape)))


BLOWUP_THRESHOLD = "threshold"
BLOWUP_NON_FINITE = "non_finite"

#: steps per block: the time rows of noise drawn per path and side at
#: once, and the states held before the per-block checks and hand-off;
#: bounds the memory held without changing any byte
NOISE_BLOCK = 128


@dataclass
class Trajectory:
    """Recorded output of one coupled run.

    ``blowup_cause`` is None, ``"threshold"`` (the pair norm reached
    M_max; the recorded run ends with that step) or ``"non_finite"`` (a
    step produced a non-finite value; it is discarded and the run ends
    with the last finite state).
    """

    grid: GridSpec
    times: np.ndarray = field(repr=False)
    p: np.ndarray = field(repr=False)
    p_prime: np.ndarray = field(repr=False)
    norm1: np.ndarray = field(repr=False)
    norm2: np.ndarray = field(repr=False)
    blowup_cause: str | None = None
    snapshot_times: np.ndarray | None = None
    v1_snapshots: np.ndarray | None = None
    v2_snapshots: np.ndarray | None = None

    @property
    def blown_up(self) -> bool:
        return self.blowup_cause is not None

    @property
    def tau_estimate(self) -> float | None:
        """Time of the stopping step: the last kept one, or the discarded non-finite one."""
        if self.blowup_cause is None:
            return None
        if self.blowup_cause == BLOWUP_NON_FINITE:
            return float(self.times[-1]) + self.grid.dt
        return float(self.times[-1])

    def to_csv(self, path, header_comment: str | None = None) -> None:
        """Long-format per-step record (step, t, p, p_prime, norm1, norm2)."""
        write_table(path, ["step", "t", "p", "p_prime", "norm1", "norm2"],
                    ["%d", "%.10g"] + ["%.17g"] * 4,
                    [np.arange(len(self.times)), self.times, self.p, self.p_prime,
                     self.norm1, self.norm2], header_comment)

    def profiles_to_csv(self, path, header_comment: str | None = None) -> None:
        """Per-stride profile dump (t, x, v1, v2); requires stride > 0."""
        if self.v1_snapshots is None or self.v2_snapshots is None:
            raise ValueError("trajectory was run without profile storage")
        write_table(path, ["t", "x", "v1", "v2"], ["%.10g", "%.10g", "%.17g", "%.17g"],
                    [self.snapshot_times[:, None], self.grid.space_nodes(),
                     self.v1_snapshots, self.v2_snapshots], header_comment)


class Recorder:
    """The default ``run_paths`` observer: one Trajectory per path.

    It keeps t, p, p' and both norms at every step, and both profiles at
    the steps 0, stride, 2 stride, ... and nt (none when stride is 0).

    An observer is called as ``observer(at, steps, t, p, p_prime, norms,
    v)`` for step 0 and then for each run of at most ``NOISE_BLOCK``
    steps over which the live paths stay the same.  ``steps`` is the
    slice of the m step numbers and ``at`` picks the paths (a slice while
    every path is live, an index array after one stopped).  Every value
    has a leading axis of those m steps: ``t`` is (m,), ``p`` and
    ``p_prime`` (m, P_live), ``norms`` (m, 2, P_live) and ``v`` the (m, 2,
    P_live, n_nodes) states, valid only during the call.  A path's
    threshold step is handed on; its discarded non-finite step is not,
    nor is anything stepped after its end.  ``finish(ends)``, given each
    path's ``(last_step, cause)`` pair (cause None for a path that ran to
    the end), returns what ``run_paths`` returns.
    """

    def __init__(self, grid: GridSpec, n_paths: int, stride: int = 0):
        self.grid, self.stride = grid, max(int(stride), 0)
        self.times = np.zeros(grid.nt + 1)
        self.record = np.empty((4, n_paths, grid.nt + 1))   # p, p', norm1, norm2
        if self.stride:
            self.snap_steps = np.union1d(np.arange(0, grid.nt + 1, self.stride), grid.nt)
            self.snaps = np.empty((2, n_paths, len(self.snap_steps), grid.n_nodes))

    def __call__(self, at, steps, t, p, p_prime, norms, v):
        self.times[steps] = t
        self.record[0, at, steps] = p.T
        self.record[1, at, steps] = p_prime.T
        self.record[2:, at, steps] = norms.transpose(1, 2, 0)
        if self.stride:
            lo, hi = np.searchsorted(self.snap_steps, (steps.start, steps.stop))
            self.snaps[:, at, lo:hi] = np.moveaxis(v[self.snap_steps[lo:hi] - steps.start], 0, 2)

    def finish(self, ends) -> list:
        trajectories = []
        for k, (step, cause) in enumerate(ends):
            stored = {}
            if self.stride:
                n = np.searchsorted(self.snap_steps, step, side="right")
                stored = {"snapshot_times": self.times[self.snap_steps[:n]],
                          "v1_snapshots": self.snaps[0, k, :n],
                          "v2_snapshots": self.snaps[1, k, :n]}
            p, p_prime, norm1, norm2 = self.record[:, k, :step + 1]
            trajectories.append(Trajectory(
                self.grid, self.times[:step + 1], p, p_prime, norm1, norm2,
                blowup_cause=cause, **stored))
        return trajectories


def check_initial(v1_0, v2_0, M: float, grid: GridSpec, boundary_fn: BoundaryFunctional):
    """Initial data as a (2, n_nodes) pair and its boundary speed h(cap(v1_0), cap(v2_0)).

    The profiles must be finite, >= 0 and zero at the Dirichlet nodes, M > 0
    and the speed finite.
    """
    v1_0, v2_0 = grid.check_profile(v1_0), grid.check_profile(v2_0)
    if v1_0.ndim != 1 or v2_0.ndim != 1:
        raise DimensionMismatch("initial data must be one profile per side")
    v0 = np.stack([v1_0, v2_0])
    if not (np.isfinite(v0) & (v0 >= 0)).all():
        raise ConfigError("initial profiles must be finite and nonnegative")
    if np.any(v0[:, [0, -1]] != 0):
        raise ConfigError("initial profiles must vanish at Dirichlet nodes")
    if not M > 0:
        raise ConfigError(f"truncation M={M} must be a positive number")
    # an overflow or inf * 0 in h is reported below, not warned about
    with np.errstate(invalid="ignore", over="ignore"):
        h0 = eval_h(boundary_fn, *cap_profile(v0, grid, M), grid)
    if not np.isfinite(h0):
        raise ConfigError(f"the boundary speed of the initial data is {h0}, not finite")
    return v0, h0


def _path_noise(k: int, noise, grid: GridSpec):
    """Path k's two noise streams, side 1 first, and its name in messages."""
    if isinstance(noise, tuple):
        first, second = noise
        if first.grid != grid or second.grid != grid:
            raise GridMismatch("supplied noise does not live on the run grid")
        return ((NoiseStream.from_field(first), NoiseStream.from_field(second)),
                f"path {k} (explicit noise)")
    seed = operator.index(noise)
    return (NoiseStream(grid, seed, 0), NoiseStream(grid, seed, 1)), f"path {k} (seed {seed})"


def run_paths(initial, coeffs: ModelCoefficients, boundary_fn: BoundaryFunctional,
              M: float, M_max: float, grid: GridSpec, noises, lap_scale: float = 1.0,
              make_observer=None) -> list:
    """Integrate one path per noise from common initial data, as one batch.

    ``initial`` is (v1_0, v2_0, p0).  ``noises`` names each path's noise:
    a seed, an integer in [0, 2**64) read from the streams (seed, 0) and
    (seed, 1), or a (NoiseField, NoiseField) pair on the run grid.  Path
    k equals bit for bit the run of ``noises[k]`` alone: every operation
    acts on each row by itself.
    A path that blows up keeps its batch row to the end of the run: the
    row is stepped on with the others, but after the path's end its
    streams are not drawn, its speeds are not checked and nothing of it is
    handed on.

    Every check is made and every noise entry resolved before the batch
    is cut into contiguous slices, one per ``_workers.split`` part; no
    byte depends on the cut.  ``make_observer(n)`` gives the observer of
    an n-path slice (see Recorder), by default a Recorder without
    profiles.  Returns the slices' ``finish`` lists, of each path's
    (last_step, cause) pair, joined in path order: by default one
    Trajectory per path.  A failure is raised as one process raises it:
    a CflViolation of the earliest step, then of the lowest path, and
    before any CflViolation any other error, or a child that ended
    without a result (a StefansimError naming its paths), of the lowest
    slice.  Every child has ended and been reaped when this returns or
    raises.
    """
    v1_0, v2_0, p0 = initial
    v0, h0 = check_initial(v1_0, v2_0, M, grid, boundary_fn)
    if not M <= M_max:
        raise ConfigError(f"truncation M={M} must not exceed M_max={M_max}")
    if not 0 < lap_scale < np.inf:
        raise ConfigError(f"lap_scale={lap_scale} must be a finite positive number")
    if lap_scale * grid.dt > STABILITY_FACTOR * grid.dx**2 * (1 + 1e-12):
        raise CflViolation(f"lap_scale * dt exceeds {STABILITY_FACTOR} * dx^2")
    if grid.domain_kind != COMPACT and (violation := coeffs.validate_growth(grid)) > 1e-9:
        raise ConfigError(f"volatility exceeds its growth envelope by {violation:.3g}")
    # a state per path is held in any case: numpy refuses a path count whose
    # arrays cannot fit now, before a stream of it is built
    np.empty((2, len(noises), grid.n_nodes))
    paths = [_path_noise(k, noise, grid) for k, noise in enumerate(noises)]
    if not paths:
        raise ConfigError("a run needs at least one path")
    make_observer = make_observer if make_observer is not None else partial(Recorder, grid)
    results = split(len(paths),
                    lambda lo, hi, *links: _step_paths(
                        v0, h0, float(p0), coeffs, boundary_fn, M, M_max, grid, lap_scale,
                        paths[lo:hi], make_observer(hi - lo)),
                    lambda lo, hi: f"stepping {paths[lo][1]} to {paths[hi - 1][1]}")
    failures = [result for result in results if isinstance(result, BaseException)]
    if failures:
        # the first of the lowest key is the lowest slice's
        raise min(failures, key=lambda exc: exc.step if isinstance(exc, CflViolation) else -1)
    return [entry for result in results for entry in result]


def _step_paths(v0, h0, p0, coeffs, boundary_fn, M, M_max, grid, lap_scale, paths, observer):
    """The stepping loop of ``run_paths`` over a slice of its checked ``paths``."""
    streams, labels = zip(*paths)
    n_paths = len(paths)
    nt, dt = grid.nt, grid.dt
    block = min(NOISE_BLOCK, nt)
    # a block's states and speeds, the step scratch and the noise block: one row per path
    states = np.empty((block + 1, 2, n_paths, grid.n_nodes))
    speeds = np.empty((block + 1, n_paths))
    work = np.empty((2, 2, n_paths, grid.n_nodes))
    xi = np.empty((2, n_paths, block, grid.n_nodes))
    states[0] = v0[:, None]
    speeds[0] = h0
    capped = cap_profile(states[0], grid, M)
    p, t = np.full(n_paths, p0), 0.0
    live = np.ones(n_paths, dtype=bool)
    ends = [(nt, None)] * n_paths
    cfl_limit = grid.dx * (1 + 1e-12)

    # a stopped path's row is stepped on to the end of the run, but its
    # overflows and inf - inf are never read, so numpy need not warn about
    # them; nor about u-free coefficients that overflow, which stop every
    # path at its first step
    with np.errstate(invalid="ignore", over="ignore"):
        fixed = coeffs.terms(states[0, :, :1], grid) if coeffs.u_free else None
        observer(slice(None), slice(0, 1), np.zeros(1), p[None], speeds[:1],
                 profile_norm(states[:1], grid), states[:1])
        for i0 in range(0, nt, block):
            m = min(block, nt - i0)
            for side in (0, 1):
                for k in np.flatnonzero(live):
                    streams[k][side].draw(m, out=xi[side, k, :m])
            for j in range(m):
                terms = fixed if fixed is not None else coeffs.terms(states[j], grid)
                step_reflected(states[j], capped, speeds[j], xi[:, :, j], terms, grid,
                               lap_scale=lap_scale, out=states[j + 1], work=work)
                capped = cap_profile(states[j + 1], grid, M)
                speeds[j + 1] = eval_h(boundary_fn, *capped, grid)

            norms = profile_norm(states[1:m + 1], grid)              # (m, 2, P)
            # sequential sums, as p + dt p' and t + dt step by step
            ps = np.cumsum(np.concatenate((p[None], dt * speeds[1:m + 1])), axis=0)
            ts = np.cumsum(np.concatenate(([t], np.full(m, dt))))
            # the sum is below M_max only if both norms and p are finite (0 * inf is nan)
            done = ~(norms[:, 0] + norms[:, 1] + 0.0 * ps[1:] < M_max)
            # each live path's first stopping step in the block, m + 1 for one
            # that runs on, 0 for one that stopped before the block
            stop = np.where(live, np.where(done.any(axis=0), done.argmax(axis=0) + 1, m + 1), 0)
            # a path is stepped from each of its states before its stopping step
            bad = (np.abs(speeds[:m]) * dt > cfl_limit) & (np.arange(m)[:, None] < stop)
            if bad.any():
                j, k = divmod(int(bad.argmax()), n_paths)       # earliest step, then path
                violation = CflViolation(
                    f"{labels[k]}: advection speed "
                    f"|c|={abs(speeds[j, k]):.3g} violates dt*|c| <= dx at t={ts[j]:.6g}")
                violation.step = i0 + j
                raise violation

            # the last state kept of each path: a threshold step is kept, a
            # non-finite one is discarded
            kept = np.minimum(stop, m)
            for k in np.flatnonzero(live & (stop <= m)):
                j = int(stop[k])
                if np.isfinite(norms[j - 1, :, k]).all() and np.isfinite(ps[j, k]):
                    ends[k] = (i0 + j, BLOWUP_THRESHOLD)
                else:
                    ends[k] = (i0 + j - 1, BLOWUP_NON_FINITE)
                    kept[k] = j - 1
            # one hand-off per run of steps with the same paths
            cuts = sorted({0, *kept.tolist()})
            for lo, hi in zip(cuts, cuts[1:]):
                on = kept >= hi
                at = slice(None) if on.all() else np.flatnonzero(on)
                observer(at, slice(i0 + lo + 1, i0 + hi + 1), ts[lo + 1:hi + 1],
                         ps[lo + 1:hi + 1, at], speeds[lo + 1:hi + 1, at],
                         norms[lo:hi, :, at], states[lo + 1:hi + 1, :, at])

            live = stop > m
            if not live.any():
                break
            # the last state opens the next block.  capped may view states[m]:
            # the next block reads it at its first step, before it is written again.
            states[0], speeds[0], p, t = states[m], speeds[m], ps[m], ts[m]
    return observer.finish(ends)


def run_relative_frame(initial, coeffs: ModelCoefficients,
                       boundary_fn: BoundaryFunctional, M: float, M_max: float,
                       grid: GridSpec, noise, store_stride: int = 0,
                       lap_scale: float = 1.0) -> Trajectory:
    """Integrate the coupled system over the whole grid horizon: one path of ``run_paths``.

    ``initial`` is (v1_0, v2_0, p0) and ``noise`` the path's entry, a seed
    or an explicit (NoiseField, NoiseField) pair that lets other schemes
    reuse one realisation.  The trajectory is a pure function of (initial,
    coeffs, boundary_fn, M, M_max, grid, noise).
    """
    return run_paths(initial, coeffs, boundary_fn, M, M_max, grid, [noise], lap_scale=lap_scale,
                     make_observer=lambda n: Recorder(grid, n, store_stride))[0]
