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
single run is its P = 1 case.  Blow-up is a per-path flag, raised once
the pair norm reaches M_max or a step yields a non-finite value; the
path then stops with its last finite state, so no infinities are ever
stored.
"""
from __future__ import annotations

import bisect
import csv
import dataclasses
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._fd import laplacian, upwind_gradient
from .boundary import BoundaryFunctional, F_Mr, advance_p, eval_h
from .errors import CflViolation, ConfigError, DimensionMismatch, GridMismatch
from .grids import COMPACT, GridSpec
# sample_white_noise stays importable from here: the benchmark's tracer wraps it by name
from .noise import NoiseStream, sample_white_noise  # noqa: F401


@dataclass
class ModelCoefficients:
    """Drift and volatility of the relative coordinate, plus growth metadata.

    The callables take (x, u) arrays of equal shape and must broadcast.
    r and delta describe the half-line growth/decay envelope of condition
    |sigma(x, u)| <= growth_R * exp(-delta x) * (exp(r x) + |u|); when
    growth_R is set the envelope is spot-checked before half-line runs.
    """

    f1: Callable
    f2: Callable
    sigma1: Callable
    sigma2: Callable
    r: float = 0.0
    delta: float = 0.0
    lipschitz_C: float | None = None
    growth_R: float | None = None

    def validate_growth(self, grid: GridSpec, u_samples=(0.0, 0.5, 2.0, 10.0)) -> float:
        """Max violation of the volatility growth envelope on sampled (x, u)."""
        if self.growth_R is None:
            return 0.0
        x = grid.space_nodes()
        worst = 0.0
        bound_base = self.growth_R * np.exp(-self.delta * x)
        for u0 in u_samples:
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

    return ModelCoefficients(f1=drift, f2=drift, sigma1=vol, sigma2=vol, **meta)


def tabulated_coefficients(x_centers, f_values, sigma_values, **meta) -> ModelCoefficients:
    """Coefficients depending on the relative price only, linearly interpolated.

    Outside the tabulated range the end values are held constant.
    """
    xc = np.asarray(x_centers, dtype=float)
    fv = np.asarray(f_values, dtype=float)
    sv = np.asarray(sigma_values, dtype=float)

    def drift(x, u):
        return np.interp(np.asarray(x, dtype=float), xc, fv)

    def vol(x, u):
        return np.interp(np.asarray(x, dtype=float), xc, sv)

    return ModelCoefficients(f1=drift, f2=drift, sigma1=vol, sigma2=vol, **meta)


@dataclass
class CoupledState:
    """One path's profile pair in the relative frame plus boundary bookkeeping.

    The integrator works on (2, P, n_nodes) arrays; this record is the
    state a path's Trajectory ends in.
    """

    v1: np.ndarray
    v2: np.ndarray
    p: float
    p_prime: float = 0.0
    time: float = 0.0
    blown_up: bool = False
    tau_estimate: float | None = None


def weighted_norm(profile: np.ndarray, grid: GridSpec, r: float):
    """sup over grid nodes of exp(-r x) |u(x)| (half-line solution norm).

    A stack of profiles gives one norm per row.
    """
    if grid.domain_kind == COMPACT:
        raise GridMismatch("weighted norm is defined for half-line grids")
    profile = grid.check_profile(profile)
    norm = np.maximum.reduce(np.exp(-r * grid.space_nodes()) * np.abs(profile), axis=-1)
    return float(norm) if profile.ndim == 1 else norm


def profile_norm(profile: np.ndarray, grid: GridSpec):
    """Domain-appropriate norm: sup on compact, weighted sup on half-line.

    A stack of profiles gives one norm per row.
    """
    if grid.domain_kind == COMPACT:
        profile = np.asarray(profile, dtype=float)
        norm = np.maximum.reduce(np.abs(profile), axis=-1)
        return float(norm) if profile.ndim == 1 else norm
    return weighted_norm(profile, grid, grid.weight_r)


def resolve_truncation(boundary_fn: BoundaryFunctional, M: float) -> BoundaryFunctional:
    """Push the run-level truncation M into the functional; reject conflicts."""
    if boundary_fn.truncation_M is not None and boundary_fn.truncation_M != M:
        raise ConfigError(
            f"boundary functional truncation {boundary_fn.truncation_M} "
            f"differs from run truncation M={M}"
        )
    if boundary_fn.truncation_M is None and np.isfinite(M):
        return dataclasses.replace(boundary_fn, truncation_M=float(M))
    return boundary_fn


def cap_profile(v: np.ndarray, grid: GridSpec, M: float) -> np.ndarray:
    """Truncate profiles: v ^ M on the compact domain, F_{M,r} on the half-line."""
    if not np.isfinite(M):
        return v
    if grid.domain_kind == COMPACT:
        return np.minimum(v, M)
    return F_Mr(v, grid, M, grid.weight_r)


def step_reflected(v: np.ndarray, c: np.ndarray, noise: np.ndarray,
                   coeffs: ModelCoefficients, boundary_fn: BoundaryFunctional,
                   M: float, grid: GridSpec, lap_scale: float = 1.0,
                   time: float = 0.0, paths=None, out: np.ndarray | None = None):
    """Advance a batch of profile pairs by one explicit Euler step.

    ``v`` is the state as (2, P, n_nodes), side 1 then side 2, ``c`` the
    boundary speed h of each path at that state and ``noise`` the step's
    (2, P, n_nodes) white noise.  Side 1 is advected with speed c and
    side 2 with -c, each upwinded by the sign of its own speed.  The new
    state, projected onto v >= 0 with the Dirichlet nodes re-zeroed, is
    written to ``out`` (a new array when None; never ``v`` itself) and
    returned with its boundary speeds.  A path with |c| dt > dx raises
    CflViolation naming it as ``paths[k]`` (its row k when None).
    """
    if v.ndim != 3 or v.shape[::2] != (2, grid.n_nodes) or noise.shape != v.shape:
        raise DimensionMismatch("state and noise must be (2, P, n_nodes) arrays")
    dx, dt = grid.dx, grid.dt
    x = grid.space_nodes()
    fn = resolve_truncation(boundary_fn, M)
    limit = dx * (1 + 1e-12)
    if not np.max(np.abs(c)) * dt <= limit:
        fast = np.abs(c) * dt > limit
        if fast.any():
            k = int(np.argmax(fast))
            raise CflViolation(
                f"path {k if paths is None else paths[k]}: advection speed "
                f"|c|={abs(c[k]):.3g} violates dt*|c| <= dx at t={time:.6g}"
            )

    speed = _SIDE_SIGN * c[:, None]
    rate = (lap_scale * laplacian(v, dx)
            - speed * upwind_gradient(cap_profile(v, grid, M), dx, speed))
    rate += _per_side(coeffs.f1, coeffs.f2, x, v)
    rate *= dt
    out = np.add(v, rate, out=out)
    out += dt * _per_side(coeffs.sigma1, coeffs.sigma2, x, v) * noise

    np.maximum(out, 0.0, out=out)
    out[..., ::grid.n_nodes - 1] = 0.0
    return out, eval_h(fn, out[0], out[1], grid)


#: side 1 is advected with the boundary speed c, side 2 with -c
_SIDE_SIGN = np.array([1.0, -1.0]).reshape(2, 1, 1)


def _per_side(f1: Callable, f2: Callable, x: np.ndarray, v: np.ndarray):
    """f1 on side 1 and f2 on side 2 of a (2, P, n) state, broadcastable to it.

    The coefficients act node by node, so one function shared by both
    sides is called once on the whole state.
    """
    if f1 is f2:
        return f1(x, v)
    shape = v.shape[1:]
    return np.stack((np.broadcast_to(f1(x, v[0]), shape),
                     np.broadcast_to(f2(x, v[1]), shape)))


class _SnapshotStore:
    """The default snapshot sink: every stored step's profiles in one array."""

    def __init__(self, shape):
        self.snaps = np.empty(shape)       # (sides, P, n_snaps, n_nodes)
        self.n = 0

    def __call__(self, at, profiles):
        self.snaps[:, at, self.n] = profiles
        self.n += 1


BLOWUP_THRESHOLD = "threshold"
BLOWUP_NON_FINITE = "non_finite"

#: time rows of noise drawn per path and side at once; bounds the noise
#: held in memory without changing any draw
NOISE_BLOCK = 256


@dataclass
class Trajectory:
    """Recorded output of one coupled run.

    ``blowup_cause`` is None, ``"threshold"`` (the pair norm reached
    M_max; the recorded run ends with that step) or ``"non_finite"`` (a
    step produced a non-finite value; it is discarded and the run ends
    with the last finite state).
    """

    grid: GridSpec
    seed: int
    M: float
    M_max: float
    lap_scale: float
    times: np.ndarray = field(repr=False)
    p: np.ndarray = field(repr=False)
    p_prime: np.ndarray = field(repr=False)
    norm1: np.ndarray = field(repr=False)
    norm2: np.ndarray = field(repr=False)
    blown_up: bool = False
    tau_estimate: float | None = None
    blowup_cause: str | None = None
    stride: int = 0
    snapshot_times: np.ndarray | None = None
    v1_snapshots: np.ndarray | None = None
    v2_snapshots: np.ndarray | None = None
    final_state: CoupledState | None = None

    def to_csv(self, path, header_comment: str | None = None) -> None:
        """Long-format per-step record (step, t, p, p_prime, norm1, norm2)."""
        with open(path, "w", newline="") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            writer = csv.writer(fh)
            writer.writerow(["step", "t", "p", "p_prime", "norm1", "norm2"])
            for i in range(len(self.times)):
                writer.writerow([i, f"{self.times[i]:.10g}", f"{self.p[i]:.17g}",
                                 f"{self.p_prime[i]:.17g}", f"{self.norm1[i]:.17g}",
                                 f"{self.norm2[i]:.17g}"])

    def profiles_to_csv(self, path, header_comment: str | None = None) -> None:
        """Per-stride profile dump (t, x, v1, v2); requires stride > 0."""
        if self.v1_snapshots is None or self.v2_snapshots is None:
            raise ValueError("trajectory was run without profile storage")
        xs = self.grid.space_nodes()
        with open(path, "w", newline="") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            writer = csv.writer(fh)
            writer.writerow(["t", "x", "v1", "v2"])
            for k, t in enumerate(self.snapshot_times):
                for j, x in enumerate(xs):
                    writer.writerow([f"{t:.10g}", f"{x:.10g}",
                                     f"{self.v1_snapshots[k, j]:.17g}",
                                     f"{self.v2_snapshots[k, j]:.17g}"])


def run_paths(initial, coeffs: ModelCoefficients, boundary_fn: BoundaryFunctional,
              M: float, M_max: float, grid: GridSpec, seeds, store_stride: int = 0,
              lap_scale: float = 1.0, noise_pair=None,
              store_sides=(1, 2), sink=None) -> list:
    """Integrate one path per seed from common initial data, as one batch.

    ``initial`` is (v1_0, v2_0, p0).  Path k is driven by the noise
    streams (seeds[k], 0) and (seeds[k], 1), and equals bit for bit the
    run of that seed alone: every operation acts on each row by itself.
    A path that blows up leaves the batch, frozen, and its Trajectory
    ends there.  Every ``store_stride`` steps (and at step 0 and the
    last step) the profiles of the sides in ``store_sides`` go to
    ``sink(at, profiles)``: ``profiles`` is (sides, P_live, n_nodes) and
    ``at`` the paths' indices, a slice while every path is live.  A
    path's discarded non-finite step is not handed on.  The default sink
    keeps the profiles as the Trajectories' snapshots.  An explicit
    (NoiseField, NoiseField) ``noise_pair`` drives a single path in
    place of the seeded streams.
    Returns one Trajectory per seed, in order.
    """
    v1_0, v2_0, p0 = initial
    v1_0 = grid.check_profile(v1_0)
    v2_0 = grid.check_profile(v2_0)
    if v1_0.ndim != 1 or v2_0.ndim != 1:
        raise DimensionMismatch("initial data must be one profile per side")
    if not (np.isfinite(v1_0).all() and np.isfinite(v2_0).all()):
        raise ConfigError("initial profiles must be finite")
    if np.any(v1_0 < 0) or np.any(v2_0 < 0):
        raise ConfigError("initial profiles must be nonnegative")
    if v1_0[0] != 0 or v2_0[0] != 0 or v1_0[-1] != 0 or v2_0[-1] != 0:
        raise ConfigError("initial profiles must vanish at Dirichlet nodes")
    if not M <= M_max:
        raise ConfigError(f"truncation M={M} must not exceed M_max={M_max}")
    if lap_scale * grid.dt > 0.5 * grid.dx**2 * (1 + 1e-12):
        raise CflViolation("lap_scale * dt exceeds 0.5 * dx^2")
    if grid.domain_kind != COMPACT and coeffs.growth_R is not None:
        violation = coeffs.validate_growth(grid)
        if violation > 1e-9:
            raise ConfigError(
                f"volatility exceeds its growth envelope by {violation:.3g}"
            )
    seeds = [int(s) for s in seeds]
    n_paths = len(seeds)
    if n_paths < 1:
        raise ConfigError("a run needs at least one path")
    if noise_pair is None:
        streams = [[NoiseStream(grid, s, side) for s in seeds] for side in (0, 1)]
    else:
        if n_paths != 1:
            raise ConfigError("an explicit noise pair drives exactly one path")
        if noise_pair[0].grid != grid or noise_pair[1].grid != grid:
            raise GridMismatch("supplied noise does not live on the run grid")
        streams = [[NoiseStream.from_field(noise_pair[0])],
                   [NoiseStream.from_field(noise_pair[1])]]
    if not store_sides or not set(store_sides) <= {1, 2}:
        raise ConfigError("store_sides must name side 1, side 2 or both")
    kept = slice(min(store_sides) - 1, max(store_sides))

    fn = resolve_truncation(boundary_fn, M)
    nt, dt = grid.nt, grid.dt
    v = np.empty((2, n_paths, grid.n_nodes))
    v[0], v[1] = v1_0, v2_0
    spare = np.empty_like(v)
    p = np.full(n_paths, float(p0))
    pp = eval_h(fn, v[0], v[1], grid)

    times = np.zeros(nt + 1)
    record = np.empty((4, n_paths, nt + 1))          # p, p', norm1, norm2
    record[0, :, 0], record[1, :, 0] = p, pp
    record[2:, :, 0] = profile_norm(v, grid)
    store = None
    if store_stride > 0:
        snap_steps = list(range(0, nt + 1, store_stride))
        if snap_steps[-1] != nt:
            snap_steps.append(nt)
        if sink is None:
            store = sink = _SnapshotStore(
                (kept.stop - kept.start, n_paths, len(snap_steps), grid.n_nodes))
        sink(slice(None), v[kept])
    elif sink is not None:
        raise ConfigError("a snapshot sink needs store_stride > 0")

    block = min(NOISE_BLOCK, nt)
    xi = np.empty((block, 2, n_paths, grid.n_nodes))
    rows = np.arange(n_paths)              # path index of each batch row
    at = slice(None)                       # the batch rows' places in record and sink
    labels = [f"{k} (seed {s})" for k, s in enumerate(seeds)]
    ends = [nt] * n_paths
    causes = [None] * n_paths
    finals = [None] * n_paths

    t = 0.0
    # a step that overflows or meets inf - inf is flagged non-finite and
    # discarded below, so numpy need not warn about it
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(nt):
            j = i % block
            if j == 0:
                n_rows = min(block, nt - i)
                for side in (0, 1):
                    for a, k in enumerate(rows):
                        xi[:n_rows, side, a] = streams[side][k].draw(n_rows)
            t_new = t + dt
            new, pp_new = step_reflected(v, pp, xi[j], coeffs, fn, M, grid,
                                         lap_scale=lap_scale, time=t, paths=labels,
                                         out=spare)
            p_new = advance_p(p, pp_new, dt)
            norms = profile_norm(new, grid)
            step = i + 1
            times[step] = t_new
            record[0, at, step] = p_new
            record[1, at, step] = pp_new
            record[2:, at, step] = norms
            snap = store_stride > 0 and (step % store_stride == 0 or step == nt)

            # one test covers the usual step, where no path stops: the sum is
            # below M_max only if both norms and p are finite (0 * inf is nan)
            total = norms[0] + norms[1]
            if np.all(total + 0.0 * p_new < M_max):
                if snap:
                    sink(at, new[kept])
            else:
                # p' is finite whenever p is.  A threshold blow-up keeps its
                # step; a non-finite one falls back to the last finite state.
                finite = np.isfinite(norms).all(axis=0) & np.isfinite(p_new)
                done = ~finite | (total >= M_max)
                for a in np.flatnonzero(done):
                    k = rows[a]
                    if finite[a]:
                        ends[k], causes[k] = step, BLOWUP_THRESHOLD
                        finals[k] = CoupledState(new[0, a].copy(), new[1, a].copy(),
                                                 float(p_new[a]), float(pp_new[a]), t_new,
                                                 blown_up=True, tau_estimate=t_new)
                    else:
                        ends[k], causes[k] = i, BLOWUP_NON_FINITE
                        finals[k] = CoupledState(v[0, a].copy(), v[1, a].copy(),
                                                 float(p[a]), float(pp[a]), t,
                                                 blown_up=True, tau_estimate=t_new)
                if snap:
                    sink(rows[finite], new[kept][:, finite])
                live = ~done
                rows = at = rows[live]
                labels = [lab for lab, keep in zip(labels, live) if keep]
                new, v = new[:, live], v[:, live]
                p_new, pp_new = p_new[live], pp_new[live]
                xi = xi[:, :, live]
                if rows.size == 0:
                    break
            v, spare = new, v
            p, pp, t = p_new, pp_new, t_new

    for a, k in enumerate(rows):
        finals[k] = CoupledState(v[0, a], v[1, a], float(p[a]), float(pp[a]), t)

    trajectories = []
    for k, seed in enumerate(seeds):
        end = ends[k] + 1
        stored = {}
        if store is not None:
            count = bisect.bisect_right(snap_steps, ends[k])
            stored["snapshot_times"] = times[snap_steps[:count]]
            for pos, name in enumerate(("v1_snapshots", "v2_snapshots")[kept]):
                stored[name] = store.snaps[pos, k, :count]
        trajectories.append(Trajectory(
            grid=grid, seed=seed, M=float(M), M_max=float(M_max),
            lap_scale=float(lap_scale), times=times[:end],
            p=record[0, k, :end], p_prime=record[1, k, :end],
            norm1=record[2, k, :end], norm2=record[3, k, :end],
            blown_up=causes[k] is not None, tau_estimate=finals[k].tau_estimate,
            blowup_cause=causes[k], stride=int(store_stride),
            final_state=finals[k], **stored))
    return trajectories


def run_relative_frame(initial, coeffs: ModelCoefficients,
                       boundary_fn: BoundaryFunctional, M: float, M_max: float,
                       grid: GridSpec, seed: int, store_stride: int = 0,
                       lap_scale: float = 1.0,
                       noise_pair=None) -> Trajectory:
    """Integrate the coupled system over the whole grid horizon.

    ``initial`` is (v1_0, v2_0, p0).  Both driving noises derive from
    ``seed`` on independent streams, so the full trajectory is a pure
    function of (initial, coeffs, boundary_fn, M, M_max, grid, seed).
    Passing an explicit (NoiseField, NoiseField) pair overrides the
    seeded generation, which lets other schemes reuse one realisation.
    This is the one-path batch of ``run_paths``.
    """
    return run_paths(initial, coeffs, boundary_fn, M, M_max, grid, [seed],
                     store_stride=store_stride, lap_scale=lap_scale,
                     noise_pair=noise_pair)[0]


def absolute_coordinates(p: float, grid: GridSpec, side: int) -> np.ndarray:
    """Map relative grid nodes to absolute positions: p - x (side 1), p + x (side 2)."""
    x = grid.space_nodes()
    if side == 1:
        return p - x
    if side == 2:
        return p + x
    raise ValueError("side must be 1 or 2")
