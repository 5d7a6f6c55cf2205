"""Constructive iteration for the truncated coupled system in mild form.

Each iterate solves the unreflected equation through its Duhamel
representation

    w(t, x) = int K(t, x, y) v0(y) dy
              -/+ int_0^t int dK/dy(t-s, x, y) h(s) cap(v_prev)(s, y) dy ds
              + int_0^t int K(t-s, x, y) f(y, v_prev(s, y)) dy ds
              + int_0^t int K(t-s, x, y) sigma(y, v_prev(s, y)) xi(s, y) dy ds

(K = the Dirichlet heat kernel of [0, L], with L = 1 on the compact
domain and the truncation length on the half-line; cap v_prev, capped
once at the run's M, gives both h(s) = h(cap v1_prev, cap v2_prev)(s)
and the transported profile; the advection sign is +dK/dy for side 1,
whose transport term is -h d/dx(cap v), and -dK/dy for side 2), then
restores the reflection by adding the solution of the obstacle problem
with obstacle -w, and repeats.  The fixed point is the reflected
solution, so the final pair cross-validates the direct finite-difference
integrator driven by the same noise realisation.

Both sides are carried together, side 1 first, the stepping core's
layout: the side signs and per-side coefficients are ``spde``'s, and one
stacked obstacle loop corrects both sides.

The kernel is taken in its sine modes,

    K(t, x, y) = sum_m phi_m(x) phi_m(y) exp(-lam_m t),
    phi_m(x) = sqrt(2/L) sin(m pi x / L),   lam_m = (m pi / L)^2,

so on the half-line the mild form solves the same problem as the direct
run, pinned to zero at x = L.  Spatial integrals use product
integration: the integrand is interpolated linearly on the grid and the
moments of phi_m and phi_m' against each hat function are closed form,
which keeps the kernel mass correct even when the kernel width
sqrt(4(t-s)) falls below dx.  Time integrals use the midpoint rule,
evaluating the kernel at t - s - dt/2, so the s -> t singularity is
never touched; there a mode weighs exp(-lam_m dt/2), and modes past
MODE_CUTOFF are dropped.  One noise realisation drives every iterate.

Cost and memory, for nt steps, J = nx + 1 nodes and K modes: the kernel
is three (J, K) factors, built once.  In mode coordinates each Duhamel
sum is one first-order recursion per mode, coef[n] = decay coef[n-1] +
new term, so an iterate solves both sides in O(nt J K) time.  The
iteration is causal: iterate k at step n + 1 reads iterate k - 1 only at
steps <= n.  So all iterates sweep through time together, in blocks of
B = ``SWEEP_BLOCK`` steps: in wave s, iterate k steps block s - k + 1,
stacked with the other live iterates, through one product with the
kernel factors, one recursion of B steps and one projected obstacle
loop of B steps.  That is about nt + (n_iters - 1) B Python steps per
loop in place of n_iters nt.  Each iterate keeps only its recursion
carry, its obstacle state, its running distance and its last B + 1
rows, and reads its noise block from the caller's pair, so a wave holds
O(n_iters B K) floats where a whole-iterate solve holds O(nt K).  What
stays whole is the caller's noise pair, the final pair and the direct
run's profiles, which the final gap is taken against one side at a
time, in place.  The arithmetic is the same whatever B is, so the
result is too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boundary import BoundaryFunctional, cap_profile, eval_h
from .errors import ConfigError, DimensionMismatch, GridMismatch, IterationFailure
from .grids import Field, GridSpec
from .noise import NoiseField
# solve_projected stays importable from here: the benchmark's tracer wraps it by
# name, though the sweep steps its obstacles with projected_steps
from .obstacle import projected_steps, solve_projected  # noqa: F401
from .spde import SIDE_SIGN, ModelCoefficients, check_initial, per_side, run_relative_frame

#: modes are kept while lam_m dt / 2 <= MODE_CUTOFF; the first dropped
#: one weighs below exp(-40) at the shortest kernel time
MODE_CUTOFF = 40.0

#: steps per block of the sweep: one wave holds n_iters * SWEEP_BLOCK * 2 * K
#: mode coefficients; any value gives the same bytes
SWEEP_BLOCK = 16


@dataclass
class KernelTables:
    """Sine-mode factors of the hat-function moments of the kernel.

    modes[j, m] = phi_m(x_j), decay[m] = exp(-lam_m dt),
    init[k, m] = int phi_m hat_k, mid_val = exp(-lam dt/2) init and
    mid_der[k, m] = exp(-lam dt/2) int phi_m' hat_k.  The lag tables are
    then, with D = diag(decay):

    int K(d*dt, x_j, y) hat_k(y) dy          = (modes D^d init.T)[j, k]
    int K((d+1/2)*dt, x_j, y) hat_k(y) dy    = (modes D^d mid_val.T)[j, k]
    int dK/dy((d+1/2)*dt, x_j, y) hat_k(y) dy = (modes D^d mid_der.T)[j, k]
    """

    grid: GridSpec
    modes: np.ndarray = field(repr=False)
    decay: np.ndarray = field(repr=False)
    init: np.ndarray = field(repr=False)
    mid_val: np.ndarray = field(repr=False)
    mid_der: np.ndarray = field(repr=False)


def build_kernel_tables(grid: GridSpec) -> KernelTables:
    """Sine-mode factors of the lag tables used by the mild solver."""
    nx, L, dx, dt = grid.nx, grid.length, grid.dx, grid.dt
    m = np.arange(1, math.ceil(L / np.pi * math.sqrt(2.0 * MODE_CUTOFF / dt)) + 1)
    a = m * np.pi / L
    # a_m x_j = pi ((m j) mod 2 nx) / nx, reduced exactly: no phase error at large m
    phase = np.pi / nx * ((np.arange(nx + 1)[:, None] * m) % (2 * nx))
    sin_ax, cos_ax = np.sin(phase), np.cos(phase)
    adx = a * dx
    # for an interior hat k, int sin(a y) hat_k = bump/a sin(a x_k)
    # and a int cos(a y) hat_k = bump cos(a x_k)
    bump = 4.0 * np.sin(0.5 * adx) ** 2 / adx
    val = bump / a * sin_ax
    der = bump * cos_ax
    der[[0, -1]] *= 0.5                                 # half hats at 0 and L
    # int_0^dx sin(a y)(1 - y/dx) dy; at L, sin(a(L - z)) = -cos(a L) sin(a z)
    val[0] = (adx - np.sin(adx)) / (a * adx)
    val[-1] = -cos_ax[-1] * val[0]
    norm = math.sqrt(2.0 / L)
    lam_dt = a * a * dt
    half = np.exp(-0.5 * lam_dt)
    return KernelTables(grid=grid, modes=norm * sin_ax, decay=np.exp(-lam_dt),
                        init=norm * val, mid_val=norm * half * val,
                        mid_der=norm * half * der)


def _mild_block(u: np.ndarray, xi: np.ndarray, carry: np.ndarray,
                coeffs: ModelCoefficients, boundary_fn: BoundaryFunctional, M: float,
                tables: KernelTables) -> np.ndarray:
    """One block of B steps of a stack of unreflected mild iterates, both sides.

    ``u`` and ``xi`` are (2, a, B, J): for each of a iterates, its previous
    iterate and the noise at the block's steps n, ..., n + B - 1.
    ``carry`` (a, 2, K) holds each iterate's Duhamel mode coefficients of
    step n - 1 (decay times them feeds step n; the initial data's
    coefficients before the first block) and is advanced in place to step
    n + B - 1.  Returns w at steps n + 1, ..., n + B as (2, a, B, J).
    """
    grid = tables.grid
    _, a, B, J = u.shape
    x = grid.space_nodes()
    # the stack's rows step by step, side first as the stepping core lays
    # them out: a step's coefficients are then contiguous for the recursion
    u, xi = (np.swapaxes(arr, 1, 2).reshape(2, B * a, J) for arr in (u, xi))
    # per row and side, the advection against dK/dy next to the forcing
    # against K; filled through its (2, Ba, 2J) view.  The capped pair is
    # written once, read by h, then scaled by the side's speed in place.
    signal = np.empty((B * a, 2, 2 * J))
    sides = np.moveaxis(signal, 1, 0)
    sides[..., :J] = cap_profile(u, grid, M)
    h = eval_h(boundary_fn, *sides[..., :J], grid)[:, None]
    sides[..., :J] *= SIDE_SIGN * h
    sides[..., J:] = (per_side(coeffs.f1, coeffs.f2, x, u)
                      + per_side(coeffs.sigma1, coeffs.sigma2, x, u) * xi)

    # mode coefficients of the Duhamel sums, (B, a, 2, K)
    coef = (signal @ np.concatenate([tables.mid_der, tables.mid_val])).reshape(B, a, 2, -1)
    coef *= grid.dt
    coef[0] += tables.decay * carry
    for n in range(1, B):
        coef[n] += tables.decay * coef[n - 1]
    carry[...] = coef[-1]
    w = (coef @ tables.modes.T).transpose(2, 1, 0, 3)
    w[..., [0, -1]] = 0.0
    return w


def mild_solve_w(v_prev: Field, coeffs: ModelCoefficients,
                 boundary_fn: BoundaryFunctional, M: float,
                 noise_pair: tuple[NoiseField, NoiseField], tables: KernelTables) -> Field:
    """Evaluate one unreflected mild iterate of both sides on the tables' grid.

    ``v_prev`` is the previous pair, side 1 first, as a (2, nt + 1, J)
    Field; side k is driven by ``noise_pair[k - 1]``.  Returns the pair
    w in the same layout: the sweep's block step, with one iterate and
    one block of nt steps.
    """
    grid = tables.grid
    if v_prev.values.shape[:-2] != (2,):
        raise DimensionMismatch(
            f"previous iterate must be a (2, nt + 1, J) pair, got {v_prev.values.shape}")
    if v_prev.grid != grid or any(noise.grid != grid for noise in noise_pair):
        raise GridMismatch("previous iterates and noise must live on the kernel tables' grid")
    if not M > 0:
        raise ConfigError(f"truncation M={M} must be a positive number")

    v0 = v_prev.values[:, 0]                                       # (2, J)
    xi = np.stack([noise_pair[0].xi, noise_pair[1].xi])
    carry = (v0 @ tables.init)[None]
    w = np.empty(v_prev.values.shape)
    w[:, 1:] = _mild_block(v_prev.values[:, None, :grid.nt], xi[:, None], carry,
                           coeffs, boundary_fn, M, tables)[:, 0]
    w[:, 0] = v0
    return Field(grid, w)


CONVERGENCE_TOL = 1e-4


@dataclass
class IterationReport:
    """Distances ``d`` of successive iterates, the final pair ``v``, its gap to the direct run."""

    d: list
    final_gap_vs_direct: float
    v: Field

    @property
    def converged(self) -> bool:
        return self.d[-1] <= CONVERGENCE_TOL

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "d": [float(v) for v in self.d],
            "iters": len(self.d),
            "converged": bool(self.converged),
            "final_gap_vs_direct": float(self.final_gap_vs_direct),
        }


def picard_iterate(v1_0: np.ndarray, v2_0: np.ndarray,
                   coeffs: ModelCoefficients, boundary_fn: BoundaryFunctional,
                   M: float, noise_pair: tuple[NoiseField, NoiseField],
                   grid: GridSpec, n_iters: int = 12) -> IterationReport:
    """Iterate the mild/obstacle alternation from constant-in-time iterates.

    The zeroth iterates equal the initial data for all time.  d_n sums the
    sides' sup-norm distances between successive iterates, and the final
    pair is compared against the direct explicit integrator driven by the
    identical noise realisation.  An iterate or a direct run that leaves
    the finite numbers raises IterationFailure.
    """
    if n_iters < 2:
        raise ConfigError("n_iters must be at least 2")
    v0, _ = check_initial(v1_0, v2_0, M, grid, boundary_fn)
    if any(noise.grid != grid for noise in noise_pair):
        raise GridMismatch("the noise must live on the iteration's grid")
    tables = build_kernel_tables(grid)
    nt, J = grid.nt, grid.n_nodes
    B = min(SWEEP_BLOCK, nt)
    n_blocks = -(-nt // B)

    # per iterate, the B + 1 rows of its latest block, starting at the row
    # the block steps from; iterate 0 is v0 for all time
    rows = np.empty((2, n_iters + 1, B + 1, J))
    rows[...] = v0[:, None, None]
    carry = np.repeat((v0 @ tables.init)[None], n_iters, axis=0)
    z = np.zeros((2, n_iters, J))                # each iterate's obstacle state
    dist = np.zeros((2, n_iters))                # each iterate's running sup distance
    v = np.empty((2, nt + 1, J))                 # the final iterate
    v[:, 0] = v0
    # iterate k + 1 reads iterate k only at earlier steps, so in wave s
    # iterate k + 1 steps block s - k, stacked with every other live iterate.
    # An overflow is reported from the distances below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(n_blocks + n_iters - 1):
            lo, hi = max(0, s - n_blocks + 1), min(n_iters, s + 1)
            blocks = s - np.arange(lo, hi)
            # the last block's rows past nt repeat the last noise row: they
            # are stepped, but no kept row or distance reads them
            steps = (blocks * B)[:, None] + np.arange(B)
            xi = np.stack([noise.xi.take(steps, axis=0, mode="clip") for noise in noise_pair])
            w = _mild_block(rows[:, lo:hi, :B], xi, carry[lo:hi], coeffs, boundary_fn, M, tables)
            # each iterate's obstacle correction over the block, from its state
            zb = np.empty(w.shape[:-2] + (B + 1, J))
            zb[..., 0, :] = z[:, lo:hi]
            projected_steps(zb, -w, grid)
            z[:, lo:hi] = zb[..., -1, :]
            new = w + zb[..., 1:, :]
            # only the oldest live iterate can be in the last, padded block
            valid = min(B, nt - blocks[0] * B)
            change = np.abs(new - rows[:, lo:hi, 1:])
            change[:, 0, valid:] = 0.0
            np.maximum(dist[:, lo:hi], change.max(axis=(2, 3)), out=dist[:, lo:hi])
            rows[:, lo + 1:hi + 1, 0] = rows[:, lo + 1:hi + 1, B]
            rows[:, lo + 1:hi + 1, 1:] = new
            if hi == n_iters:
                first = 1 + blocks[-1] * B
                v[:, first:first + B] = new[:, -1, :nt + 1 - first]
    d_hist = [float(d) for d in dist.sum(axis=0)]
    for k, d in enumerate(d_hist, start=1):
        if not math.isfinite(d):
            raise IterationFailure(f"iterate {k} of {n_iters} is not finite: its distance "
                                   f"to iterate {k - 1} is {d}")

    traj = run_relative_frame((v0[0], v0[1], 0.0), coeffs, boundary_fn, M=M, M_max=np.inf,
                              grid=grid, noise=tuple(noise_pair), store_stride=1)
    if traj.blown_up:
        raise IterationFailure(f"the direct run stopped at step {len(traj.times) - 1} of {nt} "
                               f"({traj.blowup_cause})")
    # side by side, in place: the direct run's profiles are not needed after
    gap = 0.0
    for direct, side in zip((traj.v1_snapshots, traj.v2_snapshots), v):
        direct -= side
        gap = max(gap, float(np.abs(direct, out=direct).max()))
    return IterationReport(d_hist, gap, Field(grid, v))
