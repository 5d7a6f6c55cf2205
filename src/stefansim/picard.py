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

The iterate is carried as one (2, nt + 1, J) pair, side 1 first, the
stepping core's layout: the side signs and per-side coefficients are
``spde``'s, and one stacked obstacle solve corrects both sides.

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
new term, so an iterate solves both sides in O(nt J K) time, and its
obstacle correction is one time loop of nt steps over the pair.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boundary import BoundaryFunctional, cap_profile, eval_h
from .errors import ConfigError, DimensionMismatch, GridMismatch
from .grids import Field, GridSpec
from .noise import NoiseField
from .obstacle import solve_projected
from .spde import SIDE_SIGN, ModelCoefficients, check_initial, per_side, run_relative_frame

#: modes are kept while lam_m dt / 2 <= MODE_CUTOFF; the first dropped
#: one weighs below exp(-40) at the shortest kernel time
MODE_CUTOFF = 40.0


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


def mild_solve_w(v_prev: Field, coeffs: ModelCoefficients,
                 boundary_fn: BoundaryFunctional, M: float,
                 noise_pair: tuple[NoiseField, NoiseField], tables: KernelTables) -> Field:
    """Evaluate one unreflected mild iterate of both sides on the tables' grid.

    ``v_prev`` is the previous pair, side 1 first, as a (2, nt + 1, J)
    Field; side k is driven by ``noise_pair[k - 1]``.  Returns the pair
    w in the same layout: one product with the kernel factors and one
    recursion serve both sides.
    """
    grid = tables.grid
    if v_prev.values.shape[:-2] != (2,):
        raise DimensionMismatch(
            f"previous iterate must be a (2, nt + 1, J) pair, got {v_prev.values.shape}")
    if v_prev.grid != grid or any(noise.grid != grid for noise in noise_pair):
        raise GridMismatch("previous iterates and noise must live on the kernel tables' grid")

    nt, J = grid.nt, grid.n_nodes
    x = grid.space_nodes()
    u = v_prev.values[:, :nt]
    xi = np.stack([noise_pair[0].xi, noise_pair[1].xi])
    # per step and side, the advection against dK/dy next to the forcing
    # against K; filled through its (2, nt, 2J) view.  The capped pair is
    # written once, read by h, then scaled by the side's speed in place.
    signal = np.empty((nt, 2, 2 * J))
    sides = np.moveaxis(signal, 1, 0)
    sides[..., :J] = cap_profile(u, grid, M)
    h = eval_h(boundary_fn, *sides[..., :J], grid)[:, None]
    sides[..., :J] *= SIDE_SIGN * h
    sides[..., J:] = (per_side(coeffs.f1, coeffs.f2, x, u)
                      + per_side(coeffs.sigma1, coeffs.sigma2, x, u) * xi)

    v0 = v_prev.values[:, 0]                                       # (2, J)
    # mode coefficients of the Duhamel sums, (nt, 2, K)
    coef = signal @ np.concatenate([tables.mid_der, tables.mid_val])
    coef *= grid.dt
    coef[0] += tables.decay * (v0 @ tables.init)
    for n in range(1, nt):
        coef[n] += tables.decay * coef[n - 1]
    w = np.empty((2, nt + 1, J))
    w[:, 1:] = np.moveaxis(coef @ tables.modes.T, 1, 0)
    w[:, :, [0, -1]] = 0.0
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
    identical noise realisation.
    """
    if n_iters < 2:
        raise ConfigError("n_iters must be at least 2")
    v0, _ = check_initial(v1_0, v2_0, M, grid, boundary_fn)
    tables = build_kernel_tables(grid)

    v = Field(grid, np.repeat(v0[:, None], grid.nt + 1, axis=1))
    d_hist = []
    for _ in range(n_iters):
        w = mild_solve_w(v, coeffs, boundary_fn, M, noise_pair, tables).values
        v_new = Field(grid, w + solve_projected(Field(grid, -w)).z.values)
        d_hist.append(float(np.max(np.abs(v_new.values - v.values), axis=(1, 2)).sum()))
        v = v_new

    traj = run_relative_frame((v0[0], v0[1], 0.0), coeffs, boundary_fn,
                              M=M, M_max=np.inf, grid=grid,
                              seed=noise_pair[0].seed, store_stride=1,
                              noise_pair=noise_pair)
    direct = np.stack([traj.v1_snapshots, traj.v2_snapshots])
    return IterationReport(d_hist, float(np.max(np.abs(direct - v.values))), v)
