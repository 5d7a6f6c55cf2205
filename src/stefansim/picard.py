"""Constructive iteration for the truncated coupled system in mild form.

Each iterate solves the unreflected equation through its Duhamel
representation

    w(t, x) = int K(t, x, y) v0(y) dy
              -/+ int_0^t int dK/dy(t-s, x, y) h(s) cap(v_prev)(s, y) dy ds
              + int_0^t int K(t-s, x, y) f(y, v_prev(s, y)) dy ds
              + int_0^t int K(t-s, x, y) sigma(y, v_prev(s, y)) xi(s, y) dy ds

(K = compact image-series kernel or the half-line kernel; the advection
sign is +dK/dy for side 1, whose transport term is -h d/dx(cap v), and
-dK/dy for side 2), then restores the reflection by adding the solution
of the obstacle problem with obstacle -w, and repeats.  The fixed point
is the reflected solution, so the final pair cross-validates the direct
finite-difference integrator driven by the same noise realisation.

Spatial integrals use product integration: the integrand is interpolated
linearly on the grid and its product with each Gaussian image is
integrated exactly (erf), which keeps the kernel mass correct even when
the kernel width sqrt(4(t-s)) falls below dx.  Time integrals use the
midpoint rule, evaluating the kernel at t - s - dt/2, so the s -> t
singularity is never touched.  One noise realisation drives every
iterate.  Kernel tables cost O(nt * nx^2) memory; they are built once
and reused across iterations.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .boundary import BoundaryFunctional, eval_h
from .errors import ConfigError, GridMismatch
from .grids import COMPACT, Field, GridSpec
from .kernels import suggest_n_images
from .noise import NoiseField
from .obstacle import solve_projected
from .spde import (ModelCoefficients, cap_profile, resolve_truncation,
                   run_relative_frame)

SQRT_PI = np.sqrt(np.pi)


@dataclass
class KernelTables:
    """Hat-function moments of the Dirichlet kernel on a fixed grid.

    init[d-1][j, k]    = int K(d*dt, x_j, y) hat_k(y) dy          d = 1..nt
    mid_val[d][j, k]   = int K((d+1/2)*dt, x_j, y) hat_k(y) dy    d = 0..nt-1
    mid_der[d][j, k]   = int dK/dy((d+1/2)*dt, x_j, y) hat_k(y) dy
    """

    grid: GridSpec
    n_images: int
    init: np.ndarray = field(repr=False)
    mid_val: np.ndarray = field(repr=False)
    mid_der: np.ndarray = field(repr=False)


def _hat_moment_matrices(t: float, grid: GridSpec, n_images: int):
    """Value and derivative hat-moment matrices at a single kernel time.

    Works for both domains: the compact kernel sums images n in
    [-n_images, n_images]; the half-line kernel is the single n = 0 pair.
    The derivative moments are obtained by parts, -int K hat', which is
    exact because K vanishes at y = 0 (and at y = 1 for the compact
    kernel); at the artificial half-line boundary the dropped term
    K(t, x, L) hat(L) only ever multiplies integrands that vanish there.
    """
    nodes = grid.space_nodes()
    J = grid.n_nodes
    dx = grid.dx
    s = np.sqrt(4.0 * t)
    shifts = 2.0 * np.arange(-n_images, n_images + 1)

    # erf/exp lookup tables over node differences (family A: centers x_j + 2n)
    # and node sums (family B: centers -(x_j + 2n)); arguments are
    # ((a - j) dx - 2n)/s and ((a + j) dx + 2n)/s for node index a.
    diff = np.arange(-(J - 1), J) * dx                 # (2J-1,)
    summ = np.arange(0, 2 * J - 1) * dx                # (2J-1,)
    argA = (diff[:, None] - shifts[None, :]) / s       # (2J-1, n_img)
    argB = (summ[:, None] + shifts[None, :]) / s
    erfA, expA = erf(argA), np.exp(-argA * argA)
    erfB, expB = erf(argB), np.exp(-argB * argB)

    j_idx = np.arange(J)[:, None]                      # (J, 1)
    m_idx = np.arange(J - 1)[None, :]                  # (1, J-1) segment starts
    dA_lo = m_idx - j_idx + (J - 1)                    # index of a=m in diff table
    dA_hi = dA_lo + 1                                  # a = m+1
    dB_lo = m_idx + j_idx
    dB_hi = dB_lo + 1

    half_s_sqrtpi = 0.5 * s * SQRT_PI
    i0_A = half_s_sqrtpi * (erfA[dA_hi] - erfA[dA_lo])          # (J, J-1, n_img)
    i0_B = half_s_sqrtpi * (erfB[dB_hi] - erfB[dB_lo])
    cA = nodes[:, None, None] + shifts[None, None, :]
    cB = -cA
    half_s2 = 0.5 * s * s
    i1_A = cA * i0_A + half_s2 * (expA[dA_lo] - expA[dA_hi])
    i1_B = cB * i0_B + half_s2 * (expB[dB_lo] - expB[dB_hi])

    norm = 1.0 / np.sqrt(4.0 * np.pi * t)
    seg_i0 = (i0_A - i0_B).sum(axis=2) * norm                   # (J, J-1)
    seg_i1 = (i1_A - i1_B).sum(axis=2) * norm

    x_lo = nodes[:-1][None, :]
    x_hi = nodes[1:][None, :]
    rise = (seg_i1 - x_lo * seg_i0) / dx    # weight (y - x_m)/dx on segment m
    fall = (x_hi * seg_i0 - seg_i1) / dx    # weight (x_{m+1} - y)/dx

    val = np.zeros((J, J))
    val[:, 1:] += rise
    val[:, :-1] += fall
    der = np.zeros((J, J))
    der[:, 1:] -= seg_i0 / dx
    der[:, :-1] += seg_i0 / dx
    return val, der


def build_kernel_tables(grid: GridSpec, n_images: int | None = None) -> KernelTables:
    """Assemble the full lag tables used by the mild solver."""
    if n_images is None:
        n_images = suggest_n_images(grid.T) if grid.domain_kind == COMPACT else 0
    elif grid.domain_kind != COMPACT:
        n_images = 0
    nt, J = grid.nt, grid.n_nodes
    dt = grid.dt
    init = np.empty((nt, J, J))
    mid_val = np.empty((nt, J, J))
    mid_der = np.empty((nt, J, J))
    for d in range(nt):
        init[d], _ = _hat_moment_matrices((d + 1) * dt, grid, n_images)
        mid_val[d], mid_der[d] = _hat_moment_matrices((d + 0.5) * dt, grid, n_images)
    return KernelTables(grid=grid, n_images=n_images, init=init,
                        mid_val=mid_val, mid_der=mid_der)


def _causal_convolve(kernel: np.ndarray, signal: np.ndarray) -> np.ndarray:
    """out[i] = sum_{s <= i} kernel[i - s] @ signal[s] via FFT over time."""
    nt = kernel.shape[0]
    L = 1
    while L < 2 * nt:
        L *= 2
    kf = np.fft.rfft(kernel, n=L, axis=0)
    sf = np.fft.rfft(signal, n=L, axis=0)
    prod = np.einsum("fjk,fk->fj", kf, sf)
    return np.fft.irfft(prod, n=L, axis=0)[:nt]


def mild_solve_w(v1_prev: Field, v2_prev: Field, coeffs: ModelCoefficients,
                 boundary_fn: BoundaryFunctional, M: float, noise: NoiseField,
                 grid: GridSpec, side: int = 1,
                 tables: KernelTables | None = None) -> Field:
    """Evaluate one unreflected mild iterate on the whole grid."""
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    if v1_prev.grid != grid or v2_prev.grid != grid or noise.grid != grid:
        raise GridMismatch("previous iterates and noise must live on the grid")
    if tables is None:
        tables = build_kernel_tables(grid)
    fn = resolve_truncation(boundary_fn, M)

    nt, J = grid.nt, grid.n_nodes
    dt = grid.dt
    x = grid.space_nodes()
    own_prev = v1_prev if side == 1 else v2_prev
    v0 = own_prev.values[0]
    drift_fn = coeffs.f1 if side == 1 else coeffs.f2
    vol_fn = coeffs.sigma1 if side == 1 else coeffs.sigma2
    adv_sign = 1.0 if side == 1 else -1.0

    h_vals = eval_h(fn, v1_prev.values[:nt], v2_prev.values[:nt], grid)
    adv_sig = h_vals[:, None] * cap_profile(own_prev.values[:nt], grid, M)
    # coefficients that ignore u may return a single spatial row; broadcast
    drift_sig = np.broadcast_to(
        np.asarray(drift_fn(x[None, :], own_prev.values[:nt]), dtype=float), (nt, J))
    stoch_sig = np.broadcast_to(
        np.asarray(vol_fn(x[None, :], own_prev.values[:nt]), dtype=float), (nt, J)) * noise.xi

    conv_adv = _causal_convolve(tables.mid_der, adv_sig)
    conv_drift = _causal_convolve(tables.mid_val, drift_sig)
    conv_stoch = _causal_convolve(tables.mid_val, stoch_sig)

    w = np.zeros((nt + 1, J))
    w[0] = v0
    w[1:] = (tables.init @ v0
             + dt * (adv_sign * conv_adv + conv_drift + conv_stoch))
    w[:, 0] = 0.0
    w[:, -1] = 0.0
    w[0] = v0
    return Field(grid, w)


@dataclass
class IterationReport:
    """Convergence record of one iteration run."""

    d: list
    iters: int
    converged: bool
    final_gap_vs_direct: float | None = None
    v1: Field | None = None
    v2: Field | None = None
    z1_mass: float = 0.0
    z2_mass: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "d": [float(v) for v in self.d],
            "iters": int(self.iters),
            "converged": bool(self.converged),
            "final_gap_vs_direct": (None if self.final_gap_vs_direct is None
                                    else float(self.final_gap_vs_direct)),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


CONVERGENCE_TOL = 1e-4


def picard_iterate(v1_0: np.ndarray, v2_0: np.ndarray,
                   coeffs: ModelCoefficients, boundary_fn: BoundaryFunctional,
                   M: float, noise_pair: tuple[NoiseField, NoiseField],
                   grid: GridSpec, n_iters: int = 12,
                   tables: KernelTables | None = None,
                   compare_direct: bool = False) -> IterationReport:
    """Iterate the mild/obstacle alternation from constant-in-time iterates.

    The zeroth iterates equal the initial data for all time.  d_n is the
    sup-norm distance between successive pairs; when ``compare_direct``
    is set the final pair is compared against the direct explicit
    integrator driven by the identical noise realisation.
    """
    if n_iters < 2:
        raise ConfigError("n_iters must be at least 2")
    v1_0 = grid.check_profile(v1_0)
    v2_0 = grid.check_profile(v2_0)
    if tables is None:
        tables = build_kernel_tables(grid)
    noise1, noise2 = noise_pair

    v1 = Field(grid, np.tile(v1_0, (grid.nt + 1, 1)))
    v2 = Field(grid, np.tile(v2_0, (grid.nt + 1, 1)))
    d_hist = []
    z1 = z2 = None
    for _ in range(n_iters):
        w1 = mild_solve_w(v1, v2, coeffs, boundary_fn, M, noise1, grid,
                          side=1, tables=tables)
        w2 = mild_solve_w(v1, v2, coeffs, boundary_fn, M, noise2, grid,
                          side=2, tables=tables)
        z1 = solve_projected(Field(grid, -w1.values))
        z2 = solve_projected(Field(grid, -w2.values))
        v1_new = Field(grid, w1.values + z1.z.values)
        v2_new = Field(grid, w2.values + z2.z.values)
        d = (np.max(np.abs(v1_new.values - v1.values))
             + np.max(np.abs(v2_new.values - v2.values)))
        d_hist.append(float(d))
        v1, v2 = v1_new, v2_new

    report = IterationReport(d=d_hist, iters=n_iters,
                             converged=d_hist[-1] <= CONVERGENCE_TOL,
                             v1=v1, v2=v2,
                             z1_mass=z1.total_mass(), z2_mass=z2.total_mass())
    if compare_direct:
        traj = run_relative_frame((v1_0, v2_0, 0.0), coeffs, boundary_fn,
                                  M=M, M_max=np.inf, grid=grid,
                                  seed=noise1.seed, store_stride=1,
                                  noise_pair=(noise1, noise2))
        gap1 = np.max(np.abs(traj.v1_snapshots - v1.values))
        gap2 = np.max(np.abs(traj.v2_snapshots - v2.values))
        report.final_gap_vs_direct = float(max(gap1, gap2))
    return report
