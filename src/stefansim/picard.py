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
iterate.

Cost and memory, for nt steps, J = nx + 1 nodes and n_images images:
the three (nt, J, J) kernel tables (3 * 8 * nt * J^2 bytes, 54 MB at
nx = 32, nt = 2048) are built once, TABLE_BLOCK lags at a time, from
erf/exp tables of O(J * n_images) entries per lag, and reused by every
iterate.  One iterate solves both sides together: one FFT convolution
against the derivative table and one against the value table, each on
the two sides' stacked signals, so each iterate transforms two kernel
tables.  A kernel spectrum is computed SPECTRUM_ROWS rows at a time and
dropped, so the transient is O(nt * SPECTRUM_ROWS * J) complex values,
not the whole (nt, J, J) spectrum.
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
#: kernel times per block of the table build
TABLE_BLOCK = 128
#: kernel-table rows per chunk of a kernel spectrum
SPECTRUM_ROWS = 4


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


def _hat_moment_matrices(t: np.ndarray, grid: GridSpec, n_images: int):
    """Value and derivative hat-moment matrices at a block of kernel times.

    ``t`` is (B,); returns val and der, each (B, J, J).  Works for both
    domains: the compact kernel sums images n in [-n_images, n_images];
    the half-line kernel is the single n = 0 pair.  The derivative
    moments are obtained by parts, -int K hat', which is exact because K
    vanishes at y = 0 (and at y = 1 for the compact kernel); at the
    artificial half-line boundary the dropped term K(t, x, L) hat(L) only
    ever multiplies integrands that vanish there.

    On a segment [a, b] (in units of the width s) an image with centre c
    integrates to (s sqrt(pi)/2)(erf(b) - erf(a)) against 1, and to c
    times that plus (s^2/2)(exp(-a^2) - exp(-b^2)) against y.  Family A
    (centres x_j + 2n) depends on (x_j, segment m) only through m - j,
    family B (centres -(x_j + 2n)) only through m + j, so the image sums
    are taken on (2J - 2)-long tables and gathered to (J, J - 1) after.
    """
    nodes = grid.space_nodes()
    J, dx = grid.n_nodes, grid.dx
    s = np.sqrt(4.0 * t)[:, None]                                   # (B, 1)
    shifts = 2.0 * np.arange(-n_images, n_images + 1)
    offsets = np.stack([np.arange(-(J - 1), J)[:, None] * dx - shifts,  # A: (a - j) dx - 2n
                        np.arange(2 * J - 1)[:, None] * dx + shifts])  # B: (a + j) dx + 2n
    arg = offsets[:, None] / s[:, :, None]                          # (2, B, 2J-1, n_img)
    d_erf = np.diff(erf(arg), axis=2)                               # node a + 1 less node a
    d_gauss = -np.diff(np.exp(-arg * arg), axis=2)
    i0 = 0.5 * SQRT_PI * s * d_erf.sum(axis=3)                      # (2, B, 2J-2)
    # y-moments less their x_j part, which is +x_j i0 for A and -x_j i0 for B
    i1 = (0.5 * SQRT_PI * s * (d_erf @ shifts) * np.array([1.0, -1.0])[:, None, None]
          + 0.5 * s * s * d_gauss.sum(axis=3))

    m, j = np.arange(J - 1), np.arange(J)[:, None]                  # segment, node
    dA, dB = m - j + J - 1, m + j                                   # (J, J-1)
    i0_A, i0_B = i0[0][:, dA], i0[1][:, dB]                         # (B, J, J-1)
    norm = 1.0 / np.sqrt(4.0 * np.pi * t)[:, None, None]
    seg_i0 = (i0_A - i0_B) * norm
    seg_i1 = (nodes[:, None] * (i0_A + i0_B) + i1[0][:, dA] - i1[1][:, dB]) * norm
    rise = (seg_i1 - nodes[:-1] * seg_i0) / dx    # weight (y - x_m)/dx on segment m
    fall = (nodes[1:] * seg_i0 - seg_i1) / dx     # weight (x_{m+1} - y)/dx
    edge = [(0, 0), (0, 0)]
    val = np.pad(rise, edge + [(1, 0)]) + np.pad(fall, edge + [(0, 1)])
    der = np.diff(seg_i0, axis=2, prepend=0.0, append=0.0) / dx
    return val, der


def build_kernel_tables(grid: GridSpec, n_images: int | None = None) -> KernelTables:
    """Assemble the full lag tables used by the mild solver."""
    if n_images is None:
        n_images = suggest_n_images(grid.T) if grid.domain_kind == COMPACT else 0
    elif grid.domain_kind != COMPACT:
        n_images = 0
    nt, J = grid.nt, grid.n_nodes
    d = np.arange(nt)
    init = np.empty((nt, J, J))
    mid_val = np.empty((nt, J, J))
    mid_der = np.empty((nt, J, J))
    for lo in range(0, nt, TABLE_BLOCK):
        blk = slice(lo, lo + TABLE_BLOCK)
        init[blk] = _hat_moment_matrices((d[blk] + 1) * grid.dt, grid, n_images)[0]
        mid_val[blk], mid_der[blk] = _hat_moment_matrices((d[blk] + 0.5) * grid.dt,
                                                          grid, n_images)
    return KernelTables(grid=grid, n_images=n_images, init=init,
                        mid_val=mid_val, mid_der=mid_der)


def _causal_convolve(kernel: np.ndarray, signal: np.ndarray) -> np.ndarray:
    """out[i] = sum_{s <= i} kernel[i - s] @ signal[s] via FFT over time.

    ``kernel`` is (nt, J, J) and ``signal`` (nt, J, S), S signals side by
    side.  The kernel spectrum is transformed SPECTRUM_ROWS rows at a
    time and multiplied into the product at once, so it is never whole.
    """
    # scipy.fft is imported here, not with the module: it would add about
    # 50 ms and 1 MB to the start of every subcommand, not only this one
    from scipy import fft

    nt, J = kernel.shape[:2]
    L = 1 << (2 * nt - 1).bit_length()        # a power of two >= 2 nt
    sf = fft.rfft(signal, n=L, axis=0, workers=-1)
    prod = np.empty_like(sf)
    for lo in range(0, J, SPECTRUM_ROWS):
        rows = slice(lo, lo + SPECTRUM_ROWS)
        kf = fft.rfft(kernel[:, rows], n=L, axis=0, workers=-1)
        np.matmul(kf, sf, out=prod[:, rows])
    return fft.irfft(prod, n=L, axis=0, workers=-1)[:nt]


def mild_solve_w(v1_prev: Field, v2_prev: Field, coeffs: ModelCoefficients,
                 boundary_fn: BoundaryFunctional, M: float,
                 noise_pair: tuple[NoiseField, NoiseField], grid: GridSpec,
                 tables: KernelTables | None = None) -> tuple[Field, Field]:
    """Evaluate one unreflected mild iterate of both sides on the whole grid.

    Side k is driven by ``noise_pair[k - 1]``; returns (w1, w2).  The two
    sides' signals are stacked, so one convolution per kernel table
    serves both.
    """
    if (v1_prev.grid != grid or v2_prev.grid != grid
            or any(noise.grid != grid for noise in noise_pair)):
        raise GridMismatch("previous iterates and noise must live on the grid")
    if tables is None:
        tables = build_kernel_tables(grid)
    fn = resolve_truncation(boundary_fn, M)

    nt, J = grid.nt, grid.n_nodes
    x = grid.space_nodes()[None, :]
    h = eval_h(fn, v1_prev.values[:nt], v2_prev.values[:nt], grid)[:, None]
    advection = np.empty((nt, J, 2))
    forcing = np.empty((nt, J, 2))
    # the advection enters side 1 as +dK/dy and side 2 as -dK/dy
    for k, (u, speed, drift_fn, vol_fn, noise) in enumerate((
            (v1_prev.values[:nt], h, coeffs.f1, coeffs.sigma1, noise_pair[0]),
            (v2_prev.values[:nt], -h, coeffs.f2, coeffs.sigma2, noise_pair[1]))):
        advection[..., k] = speed * cap_profile(u, grid, M)
        # coefficients that ignore u may return a single spatial row
        forcing[..., k] = drift_fn(x, u) + vol_fn(x, u) * noise.xi

    v0 = np.stack([v1_prev.values[0], v2_prev.values[0]], axis=-1)   # (J, 2)
    duhamel = tables.init @ v0 + grid.dt * (_causal_convolve(tables.mid_der, advection)
                                            + _causal_convolve(tables.mid_val, forcing))
    w = np.empty((2, nt + 1, J))
    w[:, 1:] = np.moveaxis(duhamel, -1, 0)
    w[:, :, [0, -1]] = 0.0
    w[:, 0] = v0.T
    return Field(grid, w[0]), Field(grid, w[1])


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

    v1 = Field(grid, np.tile(v1_0, (grid.nt + 1, 1)))
    v2 = Field(grid, np.tile(v2_0, (grid.nt + 1, 1)))
    d_hist = []
    z1 = z2 = None
    for _ in range(n_iters):
        w1, w2 = mild_solve_w(v1, v2, coeffs, boundary_fn, M, noise_pair, grid,
                              tables=tables)
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
                                  seed=noise_pair[0].seed, store_stride=1,
                                  noise_pair=noise_pair)
        gap1 = np.max(np.abs(traj.v1_snapshots - v1.values))
        gap2 = np.max(np.abs(traj.v2_snapshots - v2.values))
        report.final_gap_vs_direct = float(max(gap1, gap2))
    return report
