import mmap
import os
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import erf

from helpers import assert_reaped, count_forks, set_cpus, time_limit
from stefansim.boundary import cap_profile, eval_h, exp_imbalance, zero_boundary
from stefansim.config import (boundary_from_config, coefficients_from_config, grid_from_config,
                              initial_from_config, load_yaml)
from stefansim.cli import main
from stefansim.errors import (ConfigError, DimensionMismatch, GridMismatch, IterationFailure,
                              StefansimError)
from stefansim.grids import Field, build_grid
from stefansim.kernels import DEFAULT_N_IMAGES, adaptive_trapezoid, deriv_y, eval_H
from stefansim.noise import NoiseField, sample_white_noise
from stefansim.obstacle import solve_projected
from stefansim import picard
from stefansim.picard import build_kernel_tables, mild_solve_w, picard_iterate
from stefansim.spde import ModelCoefficients, constant_coefficients, run_relative_frame

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def small_grid():
    return build_grid("compact", 32, 0.02, 512)


@pytest.fixture(scope="module")
def small_tables(small_grid):
    return build_kernel_tables(small_grid)


def _zero_noise(grid):
    return NoiseField(grid=grid, xi=np.zeros((grid.nt, grid.n_nodes)))


def _zero_noise_pair(grid):
    return _zero_noise(grid), _zero_noise(grid)


def _const_pair(grid, side1, side2):
    """The (2, nt + 1, J) pair constant in time at the two profiles."""
    return Field(grid, np.stack([np.tile(p, (grid.nt + 1, 1)) for p in (side1, side2)]))


def _lag(tables, factor, e):
    """The (J, J) lag table modes @ diag(decay**e) @ factor.T."""
    return tables.modes @ (tables.decay ** e * factor).T


def test_kernel_mass_bounded(small_grid, small_tables):
    # value-matrix rows integrate the kernel: mass <= 1 always, ~1 in the
    # interior at short lags (boundary absorption eats mass at long ones)
    for d in (0, 1, small_grid.nt - 1):
        rows = _lag(small_tables, small_tables.mid_val, d).sum(axis=1)
        assert rows.max() <= 1.0 + 1e-9
    assert _lag(small_tables, small_tables.mid_val, 0).sum(axis=1)[small_grid.nx // 2] >= 0.999


def test_mild_zero_everything_is_zero(small_grid, small_tables):
    z = np.zeros(small_grid.n_nodes)
    coeffs = constant_coefficients(f=0.0, sigma=0.0)
    w = mild_solve_w(_const_pair(small_grid, z, z), coeffs, zero_boundary(), np.inf,
                     _zero_noise_pair(small_grid), small_tables)
    assert np.max(np.abs(w.values)) == 0.0


def test_mild_initial_data_eigenfunction(small_grid, small_tables):
    v0 = np.sin(np.pi * small_grid.space_nodes())
    v0[0] = v0[-1] = 0.0
    coeffs = constant_coefficients(f=0.0, sigma=0.0)
    w = mild_solve_w(_const_pair(small_grid, v0, 0 * v0), coeffs, zero_boundary(),
                     np.inf, _zero_noise_pair(small_grid), small_tables)
    t = small_grid.time_nodes()[:, None]
    expected = np.exp(-np.pi**2 * t) * v0[None, :]
    assert np.max(np.abs(w.values[0] - expected)) <= 1e-3


def test_mild_constant_forcing_matches_direct(small_grid, small_tables):
    z = np.zeros(small_grid.n_nodes)
    coeffs = constant_coefficients(f=1.0, sigma=0.0)
    w = mild_solve_w(_const_pair(small_grid, z, z), coeffs, zero_boundary(), np.inf,
                     _zero_noise_pair(small_grid), small_tables)
    traj = run_relative_frame((z, z.copy(), 0.0), coeffs, zero_boundary(),
                              np.inf, np.inf, small_grid, noise=0, store_stride=1)
    assert np.max(np.abs(w.values[0] - traj.v1_snapshots)) <= 2e-3


def test_trivial_fixed_point_converges_immediately(small_grid):
    z = np.zeros(small_grid.n_nodes)
    coeffs = constant_coefficients(f=0.0, sigma=0.0)
    noise = (_zero_noise(small_grid), _zero_noise(small_grid))
    rep = picard_iterate(z, z.copy(), coeffs, zero_boundary(), np.inf, noise,
                         small_grid, n_iters=2)
    assert rep.d[0] == 0.0
    assert rep.converged


def test_picard_contracts_and_matches_direct(small_grid):
    x = small_grid.space_nodes()

    def drift(xv, u):
        return 0.5 - 0.5 * u

    def vol(xv, u):
        return 0.2 + 0.1 * u / (1.0 + np.abs(u))

    coeffs = ModelCoefficients(f1=drift, f2=drift, sigma1=vol, sigma2=vol)
    fn = exp_imbalance(alpha=5.0, lam=100.0, clamp=1.0)
    v1_0 = 0.3 * np.sin(np.pi * x)
    v2_0 = 0.25 * np.sin(np.pi * x) ** 2
    for v in (v1_0, v2_0):
        v[0] = v[-1] = 0.0
    noise = (sample_white_noise(small_grid, 21, 0),
             sample_white_noise(small_grid, 21, 1))
    rep = picard_iterate(v1_0, v2_0, coeffs, fn, 2.0, noise, small_grid,
                         n_iters=8)
    d = rep.d
    assert all(np.isfinite(d))
    for i in range(1, 5):
        if d[i] > 1e-13:
            assert d[i + 1] / d[i] <= 0.8
    assert d[-1] <= 1e-4
    bound = 5.0 * (small_grid.dx + np.sqrt(small_grid.dt))
    assert rep.final_gap_vs_direct <= bound
    # iterates stay nonnegative with pinned ends
    assert rep.v.values.min() >= 0.0
    assert np.all(rep.v.values[:, :, 0] == 0.0)


def test_halfline_picard_contracts_and_matches_direct():
    # criterion 04's bounds on the truncated half-line, data supported in [0, 1]
    grid = build_grid("halfline", 32, 0.05, 512, length=2.0, weight_r=0.5)
    x = grid.space_nodes()
    v1_0 = np.where(x < 1.0, 0.3 * np.sin(np.pi * x), 0.0)
    v2_0 = v1_0 ** 2 / 0.3
    coeffs = constant_coefficients(f=0.2, sigma=0.25)
    fn = exp_imbalance(alpha=5.0, lam=100.0, clamp=1.0)
    noise = (sample_white_noise(grid, 3, 0), sample_white_noise(grid, 3, 1))
    rep = picard_iterate(v1_0, v2_0, coeffs, fn, 2.0, noise, grid, n_iters=8)
    d = rep.d
    ratios = [d[i + 1] / d[i] for i in range(1, len(d) - 1) if d[i] > 1e-14]
    assert max(ratios) <= 0.8
    assert d[-1] <= 1e-4
    assert rep.final_gap_vs_direct <= 5.0 * (grid.dx + np.sqrt(grid.dt))


def test_shorter_horizon_contracts_faster():
    def drift(xv, u):
        return 0.5 - 0.5 * u

    def vol(xv, u):
        return 0.2 + 0.1 * u / (1.0 + np.abs(u))

    coeffs = ModelCoefficients(f1=drift, f2=drift, sigma1=vol, sigma2=vol)
    fn = exp_imbalance(alpha=5.0, lam=100.0, clamp=1.0)
    d3 = {}
    for T, nt in ((0.01, 128), (0.02, 256), (0.04, 512)):
        g = build_grid("compact", 16, T, nt)
        v0 = 0.3 * np.sin(np.pi * g.space_nodes())
        v0[0] = v0[-1] = 0.0
        noise = (sample_white_noise(g, 5, 0), sample_white_noise(g, 5, 1))
        rep = picard_iterate(v0, v0.copy(), coeffs, fn, 2.0, noise, g, n_iters=3)
        d3[T] = rep.d[-1]
    assert d3[0.01] < d3[0.02] < d3[0.04]


@pytest.mark.parametrize("node, value, M", [
    (None, None, -1.0),       # truncation M <= 0
    (0, 0.5, 2.0),            # nonzero at a Dirichlet node
    (3, np.nan, 2.0),         # not finite
    (3, -0.1, 2.0),           # negative
])
def test_picard_and_direct_run_share_the_initial_data_contract(node, value, M):
    g = build_grid("compact", 8, 0.02, 48)
    v0 = 0.3 * np.sin(np.pi * g.space_nodes())
    v0[[0, -1]] = 0.0
    bad = v0.copy()
    if node is not None:
        bad[node] = value
    coeffs, fn = constant_coefficients(sigma=0.5), exp_imbalance(clamp=1.0)
    noise = (sample_white_noise(g, 3, 0), sample_white_noise(g, 3, 1))
    with pytest.raises(ConfigError):
        picard_iterate(bad, v0, coeffs, fn, M, noise, g, n_iters=3)
    with pytest.raises(ConfigError):
        run_relative_frame((bad, v0, 0.0), coeffs, fn, M, np.inf, g, noise=3)


def test_iteration_report_json(small_grid):
    z = np.zeros(small_grid.n_nodes)
    noise = (_zero_noise(small_grid), _zero_noise(small_grid))
    rep = picard_iterate(z, z.copy(), constant_coefficients(f=0.0, sigma=0.0),
                         zero_boundary(), np.inf, noise, small_grid,
                         n_iters=2)
    payload = rep.to_json_dict()
    assert payload["schema"] == 1
    assert set(payload) >= {"d", "iters", "converged", "final_gap_vs_direct"}


def test_determinism(small_grid):
    z0 = 0.2 * np.sin(np.pi * small_grid.space_nodes())
    z0[0] = z0[-1] = 0.0
    coeffs = constant_coefficients(f=0.2, sigma=0.3)
    fn = exp_imbalance(clamp=1.0)
    noise = (sample_white_noise(small_grid, 9, 0), sample_white_noise(small_grid, 9, 1))
    r1 = picard_iterate(z0, z0.copy(), coeffs, fn, 1.0, noise, small_grid,
                        n_iters=3)
    r2 = picard_iterate(z0, z0.copy(), coeffs, fn, 1.0, noise, small_grid,
                        n_iters=3)
    assert r1.d == r2.d
    assert np.array_equal(r1.v.values, r2.v.values)


def test_halfline_mild_solver_runs():
    g = build_grid("halfline", 64, 0.01, 256, length=4.0, weight_r=0.3)
    tables = build_kernel_tables(g)
    v0 = g.space_nodes() * np.exp(-g.space_nodes())
    v0[0] = v0[-1] = 0.0
    coeffs = constant_coefficients(f=0.0, sigma=0.0)
    w = mild_solve_w(_const_pair(g, v0, 0 * v0), coeffs, zero_boundary(), np.inf,
                     _zero_noise_pair(g), tables).values[0]
    # pure initial-data evolution stays bounded by the heat semigroup
    assert w.max() <= v0.max() + 1e-9
    assert np.max(np.abs(w[0] - v0)) == 0.0


# ------------------------------------------------------- kernel-table build

def _per_lag_moments(t, grid, n_images):
    """Reference: the hat-moment matrices at one kernel time, image by image."""
    nodes, J, dx = grid.space_nodes(), grid.n_nodes, grid.dx
    s = np.sqrt(4.0 * t)
    shifts = 2.0 * np.arange(-n_images, n_images + 1)
    argA = (np.arange(-(J - 1), J)[:, None] * dx - shifts[None, :]) / s
    argB = (np.arange(0, 2 * J - 1)[:, None] * dx + shifts[None, :]) / s
    erfA, expA = erf(argA), np.exp(-argA * argA)
    erfB, expB = erf(argB), np.exp(-argB * argB)
    dA_lo = np.arange(J - 1)[None, :] - np.arange(J)[:, None] + (J - 1)
    dB_lo = np.arange(J - 1)[None, :] + np.arange(J)[:, None]
    i0_A = 0.5 * s * np.sqrt(np.pi) * (erfA[dA_lo + 1] - erfA[dA_lo])
    i0_B = 0.5 * s * np.sqrt(np.pi) * (erfB[dB_lo + 1] - erfB[dB_lo])
    cA = nodes[:, None, None] + shifts[None, None, :]
    i1_A = cA * i0_A + 0.5 * s * s * (expA[dA_lo] - expA[dA_lo + 1])
    i1_B = -cA * i0_B + 0.5 * s * s * (expB[dB_lo] - expB[dB_lo + 1])
    norm = 1.0 / np.sqrt(4.0 * np.pi * t)
    seg_i0 = (i0_A - i0_B).sum(axis=2) * norm
    seg_i1 = (i1_A - i1_B).sum(axis=2) * norm
    val = np.zeros((J, J))
    val[:, 1:] += (seg_i1 - nodes[:-1] * seg_i0) / dx
    val[:, :-1] += (nodes[1:] * seg_i0 - seg_i1) / dx
    der = np.zeros((J, J))
    der[:, 1:] -= seg_i0 / dx
    der[:, :-1] += seg_i0 / dx
    return val, der


def test_table_build_matches_per_lag_reference_on_bundled_config():
    grid = grid_from_config(load_yaml(REPO / "configs" / "picard.yaml"))
    tables = build_kernel_tables(grid)
    for d in range(grid.nt):
        init, _ = _per_lag_moments((d + 1) * grid.dt, grid, DEFAULT_N_IMAGES)
        val, der = _per_lag_moments((d + 0.5) * grid.dt, grid, DEFAULT_N_IMAGES)
        assert np.max(np.abs(_lag(tables, tables.init, d + 1) - init)) <= 1e-13
        assert np.max(np.abs(_lag(tables, tables.mid_val, d) - val)) <= 1e-13
        assert np.max(np.abs(_lag(tables, tables.mid_der, d) - der)) <= 1e-13


def _tanh_sinh_integral(fn, a, b):
    """int_a^b fn(y) dy by the trapezoid rule after y = a + (b - a)(1 + tanh(pi/2 sinh u))/2.

    The substitution flattens the integrand at both ends, so the refined
    trapezoid sums converge geometrically instead of like h^2.  Adding 1
    to fn (and b - a to the result) makes the relative stopping rule an
    absolute one, which also ends the refinement for integrals near 0.
    """
    def integrand(u):
        arg = 0.5 * np.pi * np.sinh(u)
        y = a + 0.5 * (b - a) * (1.0 + np.tanh(arg))
        dy = 0.25 * np.pi * (b - a) * np.cosh(u) / np.cosh(arg) ** 2
        return (fn(y) + 1.0) * dy

    return adaptive_trapezoid(integrand, -4.0, 4.0, rel_tol=1e-13) - (b - a)


@pytest.mark.parametrize("grid", [
    build_grid("compact", 6, 0.02, 16),
    build_grid("halfline", 6, 0.02, 16, length=1.5),
], ids=["compact", "halfline"])
def test_table_build_matches_quadrature_oracle(grid):
    # hat moments of K and dK/dy by quadrature, piece by piece between nodes;
    # K is the Dirichlet kernel of [0, L], the one on [0, 1] rescaled
    tables = build_kernel_tables(grid)
    x, dx, J, L = grid.space_nodes(), grid.dx, grid.n_nodes, grid.length

    def value(t, xj, y):
        return eval_H(t / L**2, xj / L, y / L) / L

    def slope(t, xj, y):
        return deriv_y("H", t / L**2, xj / L, y / L) / L**2

    def moments(kernel, t):
        out = np.zeros((J, J))
        for j in range(J):
            for k in range(J):
                for a, b in ((x[k] - dx, x[k]), (x[k], x[k] + dx)):
                    if a < x[0] - 1e-12 or b > x[-1] + 1e-12:
                        continue
                    out[j, k] += _tanh_sinh_integral(
                        lambda y: kernel(t, x[j], y) * (1.0 - np.abs(y - x[k]) / dx), a, b)
        return out

    for d in (0, 1, grid.nt - 1):
        t_mid = (d + 0.5) * grid.dt
        assert np.max(np.abs(_lag(tables, tables.init, d + 1)
                             - moments(value, (d + 1) * grid.dt))) <= 1e-10
        assert np.max(np.abs(_lag(tables, tables.mid_val, d) - moments(value, t_mid))) <= 1e-10
        assert np.max(np.abs(_lag(tables, tables.mid_der, d) - moments(slope, t_mid))) <= 1e-10


# ------------------------------------------------------- paired mild solve

@pytest.mark.parametrize("grid", [
    build_grid("compact", 6, 0.02, 24),
    build_grid("halfline", 6, 0.04, 24, length=1.5),
], ids=["compact", "halfline"])
def test_mild_solve_matches_direct_lag_sum(grid):
    # the per-mode recursion equals the Duhamel sums over the rebuilt lag tables
    tables = build_kernel_tables(grid)
    rng = np.random.default_rng(5)
    v1, v2 = np.abs(rng.normal(size=(2, grid.nt + 1, grid.n_nodes)))
    v1[:, [0, -1]] = v2[:, [0, -1]] = 0.0
    coeffs = constant_coefficients(f=0.3, sigma=0.7)
    fn, M = exp_imbalance(alpha=5.0, lam=10.0, clamp=1.0), 0.8
    noise = (sample_white_noise(grid, 4, 0), sample_white_noise(grid, 4, 1))
    w1, w2 = mild_solve_w(Field(grid, np.stack([v1, v2])), coeffs, fn, M, noise, tables).values

    nt, dt = grid.nt, grid.dt
    h = eval_h(fn, cap_profile(v1[:nt], grid, M), cap_profile(v2[:nt], grid, M), grid)[:, None]
    for v, speed, xi, w in ((v1, h, noise[0].xi, w1), (v2, -h, noise[1].xi, w2)):
        advection = speed * cap_profile(v[:nt], grid, M)
        forcing = 0.3 + 0.7 * xi
        direct = np.array([
            _lag(tables, tables.init, i + 1) @ v[0]
            + dt * sum(_lag(tables, tables.mid_der, i - s) @ advection[s]
                       + _lag(tables, tables.mid_val, i - s) @ forcing[s]
                       for s in range(i + 1))
            for i in range(nt)])
        assert np.max(np.abs(w[1:, 1:-1] - direct[:, 1:-1])) <= 1e-12


@pytest.fixture(scope="module")
def swap_grid():
    grid = build_grid("compact", 8, 0.02, 48)
    return grid, build_kernel_tables(grid)


@given(seed=st.integers(0, 2**32 - 1), f=st.floats(-1.0, 1.0),
       sigma=st.floats(0.0, 1.0), alpha=st.floats(0.5, 20.0),
       clamp=st.sampled_from([None, 0.5]), M=st.sampled_from([0.5, np.inf]))
def test_swapping_sides_swaps_the_mild_pair(swap_grid, seed, f, sigma, alpha, clamp, M):
    # exp_imbalance is odd in (v1, v2): with one coefficient set for both
    # sides, exchanging the sides' data and noises exchanges the solutions
    grid, tables = swap_grid
    rng = np.random.default_rng(seed)
    v1, v2 = np.abs(rng.normal(size=(2, grid.nt + 1, grid.n_nodes)))
    v1[:, [0, -1]] = v2[:, [0, -1]] = 0.0

    def drift(x, u):
        return f - 0.5 * u

    def vol(x, u):
        return sigma * (1.0 + 0.1 * u / (1.0 + np.abs(u)))

    coeffs = ModelCoefficients(f1=drift, f2=drift, sigma1=vol, sigma2=vol)
    fn = exp_imbalance(alpha=alpha, lam=10.0, clamp=clamp)
    n1, n2 = (sample_white_noise(grid, seed, side) for side in (0, 1))
    w = mild_solve_w(Field(grid, np.stack([v1, v2])), coeffs, fn, M, (n1, n2), tables)
    s = mild_solve_w(Field(grid, np.stack([v2, v1])), coeffs, fn, M, (n2, n1), tables)
    assert np.array_equal(w.values, s.values[::-1])


# ------------------------------------------------ per-side reference iterate

def _per_side_mild(v1, v2, coeffs, fn, M, noise_pair, grid, tables):
    """One mild iterate side by side: own +-h sign and coefficients per side."""
    nt, J = grid.nt, grid.n_nodes
    x = grid.space_nodes()[None, :]
    h = eval_h(fn, cap_profile(v1[:nt], grid, M), cap_profile(v2[:nt], grid, M), grid)[:, None]
    signal = np.empty((nt, 2, 2 * J))
    for k, (u, speed, drift_fn, vol_fn, noise) in enumerate((
            (v1[:nt], h, coeffs.f1, coeffs.sigma1, noise_pair[0]),
            (v2[:nt], -h, coeffs.f2, coeffs.sigma2, noise_pair[1]))):
        signal[:, k, :J] = speed * cap_profile(u, grid, M)
        signal[:, k, J:] = drift_fn(x, u) + vol_fn(x, u) * noise.xi
    v0 = np.stack([v1[0], v2[0]])
    coef = signal @ np.concatenate([tables.mid_der, tables.mid_val])
    coef *= grid.dt
    coef[0] += tables.decay * (v0 @ tables.init)
    for n in range(1, nt):
        coef[n] += tables.decay * coef[n - 1]
    w = np.empty((2, nt + 1, J))
    w[:, 1:] = np.moveaxis(coef @ tables.modes.T, 1, 0)
    w[:, :, [0, -1]] = 0.0
    w[:, 0] = v0
    return w[0], w[1]


def _per_side_iterate(v1_0, v2_0, coeffs, fn, M, noise_pair, grid, n_iters, tables):
    """Two Fields and two obstacle solves per iterate; returns (d, gap)."""
    v1 = Field(grid, np.tile(v1_0, (grid.nt + 1, 1)))
    v2 = Field(grid, np.tile(v2_0, (grid.nt + 1, 1)))
    d = []
    for _ in range(n_iters):
        w1, w2 = _per_side_mild(v1.values, v2.values, coeffs, fn, M, noise_pair,
                                grid, tables)
        v1_new = Field(grid, w1 + solve_projected(Field(grid, -w1)).z.values)
        v2_new = Field(grid, w2 + solve_projected(Field(grid, -w2)).z.values)
        d.append(float(np.max(np.abs(v1_new.values - v1.values))
                       + np.max(np.abs(v2_new.values - v2.values))))
        v1, v2 = v1_new, v2_new
    traj = run_relative_frame((v1_0, v2_0, 0.0), coeffs, fn, M=M, M_max=np.inf,
                              grid=grid, noise=noise_pair, store_stride=1)
    gap = max(np.max(np.abs(traj.v1_snapshots - v1.values)),
              np.max(np.abs(traj.v2_snapshots - v2.values)))
    return d, float(gap)


def _side_distinct_coefficients():
    def f1(x, u):
        return 0.5 - 0.5 * u

    def f2(x, u):
        return 0.3 * (1.0 - x) - 0.4 * u

    def sigma1(x, u):
        return 0.2 + 0.1 * u / (1.0 + np.abs(u))

    def sigma2(x, u):
        return 0.15 * np.exp(-x) + 0.05 * u * u / (1.0 + u * u)

    return ModelCoefficients(f1=f1, f2=f2, sigma1=sigma1, sigma2=sigma2)


@pytest.mark.parametrize("grid", [
    build_grid("compact", 16, 0.02, 256),
    build_grid("halfline", 16, 0.05, 256, length=2.0, weight_r=0.5),
], ids=["compact", "halfline"])
def test_stacked_iterate_equals_per_side_reference(grid):
    x = grid.space_nodes()
    v1_0 = np.where(x < 1.0, 0.3 * np.sin(np.pi * x), 0.0)
    v2_0 = 0.25 * np.sin(np.pi * x / grid.length) ** 2
    v1_0[[0, -1]] = v2_0[[0, -1]] = 0.0
    coeffs = _side_distinct_coefficients()
    assert coeffs.f1 is not coeffs.f2 and coeffs.sigma1 is not coeffs.sigma2
    fn = exp_imbalance(alpha=5.0, lam=100.0, clamp=1.0)
    noise = (sample_white_noise(grid, 11, 0), sample_white_noise(grid, 11, 1))
    tables = build_kernel_tables(grid)
    rep = picard_iterate(v1_0, v2_0, coeffs, fn, 2.0, noise, grid, n_iters=4)
    d, gap = _per_side_iterate(v1_0, v2_0, coeffs, fn, 2.0, noise, grid, 4, tables)
    assert rep.d == d
    assert rep.final_gap_vs_direct == gap
    assert rep.d[0] > 0.0 and rep.final_gap_vs_direct > 0.0


# ------------------------------------------- the sweep against the plain loop

def _plain_iterate(start: Field, coeffs, fn, M, noise_pair, n_iters):
    """The iteration one whole iterate at a time from the (2, nt + 1, J) pair ``start``.

    Each iterate is mild_solve_w, then solve_projected; the initial data
    are the start's row 0.
    """
    grid = start.grid
    tables = build_kernel_tables(grid)
    v = start
    d = []
    for _ in range(n_iters):
        w = mild_solve_w(v, coeffs, fn, M, noise_pair, tables).values
        v_new = w + solve_projected(Field(grid, -w)).z.values
        d.append(float(np.max(np.abs(v_new - v.values), axis=(1, 2)).sum()))
        v = Field(grid, v_new)
    return d, v.values


@pytest.mark.parametrize("n_iters", [2, 5])
@pytest.mark.parametrize("M", [0.2, np.inf], ids=["finite_M", "inf_M"])
@pytest.mark.parametrize("block", [None, 1, 7, 128, "nt"])
@pytest.mark.parametrize("grid", [
    build_grid("compact", 8, 0.02, 129),
    build_grid("halfline", 8, 0.04, 300, length=1.5, weight_r=0.5),
    build_grid("compact", 8, 0.02, 48),
], ids=["compact_129", "halfline_300", "compact_48"])
def test_sweep_equals_the_plain_loop(monkeypatch, grid, block, M, n_iters):
    # the shipped block (None), blocks that do not divide nt (the last one
    # padded), more iterates than blocks, one step per block, a block of
    # spde.NOISE_BLOCK = 128 steps and one block for the whole run; each
    # swept in one process and chained over 2 and 3 (more workers than
    # blocks with one block, and than iterates with n_iters = 2)
    if block is not None:
        monkeypatch.setattr(picard, "SWEEP_BLOCK", grid.nt if block == "nt" else block)
    x = grid.space_nodes()
    v0 = np.stack([0.3 * np.sin(np.pi * x / grid.length),
                   0.25 * np.sin(np.pi * x / grid.length) ** 2])
    v0[:, [0, -1]] = 0.0
    coeffs = _side_distinct_coefficients()
    fn = exp_imbalance(alpha=5.0, lam=100.0, clamp=1.0)
    noise = (sample_white_noise(grid, 13, 0), sample_white_noise(grid, 13, 1))
    d, v = _plain_iterate(_const_pair(grid, *v0), coeffs, fn, M, noise, n_iters)
    assert d[-1] > 0.0
    for n_cpus in (1, 2, 3):
        set_cpus(monkeypatch, n_cpus)
        rep = picard_iterate(v0[0], v0[1], coeffs, fn, M, noise, grid, n_iters=n_iters)
        assert rep.d == d, n_cpus
        assert np.array_equal(rep.v.values, v), n_cpus


def test_the_fixed_point_does_not_depend_on_the_start():
    # the reflected pair is the unique fixed point of the mild/obstacle map:
    # on the bundled picard-check config, four starts that share row 0 (the
    # initial data) agree after 12 iterates, far inside the 0.027 gap to the
    # direct run.  Time gate: 10 s (about 2.5 s, four plain loops of 12).
    cfg = load_yaml(REPO / "configs" / "picard.yaml")
    grid = grid_from_config(cfg)
    v1_0, v2_0 = initial_from_config(cfg, grid)
    coeffs, fn, M = coefficients_from_config(cfg), boundary_from_config(cfg), cfg["picard"]["M"]
    seed, n_iters = cfg["noise"]["seed"], cfg["picard"]["n_iters"]
    noise = (sample_white_noise(grid, seed, 0), sample_white_noise(grid, seed, 1))
    t0 = time.perf_counter()
    constant = _const_pair(grid, v1_0, v2_0).values
    zero = constant.copy()
    zero[:, 1:] = 0.0
    direct = run_relative_frame((v1_0, v2_0, 0.0), coeffs, fn, M=M, M_max=np.inf, grid=grid,
                                noise=noise, store_stride=1)
    direct = np.stack([direct.v1_snapshots, direct.v2_snapshots])
    normal = np.abs(np.random.default_rng(0).normal(0.0, 5.0, constant.shape))
    normal[:, 0] = constant[:, 0]
    starts = {"constant": constant, "zero": zero, "direct": direct, "|N(0, 25)|": normal}
    ends = {name: _plain_iterate(Field(grid, start), coeffs, fn, M, noise, n_iters)[1]
            for name, start in starts.items()}
    elapsed = time.perf_counter() - t0
    for name, v in ends.items():
        assert np.abs(v - ends["constant"]).max() <= 1e-10, name
    assert np.abs(ends["direct"] - direct).max() > 0.02
    assert elapsed <= 10.0


def test_sweep_memory_is_bounded_by_its_array_counts(monkeypatch):
    # the bundled picard-check grid: nx 32, nt 2048, 12 iterates, K = 577 modes;
    # one worker, since tracemalloc sees only this process, then two, whose
    # parent holds less
    cfg = load_yaml(REPO / "configs" / "picard.yaml")
    grid = grid_from_config(cfg)
    v1_0, v2_0 = initial_from_config(cfg, grid)
    seed, n_iters, J = cfg["noise"]["seed"], cfg["picard"]["n_iters"], grid.n_nodes
    noise = (sample_white_noise(grid, seed, 0), sample_white_noise(grid, seed, 1))
    K = build_kernel_tables(grid).modes.shape[1]
    pair = 2 * (grid.nt + 1) * J * 8                   # one whole-run pair array, 1.03 MiB
    # held whole: the final pair and the direct run's profiles (the noise is
    # the caller's); one wave's mode coefficients, and as much again for its
    # other arrays, each of which is J, not K, wide; the kernel tables: three
    # (J, K) factors, init and the stacked mid_der/mid_val of one wave
    bound = 2 * pair + 2 * (n_iters * picard.SWEEP_BLOCK * 2 * K * 8) + 5 * J * K * 8
    # tracemalloc does not see mapped memory: one shared (2, 2049, 33) array
    # per worker holds its group's last iterate, the final pair among them
    B = picard.SWEEP_BLOCK
    shared = 2 * (-(-grid.nt // B) * B + 1) * J * 8
    real_mmap, mapped = mmap.mmap, []

    def recorded(*args):
        mapped.append(real_mmap(*args))
        return mapped[-1]
    monkeypatch.setattr(mmap, "mmap", recorded)
    for n_cpus in (1, 2):
        set_cpus(monkeypatch, n_cpus)
        mapped.clear()
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            picard_iterate(v1_0, v2_0, coefficients_from_config(cfg), boundary_from_config(cfg),
                           cfg["picard"]["M"], noise, grid, n_iters=n_iters)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [len(m) for m in mapped] == [shared] * n_cpus
        assert peak <= bound, f"peak {peak / pair:.1f} pair arrays, bound {bound / pair:.1f}"
        assert elapsed <= 20.0


# ------------------------------------------------ the sweep over processes

def test_picard_report_is_the_same_bytes_for_any_worker_count(tmp_path, monkeypatch):
    # the parent's group is cut lighter, so at 3 iterates on 3 CPUs each
    # group holds one iterate and at 2 CPUs the bundled 12 split 5/7
    for n_iters in (2, 3, 4, 12):
        written = []
        for n_cpus in (1, 2, 3):
            set_cpus(monkeypatch, n_cpus)
            pids = count_forks(monkeypatch)
            with time_limit(60):
                assert main(["picard-check", "-c", str(REPO / "configs" / "picard.yaml"),
                             "--output-dir", str(tmp_path),
                             "--set", f"picard.n_iters={n_iters}"]) == 0
            assert len(pids) == min(n_cpus, n_iters) - 1
            assert_reaped(pids)
            written.append((tmp_path / "picard_report.json").read_bytes())
        assert written[1] == written[0] and written[2] == written[0], n_iters


@pytest.mark.parametrize("n_cpus, n_iters",
                         [(1, 4), (2, 2), (3, 2), (4, 3), (3, 3), (3, 7), (8, 5)])
def test_forks_at_most_one_fewer_than_the_workers(n_cpus, n_iters, small_grid, monkeypatch):
    z = np.zeros(small_grid.n_nodes)
    set_cpus(monkeypatch, n_cpus)
    pids = count_forks(monkeypatch)
    with time_limit(60):
        rep = picard_iterate(z, z.copy(), constant_coefficients(f=0.0, sigma=0.0),
                             zero_boundary(), np.inf, _zero_noise_pair(small_grid), small_grid,
                             n_iters=n_iters)
    assert rep.d == [0.0] * n_iters
    assert len(pids) == min(n_cpus, n_iters) - 1
    assert_reaped(pids)


def _failing_in(where, parent):
    """Coefficients that fail in the parent's group or in every child's, as ``where`` says."""
    def drift(x, u):
        here = "parent" if os.getpid() == parent else "child"
        if here == where == "parent":
            raise RuntimeError("failed in group 0")
        if here == where == "child":
            raise ValueError("failed in a child")
        if here == "child" and where == "exit":
            os._exit(1)
        if here == "child" and where == "nan":
            return np.full_like(u, np.nan)
        return 0.2 - 0.5 * u

    return ModelCoefficients(f1=drift, f2=drift, sigma1=drift, sigma2=drift)


@pytest.mark.parametrize("n_cpus", [2, 3])
@pytest.mark.parametrize("where, error, match", [
    ("parent", RuntimeError, "^failed in group 0$"),
    ("child", ValueError, "^failed in a child$"),
    ("exit", StefansimError, r"^the worker sweeping iterates 2 to 4 ended without a result$"),
    ("nan", IterationFailure,
     r"^iterate 2 of [47] is not finite: its distance to iterate 1 is nan$"),
])
def test_no_child_outlives_a_failed_chain(where, error, match, n_cpus, monkeypatch):
    # the lowest failed group's failure is raised, whether or not the groups
    # before a dead child meet its closed link
    g = build_grid("compact", 8, 0.02, 2048)
    x = g.space_nodes()
    v0 = 0.3 * np.sin(np.pi * x)
    v0[[0, -1]] = 0.0
    # cut at [0, 1, 4] or [0, 1, 4, 7]: group 1 sweeps iterates 2 to 4
    n_iters = 3 * n_cpus - 2
    set_cpus(monkeypatch, n_cpus)
    pids = count_forks(monkeypatch)
    noise = (sample_white_noise(g, 1, 0), sample_white_noise(g, 1, 1))
    with pytest.raises(error, match=match), time_limit(60):
        picard_iterate(v0, v0.copy(), _failing_in(where, os.getpid()), exp_imbalance(clamp=1.0),
                       2.0, noise, g, n_iters=n_iters)
    assert len(pids) == n_cpus - 1
    assert_reaped(pids)


def test_a_child_that_ends_before_the_first_block_breaks_the_parent_s_link(monkeypatch):
    # the child ends before it reads anything, and the parent starts its
    # sweep only once the child has ended (not reaped: split reaps it), so
    # the parent's first byte meets the closed link and its sweep stops there
    g = build_grid("compact", 8, 0.02, 2048)
    x = g.space_nodes()
    v0 = 0.3 * np.sin(np.pi * x)
    v0[[0, -1]] = 0.0
    parent, real_sweep, real_send = os.getpid(), picard._sweep, picard._send
    set_cpus(monkeypatch, 2)
    pids = count_forks(monkeypatch)
    sent = []

    def sweep(*args):
        if os.getpid() != parent:
            os._exit(1)
        os.waitid(os.P_PID, pids[0], os.WEXITED | os.WNOWAIT)
        return real_sweep(*args)

    def send(pipe):
        sent.append(real_send(pipe))
        return sent[-1]
    monkeypatch.setattr(picard, "_sweep", sweep)
    monkeypatch.setattr(picard, "_send", send)
    noise = (sample_white_noise(g, 1, 0), sample_white_noise(g, 1, 1))
    with pytest.raises(StefansimError, match=r"^the worker sweeping iterates 2 to 4 ended "
                                             r"without a result$"), time_limit(60):
        picard_iterate(v0, v0.copy(), constant_coefficients(f=0.2, sigma=0.25),
                       exp_imbalance(clamp=1.0), 2.0, noise, g, n_iters=4)
    assert sent == [False]
    assert len(pids) == 1
    assert_reaped(pids)


def test_a_direct_run_that_stops_early_is_a_failure(monkeypatch, small_grid):
    x = small_grid.space_nodes()
    v0 = 0.3 * np.sin(np.pi * x)
    v0[[0, -1]] = 0.0
    real = picard.run_relative_frame

    def stopping(*args, M, M_max, **kwargs):
        # the pair's norm starts at 0.6, so a threshold at M stops the run
        return real(*args, M=M, M_max=M, **kwargs)

    monkeypatch.setattr(picard, "run_relative_frame", stopping)
    noise = (sample_white_noise(small_grid, 1, 0), sample_white_noise(small_grid, 1, 1))
    with pytest.raises(IterationFailure, match=r"direct run stopped at step \d+ of 512 "
                                               r"\(threshold\)"):
        picard_iterate(v0, v0.copy(), constant_coefficients(f=0.2, sigma=0.25),
                       exp_imbalance(clamp=1.0), 0.5, noise, small_grid, n_iters=2)


def test_picard_refuses_noise_of_another_grid(small_grid):
    z = np.zeros(small_grid.n_nodes)
    other = build_grid("compact", 32, 0.02, 1024)
    with pytest.raises(GridMismatch):
        picard_iterate(z, z.copy(), constant_coefficients(), zero_boundary(), np.inf,
                       _zero_noise_pair(other), small_grid, n_iters=2)


@pytest.mark.parametrize("shape", [lambda g: (g.nt + 1, g.n_nodes),
                                   lambda g: (3, g.nt + 1, g.n_nodes),
                                   lambda g: (1, 2, g.nt + 1, g.n_nodes)],
                         ids=["single", "triple", "nested"])
def test_mild_solve_rejects_a_non_pair(swap_grid, shape):
    grid, tables = swap_grid
    with pytest.raises(DimensionMismatch):
        mild_solve_w(Field(grid, np.zeros(shape(grid))), constant_coefficients(),
                     zero_boundary(), np.inf, _zero_noise_pair(grid), tables)


@pytest.mark.parametrize("other", [build_grid("compact", 32, 0.02, 1024),
                                   build_grid("compact", 32, 0.01, 512)],
                         ids=["other_nt", "other_T"])
def test_tables_of_another_grid_are_refused(small_grid, other):
    # same nx, so the shapes agree, but the tables hold the decay of another dt
    tables = build_kernel_tables(other)
    z = np.zeros(small_grid.n_nodes)
    with pytest.raises(GridMismatch):
        mild_solve_w(_const_pair(small_grid, z, z), constant_coefficients(), zero_boundary(),
                     np.inf, _zero_noise_pair(small_grid), tables)
    with pytest.raises(GridMismatch):
        mild_solve_w(_const_pair(other, z, z), constant_coefficients(), zero_boundary(),
                     np.inf, _zero_noise_pair(small_grid), tables)
