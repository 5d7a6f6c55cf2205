from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import erf

from stefansim.boundary import exp_imbalance, zero_boundary
from stefansim.config import grid_from_config, load_yaml
from stefansim.grids import Field, build_grid
from stefansim.kernels import adaptive_trapezoid, deriv_y, eval_G, eval_H
from stefansim.noise import NoiseField, sample_white_noise
from stefansim.picard import (_causal_convolve, build_kernel_tables, mild_solve_w,
                              picard_iterate)
from stefansim.spde import ModelCoefficients, constant_coefficients, run_relative_frame

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def small_grid():
    return build_grid("compact", 32, 0.02, 512)


@pytest.fixture(scope="module")
def small_tables(small_grid):
    return build_kernel_tables(small_grid)


def _zero_noise(grid):
    return NoiseField(grid=grid, seed=0, stream=0,
                      xi=np.zeros((grid.nt, grid.n_nodes)))


def _zero_noise_pair(grid):
    return _zero_noise(grid), _zero_noise(grid)


def _const_field(grid, profile):
    return Field(grid, np.tile(profile, (grid.nt + 1, 1)))


def test_kernel_mass_bounded(small_grid, small_tables):
    # value-matrix rows integrate the kernel: mass <= 1 always, ~1 in the
    # interior at short lags (boundary absorption eats mass at long ones)
    for d in (0, 1, small_grid.nt - 1):
        rows = small_tables.mid_val[d].sum(axis=1)
        assert rows.max() <= 1.0 + 1e-9
    assert small_tables.mid_val[0].sum(axis=1)[small_grid.nx // 2] >= 0.999


def test_mild_zero_everything_is_zero(small_grid, small_tables):
    z = np.zeros(small_grid.n_nodes)
    coeffs = constant_coefficients(f=0.0, sigma=0.0)
    w, _ = mild_solve_w(_const_field(small_grid, z), _const_field(small_grid, z),
                        coeffs, zero_boundary(), np.inf, _zero_noise_pair(small_grid),
                        small_grid, tables=small_tables)
    assert np.max(np.abs(w.values)) == 0.0


def test_mild_initial_data_eigenfunction(small_grid, small_tables):
    v0 = np.sin(np.pi * small_grid.space_nodes())
    v0[0] = v0[-1] = 0.0
    coeffs = constant_coefficients(f=0.0, sigma=0.0)
    w, _ = mild_solve_w(_const_field(small_grid, v0), _const_field(small_grid, 0 * v0),
                        coeffs, zero_boundary(), np.inf, _zero_noise_pair(small_grid),
                        small_grid, tables=small_tables)
    t = small_grid.time_nodes()[:, None]
    expected = np.exp(-np.pi**2 * t) * v0[None, :]
    assert np.max(np.abs(w.values - expected)) <= 1e-3


def test_mild_constant_forcing_matches_direct(small_grid, small_tables):
    z = np.zeros(small_grid.n_nodes)
    coeffs = constant_coefficients(f=1.0, sigma=0.0)
    w, _ = mild_solve_w(_const_field(small_grid, z), _const_field(small_grid, z),
                        coeffs, zero_boundary(), np.inf, _zero_noise_pair(small_grid),
                        small_grid, tables=small_tables)
    traj = run_relative_frame((z, z.copy(), 0.0), coeffs, zero_boundary(),
                              np.inf, np.inf, small_grid, seed=0, store_stride=1)
    assert np.max(np.abs(w.values - traj.v1_snapshots)) <= 2e-3


def test_trivial_fixed_point_converges_immediately(small_grid, small_tables):
    z = np.zeros(small_grid.n_nodes)
    coeffs = constant_coefficients(f=0.0, sigma=0.0)
    noise = (_zero_noise(small_grid), _zero_noise(small_grid))
    rep = picard_iterate(z, z.copy(), coeffs, zero_boundary(), np.inf, noise,
                         small_grid, n_iters=2, tables=small_tables)
    assert rep.d[0] == 0.0
    assert rep.converged


def test_picard_contracts_and_matches_direct(small_grid, small_tables):
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
                         n_iters=8, tables=small_tables, compare_direct=True)
    d = rep.d
    assert all(np.isfinite(d))
    for i in range(1, 5):
        if d[i] > 1e-13:
            assert d[i + 1] / d[i] <= 0.8
    assert d[-1] <= 1e-4
    bound = 5.0 * (small_grid.dx + np.sqrt(small_grid.dt))
    assert rep.final_gap_vs_direct <= bound
    # iterates stay nonnegative with pinned ends
    assert rep.v1.values.min() >= 0.0
    assert np.all(rep.v1.values[:, 0] == 0.0)


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


def test_iteration_report_json(small_grid, small_tables):
    z = np.zeros(small_grid.n_nodes)
    noise = (_zero_noise(small_grid), _zero_noise(small_grid))
    rep = picard_iterate(z, z.copy(), constant_coefficients(f=0.0, sigma=0.0),
                         zero_boundary(), np.inf, noise, small_grid,
                         n_iters=2, tables=small_tables)
    payload = rep.to_json_dict()
    assert payload["schema"] == 1
    assert set(payload) >= {"d", "iters", "converged", "final_gap_vs_direct"}


def test_determinism(small_grid, small_tables):
    z0 = 0.2 * np.sin(np.pi * small_grid.space_nodes())
    z0[0] = z0[-1] = 0.0
    coeffs = constant_coefficients(f=0.2, sigma=0.3)
    fn = exp_imbalance(clamp=1.0)
    noise = (sample_white_noise(small_grid, 9, 0), sample_white_noise(small_grid, 9, 1))
    r1 = picard_iterate(z0, z0.copy(), coeffs, fn, 1.0, noise, small_grid,
                        n_iters=3, tables=small_tables)
    r2 = picard_iterate(z0, z0.copy(), coeffs, fn, 1.0, noise, small_grid,
                        n_iters=3, tables=small_tables)
    assert r1.d == r2.d
    assert np.array_equal(r1.v1.values, r2.v1.values)


def test_halfline_mild_solver_runs():
    g = build_grid("halfline", 64, 0.01, 256, length=4.0, weight_r=0.3)
    tables = build_kernel_tables(g)
    assert tables.n_images == 0
    v0 = g.space_nodes() * np.exp(-g.space_nodes())
    v0[0] = v0[-1] = 0.0
    coeffs = constant_coefficients(f=0.0, sigma=0.0)
    w, _ = mild_solve_w(Field(g, np.tile(v0, (g.nt + 1, 1))),
                        Field(g, np.zeros((g.nt + 1, g.n_nodes))),
                        coeffs, zero_boundary(), np.inf, _zero_noise_pair(g), g,
                        tables=tables)
    # pure initial-data evolution stays bounded by the heat semigroup
    assert w.values.max() <= v0.max() + 1e-9
    assert np.max(np.abs(w.values[0] - v0)) == 0.0


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
        init, _ = _per_lag_moments((d + 1) * grid.dt, grid, tables.n_images)
        val, der = _per_lag_moments((d + 0.5) * grid.dt, grid, tables.n_images)
        assert np.max(np.abs(tables.init[d] - init)) <= 1e-13
        assert np.max(np.abs(tables.mid_val[d] - val)) <= 1e-13
        assert np.max(np.abs(tables.mid_der[d] - der)) <= 1e-13


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
    # hat moments of K and dK/dy by quadrature, piece by piece between nodes
    tables = build_kernel_tables(grid)
    x, dx, J = grid.space_nodes(), grid.dx, grid.n_nodes
    if tables.n_images:
        def value(t, xj, y):
            return eval_H(t, xj, y, tables.n_images)

        def slope(t, xj, y):
            return deriv_y("H", t, xj, y, tables.n_images)
    else:
        value = eval_G

        def slope(t, xj, y):
            return deriv_y("G", t, xj, y)

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
        der = moments(slope, t_mid)
        # the table holds -int K hat' (by parts); on the half-line the term
        # K(t, x, L) hat(L) stays behind in the last column
        der[:, -1] -= value(t_mid, x, x[-1])
        assert np.max(np.abs(tables.init[d] - moments(value, (d + 1) * grid.dt))) <= 1e-10
        assert np.max(np.abs(tables.mid_val[d] - moments(value, t_mid))) <= 1e-10
        assert np.max(np.abs(tables.mid_der[d] - der)) <= 1e-10


# ------------------------------------------------------- paired mild solve

def test_causal_convolve_matches_direct_lag_sum():
    rng = np.random.default_rng(5)
    nt, J, S = 16, 5, 3
    kernel = rng.normal(size=(nt, J, J))
    signal = rng.normal(size=(nt, J, S))
    direct = np.array([sum(kernel[i - s] @ signal[s] for s in range(i + 1))
                       for i in range(nt)])
    assert np.max(np.abs(_causal_convolve(kernel, signal) - direct)) <= 1e-12


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
    w1, w2 = mild_solve_w(Field(grid, v1), Field(grid, v2), coeffs, fn, M,
                          (n1, n2), grid, tables=tables)
    s1, s2 = mild_solve_w(Field(grid, v2), Field(grid, v1), coeffs, fn, M,
                          (n2, n1), grid, tables=tables)
    assert np.array_equal(w1.values, s2.values)
    assert np.array_equal(w2.values, s1.values)
