import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import stefansim.spde
from stefansim.boundary import cap_profile, eval_h, exp_imbalance, table_boundary, zero_boundary
from stefansim.errors import CflViolation, ConfigError
from stefansim.grids import Field, build_grid, profile_norm
from stefansim.noise import sample_white_noise
from stefansim.picard import build_kernel_tables, mild_solve_w, picard_iterate
from stefansim.spde import (ModelCoefficients, constant_coefficients, run_relative_frame,
                            step_reflected, tabulated_coefficients)


def _zeros(grid):
    return np.zeros(grid.n_nodes)


def test_step_fixed_point():
    g = build_grid("compact", 16, 1e-3, 16)
    v = np.zeros((2, 1, g.n_nodes))
    coeffs = constant_coefficients(f=0.0, sigma=0.0)
    out = step_reflected(v, v, np.zeros(1), np.zeros_like(v), coeffs.terms(v, g), g, 1.0,
                         np.empty_like(v), np.empty((2,) + v.shape))
    assert out is not v
    assert np.array_equal(out, v)


def test_constant_forcing_reaches_stationary_profile():
    g = build_grid("compact", 64, 1.0, 8192)
    coeffs = constant_coefficients(f=1.0, sigma=0.0)
    traj = run_relative_frame((_zeros(g), _zeros(g), 0.0), coeffs,
                              zero_boundary(), np.inf, np.inf, g, noise=1, store_stride=1)
    x = g.space_nodes()
    assert np.max(np.abs(traj.v1_snapshots[-1] - x * (1 - x) / 2)) <= 2e-3


def test_heat_eigenfunction_decay():
    g = build_grid("compact", 64, 0.05, 2048)
    v0 = np.sin(np.pi * g.space_nodes())
    v0[0] = v0[-1] = 0.0
    coeffs = constant_coefficients(f=0.0, sigma=0.0)
    traj = run_relative_frame((v0, _zeros(g), 0.0), coeffs, zero_boundary(),
                              np.inf, np.inf, g, noise=1, store_stride=1)
    expected = np.exp(-np.pi**2 * 0.05) * v0
    assert np.max(np.abs(traj.v1_snapshots[-1] - expected)) <= 1e-3


def test_maximum_principle_zero_noise():
    g = build_grid("compact", 32, 0.01, 512)
    rng = np.random.default_rng(2)
    v0 = np.abs(rng.standard_normal(g.n_nodes))
    v0[0] = v0[-1] = 0.0
    coeffs = constant_coefficients(f=0.0, sigma=0.0)
    traj = run_relative_frame((v0, _zeros(g), 0.0), coeffs, zero_boundary(),
                              np.inf, np.inf, g, noise=1)
    assert np.all(np.diff(traj.norm1) <= 1e-14)


def test_reflection_keeps_profiles_nonnegative_exactly():
    g = build_grid("compact", 32, 0.02, 1024)
    coeffs = constant_coefficients(f=-5.0, sigma=1.0)
    traj = run_relative_frame((_zeros(g), _zeros(g), 0.0), coeffs,
                              zero_boundary(), np.inf, np.inf, g, noise=4,
                              store_stride=1)
    assert traj.v1_snapshots.min() >= 0.0
    assert traj.v2_snapshots.min() >= 0.0
    assert np.all(traj.v1_snapshots[:, 0] == 0.0)
    assert np.all(traj.v1_snapshots[:, -1] == 0.0)


def test_determinism_and_noise_override():
    g = build_grid("compact", 32, 0.02, 1024)
    coeffs = constant_coefficients(f=0.0, sigma=1.0)
    fn = exp_imbalance(alpha=5.0, lam=100.0)
    a = run_relative_frame((_zeros(g), _zeros(g), 0.0), coeffs, fn,
                           np.inf, np.inf, g, noise=7)
    b = run_relative_frame((_zeros(g), _zeros(g), 0.0), coeffs, fn,
                           np.inf, np.inf, g, noise=7)
    assert a.p.tobytes() == b.p.tobytes()
    assert a.norm1.tobytes() == b.norm1.tobytes()
    pair = (sample_white_noise(g, 7, 0), sample_white_noise(g, 7, 1))
    c = run_relative_frame((_zeros(g), _zeros(g), 0.0), coeffs, fn,
                           np.inf, np.inf, g, noise=pair)
    assert np.array_equal(a.p, c.p)


def test_truncation_consistency_bit_exact_prefix():
    g = build_grid("compact", 32, 0.06, 1024)
    fn = exp_imbalance(alpha=5.0, lam=100.0)
    v0 = 0.8 * np.sin(np.pi * g.space_nodes())
    v0[0] = v0[-1] = 0.0
    coeffs = constant_coefficients(f=30.0, sigma=0.5)
    low = run_relative_frame((v0, v0.copy(), 0.0), coeffs, fn, M=2.0,
                             M_max=np.inf, grid=g, noise=5, store_stride=1)
    high = run_relative_frame((v0, v0.copy(), 0.0), coeffs, fn, M=8.0,
                              M_max=np.inf, grid=g, noise=5, store_stride=1)
    total = low.norm1 + low.norm2
    assert np.any(total >= 2.0)
    cross = int(np.argmax(total >= 2.0))
    assert np.array_equal(low.v1_snapshots[:cross + 1], high.v1_snapshots[:cross + 1])
    assert np.array_equal(low.v2_snapshots[:cross + 1], high.v2_snapshots[:cross + 1])
    assert np.array_equal(low.p[:cross + 1], high.p[:cross + 1])
    # the cap eventually binds and the runs separate
    assert np.any(np.maximum(low.norm1, low.norm2) > 2.0)
    assert not np.array_equal(low.v1_snapshots[-1], high.v1_snapshots[-1])


def test_blowup_flagging_and_monotonicity():
    g = build_grid("compact", 16, 0.05, 256)
    v0 = 0.5 * np.sin(np.pi * g.space_nodes())
    v0[0] = v0[-1] = 0.0
    coeffs = constant_coefficients(f=500.0, sigma=0.0)
    t_low = run_relative_frame((v0, v0.copy(), 0.0), coeffs, zero_boundary(),
                               10.0, 10.0, g, noise=5, store_stride=1)
    t_high = run_relative_frame((v0, v0.copy(), 0.0), coeffs, zero_boundary(),
                                20.0, 20.0, g, noise=5)
    assert t_low.blown_up and t_high.blown_up
    assert t_low.tau_estimate <= t_high.tau_estimate
    assert np.isfinite(t_low.v1_snapshots[-1]).all()
    # a blown-up path is frozen: its record ends at the step that blew up
    assert t_low.blowup_cause == "threshold"
    assert len(t_low.times) < g.nt + 1
    assert t_low.times[-1] == t_low.tau_estimate


def test_advection_cfl_guard():
    # the initial speed already violates |c| dt <= dx: the run stops before its first step
    g = build_grid("compact", 16, 0.05, 256)
    fast = table_boundary([-1.0, 1.0], [9e9, 9e9])
    with pytest.raises(CflViolation, match=r"^path 0 \(seed 3\): .* at t=0$"):
        run_relative_frame((_zeros(g), _zeros(g), 0.0), constant_coefficients(), fast,
                           np.inf, np.inf, g, noise=3)


@pytest.mark.parametrize("M", [0.3, np.inf])
def test_each_state_is_capped_once(monkeypatch, M):
    # the cap of each new state serves both its h and the next step's advection
    g = build_grid("compact", 16, 0.01, 64)
    v0 = 0.8 * np.sin(np.pi * g.space_nodes())
    v0[[0, -1]] = 0.0
    calls = []

    def counting_cap(v, grid, level):
        calls.append(level)
        return cap_profile(v, grid, level)

    monkeypatch.setattr(stefansim.spde, "cap_profile", counting_cap)
    traj = run_relative_frame((v0, 0.5 * v0, 0.0), constant_coefficients(sigma=0.5),
                              exp_imbalance(alpha=5.0, lam=5.0), M, np.inf, g, noise=2)
    assert len(traj.times) == g.nt + 1
    assert len(calls) <= g.nt + 2


def test_boundary_position_advances_by_dt_times_the_new_speed():
    g = build_grid("compact", 16, 0.01, 256)
    v0 = np.sin(np.pi * g.space_nodes())
    v0[[0, -1]] = 0.0
    traj = run_relative_frame((v0, 0.2 * v0, 0.7), constant_coefficients(sigma=0.5),
                              exp_imbalance(alpha=5.0, lam=5.0), 0.6, np.inf, g, noise=4)
    assert len(traj.p) == g.nt + 1 and traj.p[0] == 0.7
    assert np.all(traj.p_prime != 0.0)
    for k in range(1, len(traj.p)):
        assert traj.p[k] == traj.p[k - 1] + g.dt * traj.p_prime[k]


@pytest.mark.parametrize("M", [0.0, -1.0, np.nan])
def test_nonpositive_truncation_rejected(M):
    g = build_grid("compact", 16, 0.05, 256)
    with pytest.raises(ConfigError, match="must be a positive number"):
        run_relative_frame((_zeros(g), _zeros(g), 0.0), constant_coefficients(),
                           exp_imbalance(), M=M, M_max=np.inf, grid=g, noise=0)
    # the mild solver's building block takes M from library callers too
    noise = sample_white_noise(g, 0)
    with pytest.raises(ConfigError, match="must be a positive number"):
        mild_solve_w(Field(g, np.zeros((2, g.nt + 1, g.n_nodes))), constant_coefficients(),
                     exp_imbalance(), M, (noise, noise), build_kernel_tables(g))


@pytest.mark.parametrize("lap_scale", [0.0, -1.0, np.nan, np.inf])
def test_lap_scale_must_be_a_finite_positive_number(lap_scale):
    g = build_grid("compact", 8, 0.02, 64)
    with pytest.raises(ConfigError, match=r"^lap_scale=.* must be a finite positive number$"):
        run_relative_frame((_zeros(g), _zeros(g), 0.0), constant_coefficients(),
                           exp_imbalance(), np.inf, np.inf, g, noise=0, lap_scale=lap_scale)


@given(halfline=st.booleans(), a1=st.floats(0.5, 3.0), ratio=st.floats(0.0, 0.9),
       frac=st.floats(0.2, 0.8), seed=st.integers(0, 2**32 - 1))
def test_recorded_p_prime_reads_the_capped_state(halfline, a1, ratio, frac, seed):
    # M below the initial norm, so the cap binds; every p'[k] is h of the
    # k-th recorded state capped at M, bit for bit
    g = (build_grid("halfline", 16, 0.01, 256, length=2.0, weight_r=0.5) if halfline
         else build_grid("compact", 16, 0.01, 256))
    shape = np.sin(np.pi * g.space_nodes() / g.length)
    shape[[0, -1]] = 0.0
    v1, v2 = a1 * shape, ratio * a1 * shape
    M = frac * profile_norm(v1, g)
    fn = exp_imbalance(alpha=5.0, lam=5.0)
    traj = run_relative_frame((v1, v2, 0.0), constant_coefficients(sigma=0.5), fn, M, np.inf,
                              g, noise=seed, store_stride=1)
    assert len(traj.times) == g.nt + 1
    for k, pk in enumerate(traj.p_prime):
        pair = np.stack([traj.v1_snapshots[k], traj.v2_snapshots[k]])
        assert pk == eval_h(fn, *cap_profile(pair, g, M), g)


def test_non_finite_initial_speed_is_flagged_without_a_warning():
    # h of equal sides is inf * 0 = nan: the initial data are rejected before
    # any step, and numpy does not warn (pytest.ini makes a warning an error)
    g = build_grid("compact", 16, 0.01, 256)
    fn = exp_imbalance(alpha=np.inf)
    with pytest.raises(ConfigError, match="boundary speed"):
        run_relative_frame((_zeros(g), _zeros(g), 0.0), constant_coefficients(),
                           fn, np.inf, np.inf, g, noise=0)
    noise = (sample_white_noise(g, 0, 0), sample_white_noise(g, 0, 1))
    with pytest.raises(ConfigError, match="boundary speed"):
        picard_iterate(_zeros(g), _zeros(g), constant_coefficients(), fn, 1.0, noise, g)


def test_bad_initial_data_rejected():
    g = build_grid("compact", 16, 0.05, 256)
    bad = np.full(g.n_nodes, 0.1)
    with pytest.raises(ConfigError):
        run_relative_frame((bad, _zeros(g), 0.0), constant_coefficients(),
                           zero_boundary(), np.inf, np.inf, g, noise=0)
    neg = _zeros(g)
    neg[3] = -0.5
    with pytest.raises(ConfigError):
        run_relative_frame((neg, _zeros(g), 0.0), constant_coefficients(),
                           zero_boundary(), np.inf, np.inf, g, noise=0)


def test_weighted_norm_examples():
    # the half-line norm weighs by exp(-r x) with r = weight_r; the compact one is the sup
    g = build_grid("halfline", 256, 1e-4, 1024, length=4.0, weight_r=1.0)
    x = g.space_nodes()
    assert profile_norm(np.zeros_like(x), g) == 0.0
    assert profile_norm(np.exp(x), g) == pytest.approx(1.0)
    # max of x e^{-x} over [0, 4] is 1/e at x = 1 (a grid node here)
    assert profile_norm(x, g) == pytest.approx(np.exp(-1.0), abs=1e-3)
    assert profile_norm(x[:17], build_grid("compact", 16, 1e-4, 128)) == x[16]


def test_halfline_bounded_boundary_run_completes():
    g = build_grid("halfline", 128, 0.1, 4096, length=4.0, weight_r=0.5)

    def vol(x, u):
        return 0.5 * np.exp(-np.asarray(x, dtype=float))

    def drift(x, u):
        return np.zeros_like(np.asarray(x, dtype=float))

    coeffs = ModelCoefficients(f1=drift, f2=drift, sigma1=vol, sigma2=vol,
                               r=0.5, delta=1.0, growth_R=0.5)
    fn = exp_imbalance(alpha=5.0, lam=100.0, clamp=1.0)
    traj = run_relative_frame((_zeros(g), _zeros(g), 0.0), coeffs, fn,
                              np.inf, np.inf, g, noise=3)
    assert not traj.blown_up
    assert traj.times[-1] == pytest.approx(g.T)


def test_growth_envelope_violation_rejected():
    g = build_grid("halfline", 64, 1e-3, 4096, length=4.0, weight_r=0.0)

    def vol(x, u):
        return np.full_like(np.asarray(x, dtype=float), 3.0)

    def drift(x, u):
        return np.zeros_like(np.asarray(x, dtype=float))

    coeffs = ModelCoefficients(f1=drift, f2=drift, sigma1=vol, sigma2=vol,
                               r=0.0, delta=1.0, growth_R=0.5)
    with pytest.raises(ConfigError):
        run_relative_frame((_zeros(g), _zeros(g), 0.0), coeffs, zero_boundary(),
                           np.inf, np.inf, g, noise=0)


def test_boundary_moves_with_imbalance():
    g = build_grid("compact", 32, 0.01, 512)
    v0 = 0.5 * np.sin(np.pi * g.space_nodes())
    v0[0] = v0[-1] = 0.0
    coeffs = constant_coefficients(f=0.0, sigma=0.0)
    fn = exp_imbalance(alpha=5.0, lam=100.0)
    traj = run_relative_frame((v0, _zeros(g), 100.0), coeffs, fn,
                              np.inf, np.inf, g, noise=0)
    # one-sided book pushes the price up
    assert traj.p[-1] > 100.0
    assert np.all(traj.p_prime >= 0.0)


def test_tabulated_coefficients_interpolate_and_clamp():
    co = tabulated_coefficients([0.25, 0.75], [1.0, 3.0], [0.5, 0.1])
    x = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(co.f1(x, x), [1.0, 1.0, 2.0, 3.0, 3.0])
    assert np.allclose(co.sigma1(x, x), [0.5, 0.5, 0.3, 0.1, 0.1])


def test_tabulated_coefficients_sort_their_table():
    # np.interp needs increasing abscissae; a table given in reverse is the same table
    co = tabulated_coefficients([1.0, 0.0], [1.0, 0.0], [2.0, 1.0])
    x = np.array([0.0, 0.25, 0.5, 1.0])
    assert np.array_equal(co.f1(x, x), x)
    assert np.array_equal(co.sigma2(x, x), 1.0 + x)
    with pytest.raises(ValueError):
        tabulated_coefficients([0.0, 1.0], [1.0, 2.0, 3.0], [1.0, 1.0])


def test_trajectory_csv(tmp_path):
    g = build_grid("compact", 16, 1e-3, 64)
    coeffs = constant_coefficients(f=0.0, sigma=0.5)
    traj = run_relative_frame((_zeros(g), _zeros(g), 0.0), coeffs,
                              zero_boundary(), np.inf, np.inf, g, noise=1,
                              store_stride=16)
    p1 = tmp_path / "traj.csv"
    p2 = tmp_path / "profiles.csv"
    traj.to_csv(p1, header_comment="config_sha256=abc seed=1")
    traj.profiles_to_csv(p2)
    lines = p1.read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    assert lines[1] == "step,t,p,p_prime,norm1,norm2"
    assert len(lines) == 2 + g.nt + 1
    assert p2.read_text().splitlines()[0] == "t,x,v1,v2"
