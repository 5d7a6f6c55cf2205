import numpy as np
import pytest

from stefansim.boundary import eval_h, exp_imbalance, table_boundary, zero_boundary
from stefansim.errors import CflViolation, ConfigError, GridMismatch
from stefansim.grids import build_grid
from stefansim.noise import sample_white_noise
from stefansim.spde import (ModelCoefficients, absolute_coordinates,
                            constant_coefficients, run_relative_frame,
                            step_reflected, tabulated_coefficients, weighted_norm)


def _zeros(grid):
    return np.zeros(grid.n_nodes)


def test_step_fixed_point():
    g = build_grid("compact", 16, 1e-3, 16)
    v = np.zeros((2, 1, g.n_nodes))
    coeffs = constant_coefficients(f=0.0, sigma=0.0)
    out, p_prime = step_reflected(v, np.zeros(1), np.zeros_like(v), coeffs,
                                  zero_boundary(), np.inf, g)
    assert out is not v
    assert np.array_equal(out, v)
    assert p_prime.tolist() == [0.0]


def test_constant_forcing_reaches_stationary_profile():
    g = build_grid("compact", 64, 1.0, 8192)
    coeffs = constant_coefficients(f=1.0, sigma=0.0)
    traj = run_relative_frame((_zeros(g), _zeros(g), 0.0), coeffs,
                              zero_boundary(), np.inf, np.inf, g, seed=1)
    x = g.space_nodes()
    assert np.max(np.abs(traj.final_state.v1 - x * (1 - x) / 2)) <= 2e-3


def test_heat_eigenfunction_decay():
    g = build_grid("compact", 64, 0.05, 2048)
    v0 = np.sin(np.pi * g.space_nodes())
    v0[0] = v0[-1] = 0.0
    coeffs = constant_coefficients(f=0.0, sigma=0.0)
    traj = run_relative_frame((v0, _zeros(g), 0.0), coeffs, zero_boundary(),
                              np.inf, np.inf, g, seed=1)
    expected = np.exp(-np.pi**2 * 0.05) * v0
    assert np.max(np.abs(traj.final_state.v1 - expected)) <= 1e-3


def test_maximum_principle_zero_noise():
    g = build_grid("compact", 32, 0.01, 512)
    rng = np.random.default_rng(2)
    v0 = np.abs(rng.standard_normal(g.n_nodes))
    v0[0] = v0[-1] = 0.0
    coeffs = constant_coefficients(f=0.0, sigma=0.0)
    traj = run_relative_frame((v0, _zeros(g), 0.0), coeffs, zero_boundary(),
                              np.inf, np.inf, g, seed=1)
    assert np.all(np.diff(traj.norm1) <= 1e-14)


def test_reflection_keeps_profiles_nonnegative_exactly():
    g = build_grid("compact", 32, 0.02, 1024)
    coeffs = constant_coefficients(f=-5.0, sigma=1.0)
    traj = run_relative_frame((_zeros(g), _zeros(g), 0.0), coeffs,
                              zero_boundary(), np.inf, np.inf, g, seed=4,
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
                           np.inf, np.inf, g, seed=7)
    b = run_relative_frame((_zeros(g), _zeros(g), 0.0), coeffs, fn,
                           np.inf, np.inf, g, seed=7)
    assert a.p.tobytes() == b.p.tobytes()
    assert a.norm1.tobytes() == b.norm1.tobytes()
    pair = (sample_white_noise(g, 7, 0), sample_white_noise(g, 7, 1))
    c = run_relative_frame((_zeros(g), _zeros(g), 0.0), coeffs, fn,
                           np.inf, np.inf, g, seed=7, noise_pair=pair)
    assert np.array_equal(a.p, c.p)


def test_truncation_consistency_bit_exact_prefix():
    g = build_grid("compact", 32, 0.06, 1024)
    fn = exp_imbalance(alpha=5.0, lam=100.0)
    v0 = 0.8 * np.sin(np.pi * g.space_nodes())
    v0[0] = v0[-1] = 0.0
    coeffs = constant_coefficients(f=30.0, sigma=0.5)
    low = run_relative_frame((v0, v0.copy(), 0.0), coeffs, fn, M=2.0,
                             M_max=np.inf, grid=g, seed=5, store_stride=1)
    high = run_relative_frame((v0, v0.copy(), 0.0), coeffs, fn, M=8.0,
                              M_max=np.inf, grid=g, seed=5, store_stride=1)
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
                               10.0, 10.0, g, seed=5)
    t_high = run_relative_frame((v0, v0.copy(), 0.0), coeffs, zero_boundary(),
                                20.0, 20.0, g, seed=5)
    assert t_low.blown_up and t_high.blown_up
    assert t_low.tau_estimate <= t_high.tau_estimate
    assert np.isfinite(t_low.final_state.v1).all()
    # a blown-up path is frozen: its record ends at the step that blew up
    assert t_low.blowup_cause == "threshold"
    assert len(t_low.times) < g.nt + 1
    assert t_low.times[-1] == t_low.tau_estimate == t_low.final_state.time


def test_advection_cfl_guard():
    g = build_grid("compact", 16, 0.05, 256)
    v = np.zeros((2, 1, g.n_nodes))
    fast = table_boundary([-1.0, 1.0], [9e9, 9e9])
    c = np.array([eval_h(fast, v[0, 0], v[1, 0], g)])
    with pytest.raises(CflViolation):
        step_reflected(v, c, np.zeros_like(v), constant_coefficients(), fast,
                       np.inf, g)


def test_inconsistent_truncation_rejected():
    g = build_grid("compact", 16, 0.05, 256)
    fn = exp_imbalance(truncation_M=1.0)
    with pytest.raises(ConfigError):
        run_relative_frame((_zeros(g), _zeros(g), 0.0), constant_coefficients(),
                           fn, M=2.0, M_max=np.inf, grid=g, seed=0)


def test_bad_initial_data_rejected():
    g = build_grid("compact", 16, 0.05, 256)
    bad = np.full(g.n_nodes, 0.1)
    with pytest.raises(ConfigError):
        run_relative_frame((bad, _zeros(g), 0.0), constant_coefficients(),
                           zero_boundary(), np.inf, np.inf, g, seed=0)
    neg = _zeros(g)
    neg[3] = -0.5
    with pytest.raises(ConfigError):
        run_relative_frame((neg, _zeros(g), 0.0), constant_coefficients(),
                           zero_boundary(), np.inf, np.inf, g, seed=0)


def test_weighted_norm_examples():
    g = build_grid("halfline", 256, 1e-4, 1024, length=4.0, weight_r=1.0)
    x = g.space_nodes()
    assert weighted_norm(np.zeros_like(x), g, 1.0) == 0.0
    assert weighted_norm(np.exp(x), g, 1.0) == pytest.approx(1.0)
    # max of x e^{-x} over [0, 4] is 1/e at x = 1 (a grid node here)
    assert weighted_norm(x, g, 1.0) == pytest.approx(np.exp(-1.0), abs=1e-3)
    with pytest.raises(GridMismatch):
        weighted_norm(x[:17], build_grid("compact", 16, 1e-4, 128), 1.0)


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
                              np.inf, np.inf, g, seed=3)
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
                           np.inf, np.inf, g, seed=0)


def test_boundary_moves_with_imbalance():
    g = build_grid("compact", 32, 0.01, 512)
    v0 = 0.5 * np.sin(np.pi * g.space_nodes())
    v0[0] = v0[-1] = 0.0
    coeffs = constant_coefficients(f=0.0, sigma=0.0)
    fn = exp_imbalance(alpha=5.0, lam=100.0)
    traj = run_relative_frame((v0, _zeros(g), 100.0), coeffs, fn,
                              np.inf, np.inf, g, seed=0)
    # one-sided book pushes the price up
    assert traj.p[-1] > 100.0
    assert np.all(traj.p_prime >= 0.0)


def test_tabulated_coefficients_interpolate_and_clamp():
    co = tabulated_coefficients([0.25, 0.75], [1.0, 3.0], [0.5, 0.1])
    x = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(co.f1(x, x), [1.0, 1.0, 2.0, 3.0, 3.0])
    assert np.allclose(co.sigma1(x, x), [0.5, 0.5, 0.3, 0.1, 0.1])


def test_absolute_coordinates():
    g = build_grid("compact", 4, 1e-5, 16)
    assert np.allclose(absolute_coordinates(10.0, g, 1), 10.0 - g.space_nodes())
    assert np.allclose(absolute_coordinates(10.0, g, 2), 10.0 + g.space_nodes())


def test_trajectory_csv(tmp_path):
    g = build_grid("compact", 16, 1e-3, 64)
    coeffs = constant_coefficients(f=0.0, sigma=0.5)
    traj = run_relative_frame((_zeros(g), _zeros(g), 0.0), coeffs,
                              zero_boundary(), np.inf, np.inf, g, seed=1,
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
