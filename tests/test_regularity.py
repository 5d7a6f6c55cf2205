import numpy as np
import pytest

from helpers import fbm_path
from stefansim.errors import InsufficientData
from stefansim.regularity import (SPACE, TIME, boundary_holder, dyadic_lags,
                                  estimate_holder, estimate_holder_ensemble,
                                  structure_function)


def test_constant_series_degenerate():
    est = estimate_holder(np.ones(4096), TIME, q=2, lag_range=(2, 64))
    assert est.degenerate
    assert np.isnan(est.exponent)


def test_linear_ramp_exact_power_law():
    dt = 1e-3
    series = np.arange(8192) * dt
    pairs = structure_function(series, TIME, [1, 2, 4, 8], q=1)
    for lag, s in pairs:
        assert s == pytest.approx(lag * dt, rel=1e-12)
    est = estimate_holder(series, TIME, q=1, lag_range=(2, 64))
    assert est.exponent == pytest.approx(1.0, abs=1e-9)
    assert not est.degenerate


def test_brownian_path_recovers_half():
    rng = np.random.default_rng(0)
    path = np.concatenate([[0.0], np.cumsum(rng.standard_normal(2**16))])
    est = estimate_holder(path, TIME, q=2, lag_range=(2, 64))
    # slope of log S_2 is 2H = 1.0 +- 0.1
    assert 2 * est.exponent == pytest.approx(1.0, abs=0.1)


@pytest.mark.parametrize("hurst", [0.25, 0.5])
def test_fbm_exponent_recovered(hurst):
    path = fbm_path(hurst, 2**16, seed=12)
    est = estimate_holder(path, TIME, q=2, lag_range=(2, 64))
    assert est.exponent == pytest.approx(hurst, abs=0.05)


def test_affine_invariance():
    path = fbm_path(0.5, 2**14, seed=3)
    a = estimate_holder(path, TIME, q=2, lag_range=(2, 64))
    b = estimate_holder(7.5 * path - 3.0, TIME, q=2, lag_range=(2, 64))
    assert b.exponent == pytest.approx(a.exponent, abs=1e-9)


def test_space_axis_on_2d_field():
    # columns of iid Brownian-in-space rows: exponent 1/2 along space
    rng = np.random.default_rng(8)
    rows = np.cumsum(rng.standard_normal((256, 2048)), axis=1)
    est = estimate_holder(rows, SPACE, q=2, lag_range=(2, 64))
    assert est.exponent == pytest.approx(0.5, abs=0.05)


def test_insufficient_data_raises():
    with pytest.raises(InsufficientData):
        structure_function(np.arange(64, dtype=float), TIME, [32], q=2)
    with pytest.raises(InsufficientData):
        structure_function(np.arange(100, dtype=float), TIME, [200], q=2)


def test_lag_range_needs_four_dyadic_lags():
    with pytest.raises(ValueError):
        dyadic_lags((2, 8))
    assert dyadic_lags((2, 16)) == [2, 4, 8, 16]
    with pytest.raises(ValueError):
        estimate_holder(np.arange(4096, dtype=float), TIME, q=2, lag_range=(4, 16))


def test_q_validation():
    with pytest.raises(ValueError):
        structure_function(np.arange(4096, dtype=float), TIME, [2, 4], q=3)


def test_boundary_holder_on_series():
    path = fbm_path(0.25, 2**15, seed=77)
    est = boundary_holder(path, q=2, lag_range=(2, 64))
    assert est.exponent == pytest.approx(0.25, abs=0.06)
    assert est.axis == TIME


def test_ensemble_pooling_reduces_variance():
    singles = [estimate_holder(fbm_path(0.5, 2**13, seed=100 + k), TIME,
                               q=2, lag_range=(2, 64)).exponent
               for k in range(8)]
    pooled = estimate_holder_ensemble(
        [fbm_path(0.5, 2**13, seed=100 + k) for k in range(8)],
        TIME, q=2, lag_range=(2, 64))
    assert pooled.n_paths == 8
    assert abs(pooled.exponent - 0.5) <= max(abs(np.array(singles) - 0.5).max(), 0.03)


def test_estimate_json_row():
    est = estimate_holder(fbm_path(0.5, 2**13, seed=1), TIME, q=2, lag_range=(2, 64))
    row = est.to_json_dict()
    assert set(row) == {"axis", "q", "exponent", "stderr", "n_paths"}


def test_boundary_exponent_band_stable_under_doubling_lambda():
    # the p' roughness comes from the profiles, not from the probe weight
    from stefansim.boundary import exp_imbalance
    from stefansim.grids import build_grid
    from stefansim.regularity import boundary_holder_ensemble
    from stefansim.spde import constant_coefficients, run_paths

    grid = build_grid("compact", 64, 0.25, 16384)
    coeffs = constant_coefficients(f=0.0, sigma=1.0)
    z = np.zeros(grid.n_nodes)
    exponents = {}
    for lam in (100.0, 200.0):
        fn = exp_imbalance(alpha=5.0, lam=lam)
        series = [traj.p_prime for traj in
                  run_paths((z, z.copy(), 0.0), coeffs, fn, np.inf, np.inf, grid,
                            seeds=range(7700, 7704))]
        exponents[lam] = boundary_holder_ensemble(series, q=2, lag_range=(2, 32)).exponent
    assert 0.15 <= exponents[100.0] <= 0.35
    assert 0.15 <= exponents[200.0] <= 0.35
