import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import fbm_path, structure_function_reference
from stefansim.errors import InsufficientData
from stefansim.regularity import (BLOCK_ROWS, MIN_INCREMENTS, SPACE, TIME, StructureSums,
                                  boundary_holder_ensemble, dyadic_lags,
                                  estimate_holder_ensemble, pooled_increments,
                                  structure_function)


def test_constant_series_degenerate():
    est = estimate_holder_ensemble([np.ones(4096)], TIME, q=2, lag_range=(2, 64))
    assert est.degenerate
    assert np.isnan(est.exponent)


def test_linear_ramp_exact_power_law():
    dt = 1e-3
    series = np.arange(8192) * dt
    pairs = structure_function(series, TIME, [1, 2, 4, 8], q=1)
    for lag, s in pairs:
        assert s == pytest.approx(lag * dt, rel=1e-12)
    est = estimate_holder_ensemble([series], TIME, q=1, lag_range=(2, 64))
    assert est.exponent == pytest.approx(1.0, abs=1e-9)
    assert not est.degenerate


def test_brownian_path_recovers_half():
    rng = np.random.default_rng(0)
    path = np.concatenate([[0.0], np.cumsum(rng.standard_normal(2**16))])
    est = estimate_holder_ensemble([path], TIME, q=2, lag_range=(2, 64))
    # slope of log S_2 is 2H = 1.0 +- 0.1
    assert 2 * est.exponent == pytest.approx(1.0, abs=0.1)


@pytest.mark.parametrize("hurst", [0.25, 0.5])
def test_fbm_exponent_recovered(hurst):
    path = fbm_path(hurst, 2**16, seed=12)
    est = estimate_holder_ensemble([path], TIME, q=2, lag_range=(2, 64))
    assert est.exponent == pytest.approx(hurst, abs=0.05)


def test_affine_invariance():
    path = fbm_path(0.5, 2**14, seed=3)
    a = estimate_holder_ensemble([path], TIME, q=2, lag_range=(2, 64))
    b = estimate_holder_ensemble([7.5 * path - 3.0], TIME, q=2, lag_range=(2, 64))
    assert b.exponent == pytest.approx(a.exponent, abs=1e-9)


def test_space_axis_on_2d_field():
    # columns of iid Brownian-in-space rows: exponent 1/2 along space
    rng = np.random.default_rng(8)
    rows = np.cumsum(rng.standard_normal((256, 2048)), axis=1)
    est = estimate_holder_ensemble([rows], SPACE, q=2, lag_range=(2, 64))
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
        estimate_holder_ensemble([np.arange(4096, dtype=float)], TIME, q=2, lag_range=(4, 16))


def test_q_validation():
    with pytest.raises(ValueError):
        structure_function(np.arange(4096, dtype=float), TIME, [2, 4], q=3)


def test_boundary_holder_on_series():
    path = fbm_path(0.25, 2**15, seed=77)
    est = boundary_holder_ensemble([path], q=2, lag_range=(2, 64))
    assert est.exponent == pytest.approx(0.25, abs=0.06)
    assert est.axis == TIME


def test_ensemble_pooling_reduces_variance():
    singles = [estimate_holder_ensemble([fbm_path(0.5, 2**13, seed=100 + k)], TIME,
                                        q=2, lag_range=(2, 64)).exponent
               for k in range(8)]
    pooled = estimate_holder_ensemble(
        [fbm_path(0.5, 2**13, seed=100 + k) for k in range(8)],
        TIME, q=2, lag_range=(2, 64))
    assert pooled.n_paths == 8
    assert abs(pooled.exponent - 0.5) <= max(abs(np.array(singles) - 0.5).max(), 0.03)


def test_estimate_json_row():
    est = estimate_holder_ensemble([fbm_path(0.5, 2**13, seed=1)], TIME, q=2, lag_range=(2, 64))
    row = est.to_json_dict()
    assert set(row) == {"axis", "q", "exponent", "stderr", "n_paths"}


def test_degenerate_json_row_is_null_and_flagged():
    row = estimate_holder_ensemble([np.ones(4096)], TIME, q=2, lag_range=(2, 64)).to_json_dict()
    assert row["exponent"] is None and row["stderr"] is None
    assert row["degenerate"] is True


def _reference(paths, axis, lags, q):
    """(P, len(lags)) reference values per stored path, or None if one raises."""
    try:
        return np.array([structure_function_reference(path, axis, lags, q) for path in paths])
    except InsufficientData:
        return None


def _fed_row_by_row(paths, n_cols, q, time_lags, space_lags):
    """Push the paths one row at a time, the shortest block a run_paths observer is handed."""
    lengths = np.array([len(path) for path in paths])
    sums = StructureSums(len(paths), n_cols, int(lengths.max()), q, time_lags, space_lags)
    for i in range(lengths.max()):
        live = np.flatnonzero(lengths > i)
        at = slice(None) if live.size == len(paths) else live
        sums.push(at, np.stack([paths[k][i].reshape(n_cols) for k in live])[None])
    return sums


@given(n_cols=st.sampled_from([1, 3, 17]), n_paths=st.integers(1, 4),
       q=st.sampled_from([1, 2]),
       time_lags=st.sets(st.sampled_from([1, 2, 5, 16, 37, BLOCK_ROWS + 88]), min_size=1),
       space_lags=st.sets(st.sampled_from([1, 2, 4, 7]), min_size=1),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_structure_sums_match_structure_function(n_cols, n_paths, q, time_lags,
                                                 space_lags, seed, data):
    time_lags, space_lags = sorted(time_lags), sorted(space_lags)
    # every path is long enough for each time lag to pool 100 increments in
    # its 80% window; path 0 runs to the end, the others stop earlier
    shortest = int((time_lags[-1] + 101) / 0.8) + 2
    n_rows = data.draw(st.integers(shortest, shortest + 2 * BLOCK_ROWS + 99))
    lengths = [n_rows] + [data.draw(st.integers(shortest, n_rows)) for _ in range(n_paths - 1)]
    rng = np.random.default_rng(seed)
    walk = rng.standard_normal((n_paths, n_rows, n_cols)).cumsum(axis=1)
    paths = [walk[k, :n] if n_cols > 1 else walk[k, :n, 0] for k, n in enumerate(lengths)]
    pushed = StructureSums.from_paths(paths, q, time_lags, space_lags)
    stepped = _fed_row_by_row(paths, n_cols, q, time_lags, space_lags)
    for axis, lags in ((TIME, time_lags), (SPACE, space_lags)):
        want = _reference(paths, axis, lags, q)
        if want is None:
            # space lags as wide as the 1- or 3-column interior
            assert axis == SPACE
            for sums in (pushed, stepped):
                with pytest.raises(InsufficientData):
                    sums.structure_functions(axis, lags)
            continue
        got = pushed.structure_functions(axis, lags)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert np.array_equal(stepped.structure_functions(axis, lags), got)


def test_structure_sums_raise_where_structure_function_does():
    # the second path stops too early to pool 100 increments at lag 32
    paths = [fbm_path(0.5, 4096, seed=5), fbm_path(0.5, 150, seed=6)]
    lags = dyadic_lags((4, 32))
    structure_function_reference(paths[0], TIME, lags, 2)
    with pytest.raises(InsufficientData):
        structure_function_reference(paths[1], TIME, lags, 2)
    with pytest.raises(InsufficientData):
        estimate_holder_ensemble(paths, TIME, q=2, lag_range=(4, 32))
    with pytest.raises(InsufficientData):
        estimate_holder_ensemble([], TIME, q=2, lag_range=(4, 32))


@given(n_rows=st.integers(1, 300), n_cols=st.integers(1, 40), lag=st.integers(1, 300),
       axis=st.sampled_from([TIME, SPACE]))
def test_pooled_increments_refuses_what_the_reference_refuses(n_rows, n_cols, lag, axis):
    try:
        structure_function_reference(np.zeros((n_rows, n_cols)), axis, [lag], 2)
    except InsufficientData:
        for wider in (lag, lag + 1):
            with pytest.raises(InsufficientData):
                pooled_increments(axis, wider, n_rows, n_cols)
    else:
        assert pooled_increments(axis, lag, n_rows, n_cols) >= MIN_INCREMENTS


def test_structure_sums_reject_other_lags_and_orders():
    path = fbm_path(0.5, 2**12, seed=4)
    sums = StructureSums.from_paths([path], 2, time_lags=dyadic_lags((2, 16)))
    with pytest.raises(ValueError, match="not reduced"):
        sums.structure_functions(TIME, [32])
    with pytest.raises(ValueError):
        estimate_holder_ensemble(sums, TIME, q=1, lag_range=(2, 16))
    with pytest.raises(ValueError):
        StructureSums(1, 1, 10, q=3)
    pooled = estimate_holder_ensemble(sums, TIME, q=2, lag_range=(2, 16))
    single = estimate_holder_ensemble([path], TIME, q=2, lag_range=(2, 16))
    assert pooled.exponent == pytest.approx(single.exponent, rel=1e-12)


def test_structure_sums_hold_only_the_last_max_lag_rows():
    # 8 paths pushed in run_paths-sized blocks: beyond the per-row sums, a
    # push holds the last max_lag rows, the block it is given and a few
    # block-sized temporaries, never a buffer of BLOCK_ROWS rows
    n_paths, n_cols, block, n_rows = 8, 65, 128, 2048
    time_lags, space_lags = dyadic_lags((16, 128)), dyadic_lags((1, 8))
    rng = np.random.default_rng(3)
    tracemalloc.start()
    try:
        sums = StructureSums(n_paths, n_cols, n_rows, 2, time_lags, space_lags)
        for _ in range(n_rows // block):
            sums.push(slice(None), rng.standard_normal((block, n_paths, n_cols)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row_sums = 8 * (len(time_lags) + len(space_lags)) * n_rows * n_paths
    row = 8 * n_paths * n_cols
    assert peak - row_sums < (max(time_lags) + 5 * block) * row, (peak - row_sums) / row


def test_boundary_exponent_band_stable_under_doubling_lambda():
    # the p' roughness comes from the profiles, not from the probe weight
    from stefansim.boundary import exp_imbalance
    from stefansim.grids import build_grid
    from stefansim.spde import constant_coefficients, run_paths

    grid = build_grid("compact", 64, 0.25, 16384)
    coeffs = constant_coefficients(f=0.0, sigma=1.0)
    z = np.zeros(grid.n_nodes)
    exponents = {}
    for lam in (100.0, 200.0):
        fn = exp_imbalance(alpha=5.0, lam=lam)
        series = [traj.p_prime for traj in
                  run_paths((z, z.copy(), 0.0), coeffs, fn, np.inf, np.inf, grid,
                            noises=range(7700, 7704))]
        exponents[lam] = boundary_holder_ensemble(series, q=2, lag_range=(2, 32)).exponent
    assert 0.15 <= exponents[100.0] <= 0.35
    assert 0.15 <= exponents[200.0] <= 0.35
