"""One batch of P paths against P single runs, and the per-path blow-up rules."""
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stefansim.boundary import exp_imbalance, stefan_fd, table_boundary, zero_boundary
from stefansim.errors import CflViolation, DimensionMismatch
from stefansim.grids import build_grid
from stefansim.regularity import (SPACE, TIME, StructureSums, dyadic_lags,
                                  estimate_holder_ensemble, structure_function)
from stefansim.spde import (ModelCoefficients, constant_coefficients, run_paths,
                            run_relative_frame, step_reflected)


def _sine(grid, amp):
    v = amp * np.sin(np.pi * grid.space_nodes() / grid.length)
    v[0] = v[-1] = 0.0
    return np.maximum(v, 0.0)


def _same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_rows_match_singles(initial, coeffs, fn, M, M_max, grid, seeds,
                              stride, lap_scale=1.0):
    batch = run_paths(initial, coeffs, fn, M, M_max, grid, seeds,
                      store_stride=stride, lap_scale=lap_scale)
    assert len(batch) == len(seeds)
    for traj, seed in zip(batch, seeds):
        one = run_relative_frame(initial, coeffs, fn, M, M_max, grid, seed,
                                 store_stride=stride, lap_scale=lap_scale)
        assert traj.seed == seed
        for name in ("times", "p", "p_prime", "norm1", "norm2"):
            assert _same_bytes(getattr(traj, name), getattr(one, name)), name
        if stride:
            for name in ("snapshot_times", "v1_snapshots", "v2_snapshots"):
                assert _same_bytes(getattr(traj, name), getattr(one, name)), name
        assert _same_bytes(traj.final_state.v1, one.final_state.v1)
        assert _same_bytes(traj.final_state.v2, one.final_state.v2)
        assert (traj.final_state.p, traj.final_state.p_prime, traj.final_state.time) == \
            (one.final_state.p, one.final_state.p_prime, one.final_state.time)
        assert (traj.blown_up, traj.tau_estimate, traj.blowup_cause) == \
            (one.blown_up, one.tau_estimate, one.blowup_cause)
    return batch


BOUNDARIES = {
    "zero": zero_boundary(),
    "exp_imbalance": exp_imbalance(alpha=5.0, lam=100.0, clamp=4.0),
    "stefan_fd": stefan_fd(clamp=4.0),
    "table": table_boundary([-1.0, 0.0, 2.0], [-3.0, 0.5, 4.0]),
}


@pytest.mark.parametrize("kind", sorted(BOUNDARIES))
def test_batch_rows_equal_single_runs(kind):
    g = build_grid("compact", 32, 0.02, 512)
    v0 = _sine(g, 0.5)
    assert_rows_match_singles((v0, 0.3 * v0, 1.0),
                              constant_coefficients(f=0.5, sigma=1.0),
                              BOUNDARIES[kind], np.inf, np.inf, g,
                              seeds=[11, 12, 13], stride=5)


@pytest.mark.parametrize("kind", ["exp_imbalance", "stefan_fd"])
def test_batch_rows_equal_single_runs_halfline_finite_M(kind):
    g = build_grid("halfline", 64, 0.05, 2048, length=4.0, weight_r=0.5)
    x = g.space_nodes()
    v0 = x * np.exp(-x)
    v0[-1] = 0.0

    def drift(xv, u):
        return 1.0 - 0.5 * u

    coeffs = ModelCoefficients(f1=drift, f2=drift,
                               sigma1=lambda xv, u: 0.5 * np.exp(-xv),
                               sigma2=lambda xv, u: 0.4 * np.exp(-xv))
    batch = assert_rows_match_singles((v0, 0.5 * v0, 0.0), coeffs,
                                      BOUNDARIES[kind], 0.3, np.inf, g,
                                      seeds=[3, 4], stride=64)
    # the cap F_Mr binds somewhere, so the finite M is exercised
    weighted = np.exp(-0.5 * x) * batch[0].v1_snapshots
    assert weighted.max() > 0.3


def test_batch_row_blowup_leaves_the_others_running():
    g = build_grid("compact", 16, 0.02, 256)
    v0 = _sine(g, 0.5)
    coeffs = constant_coefficients(f=20.0, sigma=3.0)
    # with h = 0 the truncation M (which may not exceed M_max) changes nothing
    fn = BOUNDARIES["zero"]
    seeds = list(range(40, 46))
    # a threshold between the smallest and largest peak pair norm stops
    # some paths and not others
    peaks = []
    for s in seeds:
        t = run_relative_frame((v0, v0.copy(), 0.0), coeffs, fn, np.inf, np.inf, g, s)
        peaks.append(np.max(t.norm1 + t.norm2))
    assert min(peaks) < max(peaks)
    M_max = 0.5 * (min(peaks) + max(peaks))
    batch = assert_rows_match_singles((v0, v0.copy(), 0.0), coeffs, fn, M_max,
                                      M_max, g, seeds, stride=7)
    blown = [t.blown_up for t in batch]
    assert any(blown) and not all(blown)
    for t in batch:
        if t.blown_up:
            assert t.blowup_cause == "threshold"
            assert t.norm1[-1] + t.norm2[-1] >= M_max
            assert len(t.times) < g.nt + 1
        else:
            assert len(t.times) == g.nt + 1


@given(nx=st.integers(4, 12), steps_per_dx2=st.integers(2, 4),
       n_steps=st.integers(8, 48), n_paths=st.integers(1, 4),
       seed=st.integers(0, 2**63), kind=st.sampled_from(sorted(BOUNDARIES)),
       stride=st.integers(0, 9))
def test_batch_invariance_property(nx, steps_per_dx2, n_steps, n_paths, seed,
                                   kind, stride):
    dx = 1.0 / nx
    dt = dx * dx / steps_per_dx2
    g = build_grid("compact", nx, n_steps * dt, n_steps)
    # keep |h| dt <= dx on every path
    speed = 0.9 * g.dx / g.dt
    fn = BOUNDARIES[kind]
    if kind in ("exp_imbalance", "stefan_fd"):
        fn = dataclasses.replace(fn, clamp=speed)
    elif kind == "table":
        fn = table_boundary([-1.0, 1.0], [-speed, speed])
    v0 = _sine(g, 0.4)
    assert_rows_match_singles((v0, 0.5 * v0, 0.0),
                              constant_coefficients(f=1.0, sigma=1.0), fn,
                              np.inf, np.inf, g,
                              seeds=[seed + k for k in range(n_paths)], stride=stride)


def test_cfl_violation_names_the_offending_path():
    g = build_grid("compact", 16, 0.05, 256)
    v = np.zeros((2, 3, g.n_nodes))
    c = np.array([0.0, 1e9, 0.0])
    with pytest.raises(CflViolation, match=r"^path 1: "):
        step_reflected(v, c, np.zeros_like(v), constant_coefficients(), zero_boundary(),
                       np.inf, g)
    with pytest.raises(CflViolation, match=r"^path b: "):
        step_reflected(v, c, np.zeros_like(v), constant_coefficients(), zero_boundary(),
                       np.inf, g, paths=["a", "b", "c"])


def test_step_rejects_noise_of_another_shape():
    g = build_grid("compact", 16, 0.05, 256)
    v = np.zeros((2, 2, g.n_nodes))
    with pytest.raises(DimensionMismatch):
        step_reflected(v, np.zeros(2), np.zeros((2, 1, g.n_nodes)), constant_coefficients(),
                       zero_boundary(), np.inf, g)


def test_cfl_violation_in_a_run_names_the_first_path_to_violate():
    g = build_grid("compact", 32, 0.05, 512)
    fn = exp_imbalance(alpha=50.0, lam=100.0)
    coeffs = constant_coefficients(f=0.0, sigma=4.0)
    z = np.zeros(g.n_nodes)
    seeds = [70, 71, 72, 73]
    first = {}
    for s in seeds:
        with pytest.raises(CflViolation) as err:
            run_relative_frame((z, z.copy(), 0.0), coeffs, fn, np.inf, np.inf, g, s)
        first[s] = float(re.search(r"at t=(\S+)$", str(err.value)).group(1))
    k = min(range(len(seeds)), key=lambda i: (first[seeds[i]], i))
    assert k != 0
    with pytest.raises(CflViolation, match=rf"^path {k} \(seed {seeds[k]}\): "):
        run_paths((z, z.copy(), 0.0), coeffs, fn, np.inf, np.inf, g, seeds)


def test_infinite_drift_flags_non_finite_and_stores_no_infinity():
    g = build_grid("compact", 16, 0.01, 256)
    v0 = _sine(g, 0.5)
    traj = run_relative_frame((v0, v0.copy(), 0.0), constant_coefficients(f=np.inf),
                              zero_boundary(), np.inf, np.inf, g, seed=1)
    assert traj.blown_up and traj.blowup_cause == "non_finite"
    # the first step overflows, so the record keeps only the initial state
    assert len(traj.times) == 1 and traj.tau_estimate == g.dt
    for arr in (traj.p, traj.p_prime, traj.norm1, traj.norm2,
                traj.final_state.v1, traj.final_state.v2):
        assert np.isfinite(arr).all()
    assert np.array_equal(traj.final_state.v1, v0)


def test_nan_volatility_is_flagged_instead_of_run_to_the_end():
    g = build_grid("compact", 16, 0.01, 256)
    v0 = _sine(g, 0.5)
    traj = run_relative_frame((v0, v0.copy(), 0.0),
                              constant_coefficients(f=0.0, sigma=np.nan),
                              exp_imbalance(), 2.0, 10.0, g, seed=1, store_stride=1)
    assert traj.blown_up and traj.blowup_cause == "non_finite"
    assert len(traj.times) < g.nt + 1
    assert np.isfinite(traj.norm1).all() and np.isfinite(traj.norm2).all()
    assert np.isfinite(traj.v1_snapshots).all() and np.isfinite(traj.final_state.v2).all()


def test_store_sides_keeps_only_the_named_profiles():
    g = build_grid("compact", 16, 0.01, 64)
    v0 = _sine(g, 0.5)
    full, only1 = (run_paths((v0, v0.copy(), 0.0), constant_coefficients(), zero_boundary(),
                             np.inf, np.inf, g, [5], store_stride=4, store_sides=sides)[0]
                   for sides in ((1, 2), (1,)))
    assert only1.v2_snapshots is None
    assert _same_bytes(only1.v1_snapshots, full.v1_snapshots)


@pytest.mark.parametrize("cause", ["threshold", "non_finite"])
def test_structure_sums_sink_matches_stored_snapshots(cause):
    g = build_grid("compact", 16, 0.08, 1024)
    v0 = _sine(g, 0.5)
    seeds = list(range(40, 46))
    # some paths stop: at a pair-norm threshold, or with a drift that turns
    # infinite above a level (the step is then discarded)
    level = {"threshold": np.inf, "non_finite": 3.9}[cause]

    def drift(x, u):
        return np.where(u > level, np.inf, 20.0)

    vol = lambda x, u: np.full_like(u, 3.0)  # noqa: E731
    coeffs = ModelCoefficients(f1=drift, f2=drift, sigma1=vol, sigma2=vol)
    M_max = 6.25 if cause == "threshold" else np.inf
    initial = (v0, v0.copy(), 0.0)
    stored = run_paths(initial, coeffs, zero_boundary(), M_max, M_max, g, seeds,
                       store_stride=1, store_sides=(1,))
    causes = [t.blowup_cause for t in stored]
    assert cause in causes and None in causes
    assert min(len(t.times) for t in stored) > 100

    time_lags, space_lags = dyadic_lags((1, 8)), dyadic_lags((1, 8))
    sums = StructureSums(len(seeds), g.n_nodes, g.nt + 1, 2, time_lags, space_lags)
    sunk = run_paths(initial, coeffs, zero_boundary(), M_max, M_max, g, seeds,
                     store_stride=1, store_sides=(1,), sink=sums.push)
    assert all(t.v1_snapshots is None for t in sunk)
    assert [len(t.times) for t in sunk] == [len(t.times) for t in stored]
    fields = [t.v1_snapshots for t in stored]
    for axis, lags in ((TIME, time_lags), (SPACE, space_lags)):
        want = [[s for _, s in structure_function(f, axis, lags, 2)] for f in fields]
        np.testing.assert_allclose(sums.structure_functions(axis, lags), want,
                                   rtol=1e-12, atol=0)
        lag_range = (lags[0], lags[-1])
        assert estimate_holder_ensemble(sums, axis, 2, lag_range) == \
            estimate_holder_ensemble(fields, axis, 2, lag_range)
