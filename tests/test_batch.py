"""One batch of P paths against P single runs, and the per-path blow-up rules."""
import dataclasses
import os
import re
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
import yaml

import stefansim.spde
from helpers import assert_reaped, count_forks, set_cpus, structure_function_reference
from stefansim.boundary import exp_imbalance, stefan_fd, table_boundary, zero_boundary
from stefansim.cli import main
from stefansim.errors import CflViolation, DimensionMismatch, GridMismatch, StefansimError
from stefansim.grids import build_grid
from stefansim.noise import NoiseStream, sample_white_noise
from stefansim.regularity import (SPACE, TIME, HolderObserver, StructureSums, dyadic_lags,
                                  estimate_holder_ensemble)
from stefansim.spde import (ModelCoefficients, Recorder, constant_coefficients, run_paths,
                            run_relative_frame, step_reflected)


def _sine(grid, amp):
    v = amp * np.sin(np.pi * grid.space_nodes() / grid.length)
    v[0] = v[-1] = 0.0
    return np.maximum(v, 0.0)


def _same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class _KeepsLast(Recorder):
    """A Recorder that also hands back each path's last state, as ``traj.last``."""

    def __init__(self, grid, n_paths, stride):
        super().__init__(grid, n_paths, stride)
        self.last = np.empty((2, n_paths, grid.n_nodes))

    def __call__(self, at, steps, t, p, p_prime, norms, v):
        super().__call__(at, steps, t, p, p_prime, norms, v)
        self.last[:, at] = v[-1]

    def finish(self, ends):
        trajectories = super().finish(ends)
        for k, traj in enumerate(trajectories):
            traj.last = self.last[:, k]
        return trajectories


#: how a batch names its paths' noise: by seed, by the seed's
#: sample_white_noise pair, or every other path by its pair
NOISE_FORMS = ("seeds", "pairs", "mixed")


def _noises(grid, seeds, form):
    """The run_paths entries naming the seeds' noise in the given form."""
    return [(sample_white_noise(grid, s, 0), sample_white_noise(grid, s, 1))
            if form == "pairs" or (form == "mixed" and k % 2) else s
            for k, s in enumerate(seeds)]


def assert_rows_match_singles(initial, coeffs, fn, M, M_max, grid, seeds,
                              stride, lap_scale=1.0, form="seeds"):
    """The batch, stepped on 1, 2 and 3 CPUs, against the single run of each path."""
    noises = _noises(grid, seeds, form)
    keeps_last = partial(_KeepsLast, grid, stride=stride)
    # a single run is the one-path batch (the body of run_relative_frame),
    # and a path driven by its seed's pair is the run of that seed
    singles = [[run_paths(initial, coeffs, fn, M, M_max, grid, [single], lap_scale=lap_scale,
                          make_observer=keeps_last)[0]
                for single in ([noise] if noise is seed else [noise, seed])]
               for seed, noise in zip(seeds, noises)]
    for n_cpus in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            set_cpus(mp, n_cpus)
            batch = run_paths(initial, coeffs, fn, M, M_max, grid, noises, lap_scale=lap_scale,
                              make_observer=keeps_last)
        assert len(batch) == len(seeds)
        for traj, ones in zip(batch, singles):
            for one in ones:
                for name in ("times", "p", "p_prime", "norm1", "norm2"):
                    assert _same_bytes(getattr(traj, name), getattr(one, name)), (n_cpus, name)
                if stride:
                    for name in ("snapshot_times", "v1_snapshots", "v2_snapshots"):
                        assert _same_bytes(getattr(traj, name), getattr(one, name)), \
                            (n_cpus, name)
                assert _same_bytes(traj.last, one.last)
                assert (traj.p[-1], traj.p_prime[-1], traj.times[-1]) == \
                    (one.p[-1], one.p_prime[-1], one.times[-1])
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
    for form in NOISE_FORMS:
        assert_rows_match_singles((v0, 0.3 * v0, 1.0),
                                  constant_coefficients(f=0.5, sigma=1.0),
                                  BOUNDARIES[kind], np.inf, np.inf, g,
                                  seeds=[11, 12, 13], stride=5, form=form)


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
       stride=st.integers(0, 9), form=st.sampled_from(NOISE_FORMS))
def test_batch_invariance_property(nx, steps_per_dx2, n_steps, n_paths, seed,
                                   kind, stride, form):
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
                              seeds=[seed + k for k in range(n_paths)], stride=stride,
                              form=form)


class _InvariantCheck:
    """An observer asserting the README invariants on every state it is handed."""

    def __init__(self):
        self.steps = 0

    def __call__(self, at, steps, t, p, p_prime, norms, v):
        assert np.isfinite(v).all() and np.isfinite(norms).all()
        assert (v >= 0).all(), f"negative profile value in steps {steps}"
        assert (v[..., [0, -1]] == 0).all(), f"nonzero Dirichlet node in steps {steps}"
        self.steps += len(t)

    def finish(self, ends):
        return ends


@given(halfline=st.booleans(), nx=st.integers(4, 16), steps_per_dx2=st.integers(2, 4),
       n_steps=st.integers(8, 96), n_paths=st.integers(1, 3), seed=st.integers(0, 2**63),
       kind=st.sampled_from(sorted(BOUNDARIES)), finite_M=st.booleans(),
       a=st.floats(-20.0, 20.0), b=st.floats(0.0, 20.0), s=st.floats(0.0, 3.0),
       amp=st.floats(0.0, 2.0))
def test_profiles_stay_nonnegative_with_zero_dirichlet_nodes(
        halfline, nx, steps_per_dx2, n_steps, n_paths, seed, kind, finite_M, a, b, s, amp):
    length = 2.0 if halfline else 1.0
    dx = length / nx
    g = build_grid("halfline" if halfline else "compact", nx, n_steps * dx * dx / steps_per_dx2,
                   n_steps, length=length, weight_r=0.5)
    # keep |h| dt <= dx on every path
    speed = 0.9 * g.dx / g.dt
    fn = BOUNDARIES[kind]
    if kind in ("exp_imbalance", "stefan_fd"):
        fn = dataclasses.replace(fn, clamp=speed)
    elif kind == "table":
        fn = table_boundary([-1.0, 1.0], [-speed, speed])

    # coefficients that depend on u, with a drift that pushes below zero
    def drift1(xv, u):
        return a - b * u

    def drift2(xv, u):
        return -a - b * u * u

    def vol(xv, u):
        return s * (1.0 + np.minimum(u, 3.0))

    coeffs = ModelCoefficients(f1=drift1, f2=drift2, sigma1=vol, sigma2=vol)
    v0 = _sine(g, amp)
    check = _InvariantCheck()
    # one CPU: the one observer is read after the run, in this process
    with pytest.MonkeyPatch.context() as mp:
        set_cpus(mp, 1)
        ends = run_paths((v0, 0.5 * v0, 0.0), coeffs, fn, 0.5 if finite_M else np.inf, np.inf,
                         g, [seed + k for k in range(n_paths)], make_observer=lambda n: check)
    assert check.steps == 1 + max(last for last, _ in ends)


def test_cfl_violation_names_the_offending_path():
    # path 0 stops at its threshold step; path 1 violates |c| dt <= dx later
    # and is named by its own index and seed
    g = build_grid("compact", 32, 0.05, 512)
    fn = exp_imbalance(alpha=50.0, lam=100.0)
    coeffs = constant_coefficients(f=0.0, sigma=4.0)
    z = np.zeros(g.n_nodes)
    first = run_relative_frame((z, z.copy(), 0.0), coeffs, fn, 2.0, 2.0, g, 81)
    assert first.blowup_cause == "threshold"
    with pytest.raises(CflViolation) as err:
        run_relative_frame((z, z.copy(), 0.0), coeffs, fn, 2.0, 2.0, g, 74)
    assert float(re.search(r"at t=(\S+)$", str(err.value)).group(1)) > first.tau_estimate
    with pytest.raises(CflViolation, match=r"^path 1 \(seed 74\): "):
        run_paths((z, z.copy(), 0.0), coeffs, fn, 2.0, 2.0, g, [81, 74])
    # a path driven by an explicit pair is named as such, with the same message
    pair = (sample_white_noise(g, 74, 0), sample_white_noise(g, 74, 1))
    with pytest.raises(CflViolation) as by_pair:
        run_paths((z, z.copy(), 0.0), coeffs, fn, 2.0, 2.0, g, [81, pair])
    assert str(by_pair.value) == str(err.value).replace("path 0 (seed 74)",
                                                         "path 1 (explicit noise)")


def test_a_pair_on_another_grid_is_refused():
    g = build_grid("compact", 16, 0.02, 256)
    z = np.zeros(g.n_nodes)
    for other in (build_grid("compact", 16, 0.02, 512), build_grid("compact", 16, 0.01, 256),
                  build_grid("halfline", 16, 0.02, 256, length=2.0)):
        pair = (sample_white_noise(g, 5, 0), sample_white_noise(other, 5, 1))
        with pytest.raises(GridMismatch):
            run_paths((z, z.copy(), 0.0), constant_coefficients(), zero_boundary(),
                      np.inf, np.inf, g, [4, pair])


def test_step_rejects_noise_of_another_shape():
    g = build_grid("compact", 16, 0.05, 256)
    v = np.zeros((2, 2, g.n_nodes))
    with pytest.raises(DimensionMismatch):
        step_reflected(v, v, np.zeros(2), np.zeros((2, 1, g.n_nodes)),
                       constant_coefficients().terms(v, g), g, 1.0, np.empty_like(v),
                       np.empty((2,) + v.shape))


def test_cfl_violation_in_a_run_names_the_first_path_to_violate():
    g = build_grid("compact", 32, 0.05, 512)
    fn = exp_imbalance(alpha=50.0, lam=100.0)
    coeffs = constant_coefficients(f=0.0, sigma=4.0)
    z = np.zeros(g.n_nodes)
    seeds = [70, 71, 72, 73]
    first, message = {}, {}
    for s in seeds:
        with pytest.raises(CflViolation) as err:
            run_relative_frame((z, z.copy(), 0.0), coeffs, fn, np.inf, np.inf, g, s)
        message[s] = str(err.value)
        first[s] = float(re.search(r"at t=(\S+)$", message[s]).group(1))
    k = min(range(len(seeds)), key=lambda i: (first[seeds[i]], i))
    assert k != 0
    # row 0 violates later, in the same block when one block covers the run
    want = message[seeds[k]].replace("path 0 ", f"path {k} ", 1)
    for block in (1, 7, stefansim.spde.NOISE_BLOCK, g.nt):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stefansim.spde, "NOISE_BLOCK", block)
            with pytest.raises(CflViolation) as err:
                run_paths((z, z.copy(), 0.0), coeffs, fn, np.inf, np.inf, g, seeds)
        assert str(err.value) == want, block


def test_a_stopped_paths_later_speeds_raise_nothing():
    # seed 81 stops at its threshold at step 6.  Run on past it, as its
    # block runs on, its speed breaks |c| dt <= dx at step 8.
    g = build_grid("compact", 32, 0.05, 512)
    fn = exp_imbalance(alpha=50.0, lam=100.0)
    coeffs = constant_coefficients(f=0.0, sigma=4.0)
    z = np.zeros(g.n_nodes)
    with pytest.raises(CflViolation) as err:
        run_relative_frame((z, z.copy(), 0.0), coeffs, fn, 2.0, np.inf, g, 81)
    t = float(re.search(r"at t=(\S+)$", str(err.value)).group(1))
    assert round(t / g.dt) == 8 <= stefansim.spde.NOISE_BLOCK
    traj = run_relative_frame((z, z.copy(), 0.0), coeffs, fn, 2.0, 2.0, g, 81)
    assert (len(traj.times) - 1, traj.blowup_cause) == (6, "threshold")


def test_a_stopped_rows_speeds_in_later_blocks_raise_nothing():
    # side 1 runs away once it passes 2.5.  Seed 46 then stops at its
    # threshold; its row, stepped on to the end of the run, breaks
    # |c| dt <= dx blocks later.  Seeds 41 and 42 run to the end.
    g = build_grid("compact", 16, 0.08, 1024)
    v0 = _sine(g, 0.5)
    vol = lambda x, u: np.full_like(u, 3.0)  # noqa: E731
    coeffs = ModelCoefficients(f1=lambda x, u: np.where(u > 2.5, 1e5, 2.0),
                               f2=lambda x, u: np.zeros_like(u), sigma1=vol, sigma2=vol)
    args = ((v0, v0.copy(), 0.0), coeffs, exp_imbalance(alpha=100.0, lam=100.0), 60.0)
    with pytest.raises(CflViolation) as err:
        run_relative_frame(*args, np.inf, g, 46)
    violation = round(float(re.search(r"at t=(\S+)$", str(err.value)).group(1)) / g.dt)
    stop = len(run_relative_frame(*args, 60.0, g, 46).times) - 1
    block = stefansim.spde.NOISE_BLOCK
    assert (stop - 1) // block < violation // block
    batch = assert_rows_match_singles(*args, 60.0, g, [41, 46, 42], stride=64)
    assert [t.blowup_cause for t in batch] == [None, "threshold", None]


def test_infinite_drift_flags_non_finite_and_stores_no_infinity():
    g = build_grid("compact", 16, 0.01, 256)
    v0 = _sine(g, 0.5)
    traj = run_relative_frame((v0, v0.copy(), 0.0), constant_coefficients(f=np.inf),
                              zero_boundary(), np.inf, np.inf, g, noise=1, store_stride=1)
    assert traj.blown_up and traj.blowup_cause == "non_finite"
    # the first step overflows, so the record keeps only the initial state
    assert len(traj.times) == 1 and traj.tau_estimate == g.dt
    for arr in (traj.p, traj.p_prime, traj.norm1, traj.norm2, traj.v1_snapshots,
                traj.v2_snapshots):
        assert np.isfinite(arr).all()
    assert np.array_equal(traj.v1_snapshots[-1], v0)


def test_nan_volatility_is_flagged_instead_of_run_to_the_end():
    g = build_grid("compact", 16, 0.01, 256)
    v0 = _sine(g, 0.5)
    traj = run_relative_frame((v0, v0.copy(), 0.0),
                              constant_coefficients(f=0.0, sigma=np.nan),
                              exp_imbalance(), 2.0, 10.0, g, noise=1, store_stride=1)
    assert traj.blown_up and traj.blowup_cause == "non_finite"
    assert len(traj.times) < g.nt + 1
    assert np.isfinite(traj.norm1).all() and np.isfinite(traj.norm2).all()
    assert np.isfinite(traj.v1_snapshots).all() and np.isfinite(traj.v2_snapshots[-1]).all()


class _Calls:
    """An observer that keeps a copy of every call it gets."""

    def __init__(self, n_paths):
        self.rows = [[] for _ in range(n_paths)]   # per path: (step, t, p, p', norms, v)

    def __call__(self, at, steps, t, p, p_prime, norms, v):
        for a, k in enumerate(np.arange(len(self.rows))[at]):
            for j, step in enumerate(range(steps.start, steps.stop)):
                self.rows[k].append((step, t[j], p[j, a], p_prime[j, a], norms[j, :, a].copy(),
                                     v[j, :, a].copy()))

    def finish(self, ends):
        return ends


def _stopping_batch(cause):
    """Six paths on one grid, some of which stop by ``cause``; the rest run on."""
    g = build_grid("compact", 16, 0.08, 1024)
    v0 = _sine(g, 0.5)
    # some paths stop: at a pair-norm threshold, or with a drift that turns
    # infinite above a level (the step is then discarded)
    level = np.inf if cause == "threshold" else 3.9

    def drift(x, u):
        return np.where(u > level, np.inf, 20.0)

    vol = lambda x, u: np.full_like(u, 3.0)  # noqa: E731
    coeffs = ModelCoefficients(f1=drift, f2=drift, sigma1=vol, sigma2=vol)
    M_max = np.inf if cause == "non_finite" else 6.25
    return g, ((v0, v0.copy(), 0.0), coeffs, zero_boundary(), M_max, M_max, g,
               list(range(40, 46)))


@pytest.mark.parametrize("kind", sorted(BOUNDARIES))
def test_rows_stepped_past_a_non_finite_end_warn_nothing(kind, monkeypatch):
    # one block covers the run, so a row that turns non-finite is stepped,
    # capped and has its h and norms taken to the end of the run
    g, args = _stopping_batch("non_finite")
    monkeypatch.setattr(stefansim.spde, "NOISE_BLOCK", g.nt)
    args = args[:2] + (BOUNDARIES[kind],) + args[3:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trajs = run_paths(*args, make_observer=partial(Recorder, g, stride=1))
    assert "non_finite" in {t.blowup_cause for t in trajs}
    for t in trajs:
        assert np.isfinite(t.p).all() and np.isfinite(t.v1_snapshots).all()


def test_observer_sees_each_kept_step_once_in_order(monkeypatch):
    # one CPU: the one observer is read after the run, in this process
    set_cpus(monkeypatch, 1)
    g, args = _stopping_batch("both")
    seeds = args[-1]
    calls = _Calls(len(seeds))
    ends = run_paths(*args, make_observer=lambda n: calls)
    causes = [cause for _, cause in ends]
    assert {"threshold", "non_finite", None} <= set(causes)
    recorded = run_paths(*args, make_observer=partial(Recorder, g, stride=1))
    for rows, (last, cause), traj in zip(calls.rows, ends, recorded):
        assert [row[0] for row in rows] == list(range(last + 1))
        assert all(np.isfinite(x).all() for row in rows for x in row[1:])
        columns = list(zip(*rows))      # step, t, p, p', norms, v
        norms = np.array(columns[4])
        for name, seen in (("times", columns[1]), ("p", columns[2]), ("p_prime", columns[3]),
                           ("norm1", norms[:, 0]), ("norm2", norms[:, 1])):
            assert _same_bytes(np.array(seen), getattr(traj, name)), name
        profiles = np.array(columns[5])
        assert _same_bytes(profiles[:, 0], traj.v1_snapshots)
        assert _same_bytes(profiles[:, 1], traj.v2_snapshots)
        assert traj.blowup_cause == cause


def test_a_stopped_path_keeps_its_stopping_time_and_last_state(monkeypatch):
    # one CPU: the one observer is read after the run, in this process
    set_cpus(monkeypatch, 1)
    g, args = _stopping_batch("both")
    seeds = args[-1]
    calls = _Calls(len(seeds))
    run_paths(*args, make_observer=lambda n: calls)
    recorded = run_paths(*args, make_observer=partial(Recorder, g, stride=1))
    for rows, traj in zip(calls.rows, recorded):
        assert len(traj.v1_snapshots) == len(traj.times)
        last = np.stack([traj.v1_snapshots[-1], traj.v2_snapshots[-1]])
        assert _same_bytes(last, rows[-1][5])
        if traj.blowup_cause is None:
            assert traj.tau_estimate is None and not traj.blown_up
            continue
        # t_new of the stopping step, summed as the run sums it; a non-finite
        # step is discarded, so it is the step after the last one kept
        stop = len(traj.times) - (traj.blowup_cause == "threshold")
        t_new = 0.0
        for _ in range(stop):
            t_new = t_new + g.dt
        assert traj.blown_up and traj.tau_estimate == t_new
    assert {t.blowup_cause for t in recorded} == {"threshold", "non_finite", None}


@pytest.mark.parametrize("block", [1, 7, 128])
@pytest.mark.parametrize("cause", ["threshold", "non_finite"])
def test_recorder_keeps_every_stride_th_step_and_the_last(cause, block, monkeypatch):
    # strides that divide nt and strides that do not, one past nt
    g, args = _stopping_batch(cause)
    monkeypatch.setattr(stefansim.spde, "NOISE_BLOCK", block)
    every = run_paths(*args, make_observer=partial(Recorder, g, stride=1))
    lasts = [len(traj.times) - 1 for traj in every]
    assert cause in {t.blowup_cause for t in every}
    # some path stops inside a block
    assert block == 1 or any(0 < last % block for last in lasts if last < g.nt)
    for stride in (1, 3, 7, g.nt, g.nt + 5):
        trajs = run_paths(*args, make_observer=partial(Recorder, g, stride=stride))
        for traj, full, last in zip(trajs, every, lasts):
            rows = [k for k in sorted({*range(0, g.nt + 1, stride), g.nt}) if k <= last]
            for name in ("snapshot_times", "v1_snapshots", "v2_snapshots"):
                assert _same_bytes(getattr(traj, name), getattr(full, name)[rows]), \
                    (stride, name)


@pytest.mark.parametrize("block", [1, 7, 128])
def test_a_stopped_paths_streams_are_not_drawn_after_its_stopping_block(block, monkeypatch):
    # one CPU: the draws are counted in this process
    set_cpus(monkeypatch, 1)
    g, args = _stopping_batch("both")
    monkeypatch.setattr(stefansim.spde, "NOISE_BLOCK", block)
    rows = {}       # (seed, side) -> time rows drawn
    init, draw = NoiseStream.__init__, NoiseStream.draw

    def tagged(self, grid, seed, stream=0):
        init(self, grid, seed, stream)
        self.tag = (seed, stream)

    def counted(self, n, out=None):
        rows[self.tag] = rows.get(self.tag, 0) + n
        return draw(self, n, out)
    monkeypatch.setattr(NoiseStream, "__init__", tagged)
    monkeypatch.setattr(NoiseStream, "draw", counted)
    ends = run_paths(*args, make_observer=_Calls)
    assert {"threshold", "non_finite", None} <= {cause for _, cause in ends}
    for seed, (last, cause) in zip(args[-1], ends):
        # the step that stopped the path: its last kept one, or the discarded one after it
        stop = g.nt if cause is None else last + (cause == "non_finite")
        want = min(g.nt, -(-stop // block) * block)
        assert (rows[seed, 0], rows[seed, 1]) == (want, want), (seed, cause)


@pytest.mark.parametrize("cause", ["threshold", "non_finite"])
def test_structure_sums_sink_matches_stored_snapshots(cause):
    g, args = _stopping_batch(cause)
    stored = run_paths(*args, make_observer=partial(Recorder, g, stride=1))
    causes = [t.blowup_cause for t in stored]
    assert cause in causes and None in causes
    assert min(len(t.times) for t in stored) > 100

    time_lags, space_lags = dyadic_lags((1, 8)), dyadic_lags((1, 8))
    _, ends, totals = zip(*run_paths(*args, make_observer=partial(
        HolderObserver, grid=g, q=2, time_lags=time_lags, space_lags=space_lags)))
    sums = StructureSums.join(totals, g.n_nodes, 2, time_lags, space_lags)
    assert [last + 1 for last, _ in ends] == [len(t.times) for t in stored]
    fields = [t.v1_snapshots for t in stored]
    for axis, lags in ((TIME, time_lags), (SPACE, space_lags)):
        want = [structure_function_reference(f, axis, lags, 2) for f in fields]
        np.testing.assert_allclose(sums.structure_functions(axis, lags), want,
                                   rtol=1e-12, atol=0)
        lag_range = (lags[0], lags[-1])
        assert estimate_holder_ensemble(sums, axis, 2, lag_range) == \
            estimate_holder_ensemble(fields, axis, 2, lag_range)


# ------------------------------------------------ a batch split over processes

@pytest.mark.parametrize("cause", ["threshold", "non_finite"])
def test_forked_batch_equals_one_process(cause, monkeypatch):
    # seeds and pairs mixed, some paths stopping by cause: the same
    # trajectories and ends for 1, 2 and 3 workers
    g, args = _stopping_batch(cause)
    noises = _noises(g, args[-1], "mixed")
    recorder = partial(Recorder, g, stride=1)
    set_cpus(monkeypatch, 1)
    want = run_paths(*args[:-1], noises, make_observer=recorder)
    assert cause in {t.blowup_cause for t in want} and None in {t.blowup_cause for t in want}
    for n_cpus in (1, 2, 3):
        set_cpus(monkeypatch, n_cpus)
        pids = count_forks(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = run_paths(*args[:-1], noises, make_observer=recorder)
        # Python 3.12 warns of a fork in a process that runs threads (the BLAS pool)
        assert [str(w.message) for w in caught if not (
            w.category is DeprecationWarning and "fork" in str(w.message))] == []
        assert len(pids) == n_cpus - 1
        assert_reaped(pids)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (len(a.times) - 1, a.blowup_cause) == (len(b.times) - 1, b.blowup_cause)
            for name in ("times", "p", "p_prime", "norm1", "norm2", "snapshot_times",
                         "v1_snapshots", "v2_snapshots"):
                assert _same_bytes(getattr(a, name), getattr(b, name)), (n_cpus, name)


@pytest.mark.parametrize("n_cpus, n_paths", [(1, 4), (2, 1), (3, 2), (4, 3), (2, 5), (8, 8)])
def test_forks_at_most_one_fewer_than_the_workers(n_cpus, n_paths, monkeypatch):
    g = build_grid("compact", 8, 0.02, 256)
    z = np.zeros(g.n_nodes)
    set_cpus(monkeypatch, n_cpus)
    pids = count_forks(monkeypatch)
    ends = run_paths((z, z.copy(), 0.0), constant_coefficients(), zero_boundary(), np.inf,
                     np.inf, g, range(n_paths), make_observer=_Calls)
    assert ends == [(g.nt, None)] * n_paths
    assert len(pids) == min(n_cpus, n_paths) - 1
    assert_reaped(pids)


def test_a_one_path_run_forks_nothing_and_makes_no_pipe(monkeypatch):
    # one path is one part on any number of CPUs: it is stepped in this
    # process, which is how simulate, simulate-price and the direct run of
    # picard-check step
    g = build_grid("compact", 8, 0.02, 256)
    v0 = _sine(g, 0.5)
    args = ((v0, 0.5 * v0, 0.0), constant_coefficients(), exp_imbalance(clamp=1.0), np.inf,
            np.inf, g)
    set_cpus(monkeypatch, 2)
    pids = count_forks(monkeypatch)

    def no_pipe():
        raise AssertionError("a pipe was made")
    monkeypatch.setattr(os, "pipe", no_pipe)
    traj = run_relative_frame(*args, 7, store_stride=1)
    calls = _Calls(1)
    assert run_paths(*args, [7], make_observer=lambda n: calls) == [(g.nt, None)]
    assert pids == []
    # the observer made here saw every step
    assert [row[0] for row in calls.rows[0]] == list(range(g.nt + 1))
    assert _same_bytes(np.array([row[5] for row in calls.rows[0]]),
                       np.stack((traj.v1_snapshots, traj.v2_snapshots), axis=1))


def test_forked_cfl_violation_is_the_one_process_message(monkeypatch):
    # every path violates |c| dt <= dx, path 0 later than the first to violate,
    # which lies in a later slice for some worker count
    g = build_grid("compact", 32, 0.05, 512)
    args = ((np.zeros(g.n_nodes), np.zeros(g.n_nodes), 0.0),
            constant_coefficients(f=0.0, sigma=4.0), exp_imbalance(alpha=50.0, lam=100.0),
            np.inf, np.inf, g)
    seeds = [70, 71, 72, 73]
    set_cpus(monkeypatch, 1)
    with pytest.raises(CflViolation) as one:
        run_paths(*args, seeds)
    assert not str(one.value).startswith("path 0 ")
    for n_cpus in (2, 3, 4):
        set_cpus(monkeypatch, n_cpus)
        pids = count_forks(monkeypatch)
        with pytest.raises(CflViolation) as split:
            run_paths(*args, seeds, make_observer=_Calls)
        assert str(split.value) == str(one.value), n_cpus
        assert_reaped(pids)


class _FailsIn(_Calls):
    """Counts steps like _Calls, but fails in the parent or in a child at its first call."""

    def __init__(self, n_paths, where, parent):
        super().__init__(n_paths)
        self.where, self.parent = where, parent

    def __call__(self, *args):
        here = "parent" if os.getpid() == self.parent else "child"
        if here == self.where == "parent":
            raise RuntimeError("failed in the first slice")
        if here == self.where == "child":
            raise ValueError("failed in a child")
        if here == "child" and self.where == "exit":
            os._exit(1)
        super().__call__(*args)


@pytest.mark.parametrize("where, error, match", [
    ("parent", RuntimeError, "failed in the first slice"),
    ("child", ValueError, "failed in a child"),
    ("exit", StefansimError, r"^the worker stepping path 2 \(seed 2\) to path 3 \(seed 3\) "
                             r"ended without a result$"),
])
def test_no_child_outlives_a_failed_forked_batch(where, error, match, monkeypatch):
    g = build_grid("compact", 8, 0.02, 256)
    z = np.zeros(g.n_nodes)
    set_cpus(monkeypatch, 2)
    pids = count_forks(monkeypatch)
    parent = os.getpid()
    with pytest.raises(error, match=match):
        run_paths((z, z.copy(), 0.0), constant_coefficients(), zero_boundary(), np.inf,
                  np.inf, g, range(4), make_observer=lambda n: _FailsIn(n, where, parent))
    assert len(pids) == 1
    assert_reaped(pids)


def test_forked_holder_writes_the_same_bytes_for_any_worker_count(tmp_path, monkeypatch):
    cfg = {"grid": {"domain": "compact", "nx": 16, "nt": 2048, "T": 0.05},
           "noise": {"seed": 3},
           "coefficients": {"kind": "constant", "sigma": 1.0},
           "boundary": {"kind": "exp_imbalance", "alpha": 5.0, "lambda": 100.0},
           "holder": {"n_paths": 4, "q": 2, "lag_min": 2, "lag_max": 32},
           "output": {"dir": str(tmp_path / "out")}}
    path = tmp_path / "holder.yaml"
    path.write_text(yaml.safe_dump(cfg))
    written = []
    for n_cpus in (1, 2, 3):
        set_cpus(monkeypatch, n_cpus)
        pids = count_forks(monkeypatch)
        assert main(["holder", "-c", str(path)]) == 0
        assert len(pids) == n_cpus - 1
        assert_reaped(pids)
        written.append((tmp_path / "out" / "holder.json").read_bytes())
    assert written[1] == written[0] and written[2] == written[0]
