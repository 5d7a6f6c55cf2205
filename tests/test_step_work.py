"""run_paths against the plain allocating step, and the work it does per step.

``run_paths`` steps in buffers it owns, in blocks of ``NOISE_BLOCK``
steps, and evaluates u-free coefficients once per run; none of that may
change a byte of what it records.
"""
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import stefansim.spde
from helpers import reference_path
from stefansim.boundary import exp_imbalance, stefan_fd, table_boundary, zero_boundary
from stefansim.config import coefficients_from_config
from stefansim.grids import build_grid
from stefansim.regularity import SPACE, TIME, HolderObserver, StructureSums
from stefansim.spde import (ModelCoefficients, Recorder, constant_coefficients, run_paths,
                            tabulated_coefficients)


def _sine(grid, amp):
    v = amp * np.sin(np.pi * grid.space_nodes() / grid.length)
    v[0] = v[-1] = 0.0
    return np.maximum(v, 0.0)


def _u_dependent():
    return ModelCoefficients(f1=lambda x, u: 1.0 - 0.5 * u, f2=lambda x, u: 0.5 - u * u,
                             sigma1=lambda x, u: 0.5 * np.exp(-x) * (1.0 + np.minimum(u, 2.0)),
                             sigma2=lambda x, u: np.full_like(u, 0.4))


def _compact_finite_M():
    g = build_grid("compact", 16, 0.5, 512)
    v0 = _sine(g, 0.5)
    return (g, (v0, 0.3 * v0, 1.0), constant_coefficients(f=0.5, sigma=1.0),
            exp_imbalance(alpha=5.0, lam=100.0, clamp=4.0), 0.3, np.inf, 1.0, [11, 12, 13])


def _halfline_F_Mr():
    g = build_grid("halfline", 32, 0.05, 1024, length=4.0, weight_r=0.5)
    x = g.space_nodes()
    v0 = x * np.exp(-x)
    v0[-1] = 0.0
    return (g, (v0, 0.5 * v0, 0.0), _u_dependent(), stefan_fd(clamp=4.0), 0.3, np.inf, 1.0,
            [3, 4, 5])


def _tables_lap_scale():
    g = build_grid("compact", 16, 0.25, 512)
    v0 = _sine(g, 0.8)
    coeffs = tabulated_coefficients([0.9, 0.1, 0.5], [1.0, -0.5, 2.0], [0.5, 1.5, 1.0])
    return (g, (v0, 0.2 * v0, 0.0), coeffs, table_boundary([-1.0, 0.0, 2.0], [-3.0, 0.5, 4.0]),
            np.inf, np.inf, 0.6, [7, 8, 9])


def _u_dependent_exp_imbalance():
    g = build_grid("compact", 16, 0.25, 512)
    v0 = _sine(g, 0.6)
    return (g, (v0, v0.copy(), 0.0), _u_dependent(),
            exp_imbalance(alpha=20.0, lam=50.0, clamp=4.0), np.inf, np.inf, 1.0, [21, 22, 23])


def _stops_mid_block():
    # seed 44 stops at its threshold step 571, seed 36 with a non-finite
    # step after 547 (both inside one block); seed 30 runs on
    g = build_grid("compact", 16, 0.08, 1024)

    def drift(x, u):
        return np.where(u > 3.9, np.inf, 20.0)

    vol = lambda x, u: np.full_like(u, 3.0)  # noqa: E731
    coeffs = ModelCoefficients(f1=drift, f2=drift, sigma1=vol, sigma2=vol)
    return (g, (_sine(g, 0.5), _sine(g, 0.5), 0.0), coeffs, zero_boundary(), 6.25, 6.25, 1.0,
            [44, 36, 30])


CASES = {f.__name__.lstrip("_"): f for f in (
    _compact_finite_M, _halfline_F_Mr, _tables_lap_scale, _u_dependent_exp_imbalance,
    _stops_mid_block)}


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_equal_to_reference(trajs, initial, coeffs, fn, M, M_max, g, seeds, lap_scale=1.0):
    """Each Trajectory, stored every step, is its seed's reference path byte for byte."""
    for traj, seed in zip(trajs, seeds):
        rows, cause = reference_path(initial, coeffs, fn, M, M_max, g, seed, lap_scale)
        times, p, p_prime, norm1, norm2, states = (np.array(col) for col in zip(*rows))
        for name, want in (("times", times), ("p", p), ("p_prime", p_prime),
                           ("norm1", norm1), ("norm2", norm2), ("snapshot_times", times),
                           ("v1_snapshots", states[:, 0]), ("v2_snapshots", states[:, 1])):
            assert _same_bytes(getattr(traj, name), want), (seed, name)
        assert traj.blowup_cause == cause


@pytest.mark.parametrize("n_paths", [1, 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_run_paths_equals_the_allocating_step_byte_for_byte(case, n_paths):
    g, initial, coeffs, fn, M, M_max, lap_scale, seeds = CASES[case]()
    seeds = seeds[:n_paths]
    trajs = run_paths(initial, coeffs, fn, M, M_max, g, seeds, lap_scale=lap_scale,
                      observer=Recorder(g, n_paths, 1))
    _assert_equal_to_reference(trajs, initial, coeffs, fn, M, M_max, g, seeds, lap_scale)
    if case == "compact_finite_M":
        # the cap binds: the profiles the advection and h read are not the state
        assert np.max(trajs[0].v1_snapshots) > M
    if case == "stops_mid_block" and n_paths == 3:
        ends = [(len(t.times) - 1, t.blowup_cause) for t in trajs]
        assert ends == [(571, "threshold"), (547, "non_finite"), (g.nt, None)]
        # both stopping steps (571, and 548, which is discarded) fall inside
        # a block, on neither its first step nor its last
        block = stefansim.spde.NOISE_BLOCK
        assert all(0 < (step - 1) % block < block - 1 for step in (571, 548))


def _climbing(level=np.inf, M_max=np.inf):
    """run_paths arguments of profiles that climb nearly every step, truncated at M_max.

    The drift turns infinite above ``level``, so the step after a state
    that passes it is non-finite.
    """
    g = build_grid("compact", 16, 200 * 0.02 / 256, 200)

    def drift(x, u):
        return np.where(u > level, np.inf, 200.0)

    vol = lambda x, u: np.full_like(u, 1.0)  # noqa: E731
    v0 = _sine(g, 0.5)
    return ((v0, 0.5 * v0, 0.0), ModelCoefficients(f1=drift, f2=drift, sigma1=vol, sigma2=vol),
            exp_imbalance(alpha=5.0, lam=100.0, clamp=0.9 * g.dx / g.dt), M_max, M_max, g)


def _records(values):
    """The indices at which ``values`` exceeds every earlier value."""
    before = np.maximum.accumulate(np.concatenate(([-np.inf], values[:-1])))
    return np.flatnonzero(values > before)


def _placement(step, block, nt):
    """Where ``step`` falls in its block of ``block`` steps (the last one may be short)."""
    if (step - 1) % block == 0:
        return "first"
    return "last" if step % block == 0 or step == nt else "mid"


#: (block length, where in its block path 0's stopping step falls); a
#: one-step block has only one place
PLACEMENTS = [(1, "first")] + [(block, place) for block in (3, 7, stefansim.spde.NOISE_BLOCK)
                               for place in ("first", "mid", "last")]
LAGS = (1, 2)


@pytest.mark.parametrize("cause", ["threshold", "non_finite"])
@pytest.mark.parametrize("block, placement", PLACEMENTS)
@settings(max_examples=2)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_block_length_changes_no_byte(cause, block, placement, seed, data):
    seeds = [seed, seed + 1, seed + 2]
    initial, coeffs, fn, M, M_max, g = _climbing()
    free, = run_paths(initial, coeffs, fn, M, M_max, g, seeds[:1], observer=Recorder(g, 1, 1))
    # path 0 stops at a state s whose pair norm (threshold) or largest
    # value (non_finite) exceeds all before it; a non-finite run finds that
    # at step s + 1, which it discards
    if cause == "threshold":
        climb, found_at = free.norm1 + free.norm2, 0
    else:
        climb = np.maximum(free.v1_snapshots.max(axis=-1), free.v2_snapshots.max(axis=-1))
        found_at = 1
    candidates = [int(s) for s in _records(climb) if s >= 40 and s + found_at <= g.nt
                  and _placement(s + found_at, block, g.nt) == placement]
    assume(candidates)
    s = data.draw(st.sampled_from(candidates))
    args = (_climbing(M_max=climb[s]) if cause == "threshold"
            else _climbing(level=np.nextafter(climb[s], -np.inf)))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stefansim.spde, "NOISE_BLOCK", block)
        trajs = run_paths(*args, seeds, observer=Recorder(g, len(seeds), 1))
        _, ends, totals = zip(*run_paths(*args, seeds,
                                         observer=HolderObserver(len(seeds), g, 2, LAGS, LAGS)))
    sums = StructureSums.join(totals, g.n_nodes, 2, LAGS, LAGS)
    assert ends[0] == (s, cause)
    assert list(ends) == [(len(t.times) - 1, t.blowup_cause) for t in trajs]
    _assert_equal_to_reference(trajs, *args, seeds)
    stored = StructureSums.from_paths([t.v1_snapshots for t in trajs], 2, LAGS, LAGS)
    for axis in (TIME, SPACE):
        assert np.array_equal(sums.structure_functions(axis, LAGS),
                              stored.structure_functions(axis, LAGS))


def _counting(coeffs):
    """The coefficients with each distinct callable counting its calls."""
    calls = {}
    wrapped = {}

    def counted(fn, name):
        if id(fn) not in wrapped:
            calls[name] = 0

            def call(x, u):
                calls[name] += 1
                return fn(x, u)
            wrapped[id(fn)] = call
        return wrapped[id(fn)]

    return calls, dataclasses.replace(
        coeffs, **{name: counted(getattr(coeffs, name), name)
                   for name in ("f1", "f2", "sigma1", "sigma2")})


U_FREE = {
    "constant": lambda: constant_coefficients(f=0.5, sigma=1.0),
    "tables": lambda: tabulated_coefficients([0.0, 1.0], [1.0, 0.0], [1.0, 0.5]),
    "exp_decay": lambda: coefficients_from_config({"coefficients": {"kind": "exp_decay"}}),
}


def _short_run(coeffs, nt=40, n_paths=2):
    g = build_grid("compact", 8, 40 * 0.5 / 64 / 2, nt)
    v0 = _sine(g, 0.5)
    run_paths((v0, v0.copy(), 0.0), coeffs, exp_imbalance(clamp=1.0), np.inf, np.inf, g,
              range(n_paths))
    return g.nt


@pytest.mark.parametrize("kind", sorted(U_FREE))
def test_u_free_coefficients_are_evaluated_once_per_run(kind):
    coeffs = U_FREE[kind]()
    assert coeffs.u_free
    calls, coeffs = _counting(coeffs)
    _short_run(coeffs)
    assert calls and all(n == 1 for n in calls.values()), calls


def test_coefficients_built_from_callables_are_evaluated_every_step():
    calls, coeffs = _counting(_u_dependent())
    assert not coeffs.u_free
    nt = _short_run(coeffs)
    assert calls == {"f1": nt, "f2": nt, "sigma1": nt, "sigma2": nt}


#: the per-step functions the benchmark's tracer wraps in ``stefansim.spde``
PER_STEP = ("step_reflected", "laplacian", "upwind_gradient", "cap_profile", "eval_h",
            "profile_norm")


def test_each_traced_per_step_function_is_called_once_per_step(monkeypatch):
    calls = dict.fromkeys(PER_STEP, 0)
    for name in PER_STEP:
        fn = getattr(stefansim.spde, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(stefansim.spde, name, counted)
    # 40 steps in blocks of 16, 16 and 8
    monkeypatch.setattr(stefansim.spde, "NOISE_BLOCK", 16)

    before_loop = {}

    class AtStepZero(Recorder):
        def __call__(self, at, steps, *rest):
            if steps.start == 0:
                before_loop.update(calls)
            super().__call__(at, steps, *rest)

    g = build_grid("compact", 8, 40 * 0.5 / 64 / 2, 40)
    v0 = _sine(g, 0.5)
    run_paths((v0, 0.5 * v0, 0.0), constant_coefficients(), exp_imbalance(clamp=1.0), 0.3,
              np.inf, g, [1, 2, 3], observer=AtStepZero(g, 3))
    # the loop calls each once per step, except profile_norm, which takes
    # a block's norms at once; before it, the initial state is capped and
    # its h and norms are evaluated
    assert {name: calls[name] - before_loop[name] for name in PER_STEP} == \
        dict.fromkeys(PER_STEP, g.nt) | {"profile_norm": 3}
    assert all(before_loop[name] <= 2 for name in PER_STEP)


class _KeepsNothing:
    def __call__(self, at, steps, t, p, p_prime, norms, v):
        pass

    def finish(self, ends):
        return ends


def _traced_peak(nt):
    """The traced peak bytes of a run of 8 paths over nt steps on 64 cells."""
    g = build_grid("compact", 64, nt * 0.25 / 64**2, nt)
    v0 = _sine(g, 0.5)
    tracemalloc.start()
    try:
        run_paths((v0, 0.5 * v0, 0.0), constant_coefficients(), exp_imbalance(clamp=1.0),
                  np.inf, np.inf, g, range(8), observer=_KeepsNothing())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_memory_does_not_grow_with_its_steps():
    _traced_peak(8)     # the first run in a process imports lazily
    # a run holds its noise and state blocks and O(P n) more, so a run
    # eight times as long peaks no higher
    short, long = _traced_peak(512), _traced_peak(4096)
    assert abs(long - short) < 4096, (short, long)
    # one (2, P, NOISE_BLOCK, n_nodes) block of float64
    block = 8 * 2 * 8 * stefansim.spde.NOISE_BLOCK * 65
    assert short < 3 * block, (short, block)
