"""run_paths against the plain allocating step, and the work it does per step.

``run_paths`` steps in buffers it owns and evaluates u-free coefficients
once per run; neither may change a byte of what it records.
"""
import dataclasses

import numpy as np
import pytest

import stefansim.spde
from helpers import reference_path
from stefansim.boundary import exp_imbalance, stefan_fd, table_boundary, zero_boundary
from stefansim.config import coefficients_from_config
from stefansim.grids import build_grid
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
    # step after 547 (both inside the third noise block); seed 30 runs on
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


@pytest.mark.parametrize("n_paths", [1, 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_run_paths_equals_the_allocating_step_byte_for_byte(case, n_paths):
    g, initial, coeffs, fn, M, M_max, lap_scale, seeds = CASES[case]()
    seeds = seeds[:n_paths]
    trajs = run_paths(initial, coeffs, fn, M, M_max, g, seeds, lap_scale=lap_scale,
                      observer=Recorder(g, n_paths, 1))
    for traj, seed in zip(trajs, seeds):
        rows, cause = reference_path(initial, coeffs, fn, M, M_max, g, seed, lap_scale)
        times, p, p_prime, norm1, norm2, states = (np.array(col) for col in zip(*rows))
        for name, want in (("times", times), ("p", p), ("p_prime", p_prime),
                           ("norm1", norm1), ("norm2", norm2), ("snapshot_times", times),
                           ("v1_snapshots", states[:, 0]), ("v2_snapshots", states[:, 1])):
            assert _same_bytes(getattr(traj, name), want), (seed, name)
        assert traj.blowup_cause == cause
    if case == "compact_finite_M":
        # the cap binds: the profiles the advection and h read are not the state
        assert np.max(trajs[0].v1_snapshots) > M
    if case == "stops_mid_block" and n_paths == 3:
        ends = [(len(t.times) - 1, t.blowup_cause) for t in trajs]
        assert ends == [(571, "threshold"), (547, "non_finite"), (g.nt, None)]


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

    before_loop = {}

    class AtStepZero(Recorder):
        def __call__(self, at, step, *rest):
            if step == 0:
                before_loop.update(calls)
            super().__call__(at, step, *rest)

    g = build_grid("compact", 8, 40 * 0.5 / 64 / 2, 40)
    v0 = _sine(g, 0.5)
    run_paths((v0, 0.5 * v0, 0.0), constant_coefficients(), exp_imbalance(clamp=1.0), 0.3,
              np.inf, g, [1, 2, 3], observer=AtStepZero(g, 3))
    # the loop calls each once per step; before it, the initial state is
    # capped and its h and norms are evaluated
    assert {name: calls[name] - before_loop[name] for name in PER_STEP} == \
        dict.fromkeys(PER_STEP, g.nt)
    assert all(before_loop[name] <= 2 for name in PER_STEP)
