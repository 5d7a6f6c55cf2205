import numpy as np
import pytest

from stefansim.boundary import (F_Mr, cap_profile, eval_h, exp_imbalance, g_lambda,
                                stefan_fd, table_boundary, zero_boundary)
from stefansim.grids import build_grid


@pytest.fixture(scope="module")
def fine_grid():
    # lam = 1000 needs lam * dx small for the trapezoid weights
    return build_grid("compact", 2**14, 1e-9, 1)


@pytest.fixture(scope="module")
def grid():
    return build_grid("compact", 256, 1e-6, 1)


def test_g_lambda_zero_profile(grid):
    assert g_lambda(np.zeros(grid.n_nodes), grid, 100.0) == 0.0


def test_g_lambda_linear_closed_form(fine_grid):
    # int_0^1 lam^2 e^{-lam x} x dx = 1 - e^{-lam}(1 + lam)
    x = fine_grid.space_nodes()
    lam = 100.0
    expected = 1.0 - np.exp(-lam) * (1.0 + lam)
    assert g_lambda(x, fine_grid, lam) == pytest.approx(expected, abs=1e-4)


def test_g_lambda_linearity(grid):
    rng = np.random.default_rng(0)
    k1 = rng.standard_normal(grid.n_nodes)
    k2 = rng.standard_normal(grid.n_nodes)
    a, b = 1.7, -0.4
    lhs = g_lambda(a * k1 + b * k2, grid, 50.0)
    rhs = a * g_lambda(k1, grid, 50.0) + b * g_lambda(k2, grid, 50.0)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_g_lambda_converges_to_boundary_derivative(fine_grid):
    x = fine_grid.space_nodes()
    for k, deriv in [(x + x**2, 1.0), (np.sin(np.pi * x), np.pi), (x * np.exp(x), 1.0)]:
        errs = [abs(g_lambda(k, fine_grid, lam) - deriv) for lam in (10.0, 100.0, 1000.0)]
        assert errs[0] > errs[1] > errs[2]


def test_eval_h_antisymmetric_kinds(grid):
    v = np.sin(np.pi * grid.space_nodes())
    for fn in (exp_imbalance(), stefan_fd()):
        assert eval_h(fn, v, v, grid) == 0.0


def test_exp_imbalance_linear_profile(fine_grid):
    v1 = fine_grid.space_nodes().copy()
    v2 = np.zeros_like(v1)
    out = eval_h(exp_imbalance(alpha=5.0, lam=100.0), v1, v2, fine_grid)
    assert out == pytest.approx(5.0, abs=1e-3)


def test_stefan_fd_one_sided_difference(grid):
    v1 = 2.0 * grid.space_nodes()
    v2 = np.zeros_like(v1)
    out = eval_h(stefan_fd(), v1, v2, grid)
    assert out == pytest.approx(2.0, rel=1e-12)


def test_truncation_noop_below_cap(grid):
    rng = np.random.default_rng(1)
    v1 = np.abs(rng.standard_normal(grid.n_nodes))
    v2 = np.abs(rng.standard_normal(grid.n_nodes))
    m = float(max(v1.max(), v2.max()))
    plain = eval_h(exp_imbalance(), v1, v2, grid)
    capped = eval_h(exp_imbalance(), cap_profile(v1, grid, m), cap_profile(v2, grid, m), grid)
    assert plain == capped  # bit-equal: v ^ M returns the same array values


def test_truncation_active_changes_value(grid):
    v1 = 10.0 * np.sin(np.pi * grid.space_nodes())
    v2 = np.zeros_like(v1)
    plain = eval_h(exp_imbalance(), v1, v2, grid)
    capped = eval_h(exp_imbalance(), cap_profile(v1, grid, 1.0), cap_profile(v2, grid, 1.0),
                    grid)
    assert capped != plain and abs(capped) < abs(plain)


def test_clamp_bounds_output(grid):
    v1 = 50.0 * grid.space_nodes()
    v2 = np.zeros_like(v1)
    fn = exp_imbalance(alpha=5.0, lam=100.0, clamp=1.0)
    assert abs(eval_h(fn, v1, v2, grid)) <= 1.0
    assert abs(eval_h(fn, v2, v1, grid)) <= 1.0


def test_zero_kind(grid):
    v1 = grid.space_nodes()
    assert eval_h(zero_boundary(), v1, 0 * v1, grid) == 0.0


def test_table_kind_interpolates_and_clamps(grid):
    fn = table_boundary([-1.0, 0.0, 1.0], [-3.0, 0.0, 3.0], lam=100.0)
    v1 = grid.space_nodes().copy()   # imbalance ~ +1 at lam=100
    v2 = np.zeros_like(v1)
    out = eval_h(fn, v1, v2, grid)
    assert 0.0 < out <= 3.0
    big = eval_h(fn, 10 * v1, v2, grid)
    assert big == 3.0  # clamped to the last table point


@pytest.mark.parametrize("speed", [[1.0, 2.0, 3.0], [1.0]])
def test_table_of_unequal_lengths_rejected(speed):
    # neither a longer speed list cut to fit nor a shorter one indexed past its end
    with pytest.raises(ValueError):
        table_boundary([0.0, 1.0], speed)


def test_lipschitz_bound_randomized(grid):
    rng = np.random.default_rng(5)
    fn = exp_imbalance(alpha=5.0, lam=100.0)
    K = 5.0 * 100.0
    for _ in range(20):
        v1, v2, w1, w2 = (rng.standard_normal(grid.n_nodes) for _ in range(4))
        lhs = abs(eval_h(fn, v1, v2, grid) - eval_h(fn, w1, w2, grid))
        rhs = K * (np.max(np.abs(v1 - w1)) + np.max(np.abs(v2 - w2)))
        assert lhs <= rhs + 1e-12


def test_F_Mr_cap_inactive_is_identity():
    g = build_grid("halfline", 64, 1e-4, 128, length=4.0, weight_r=0.5)
    u = np.exp(0.5 * g.space_nodes()) * 0.3
    out = F_Mr(u, g, 1.0, 0.5)
    assert np.array_equal(out, u)


def test_F_Mr_cap_fully_active():
    g = build_grid("halfline", 64, 1e-4, 128, length=4.0, weight_r=0.5)
    r, M = 0.5, 0.7
    u = 2 * M * np.exp(r * g.space_nodes())
    out = F_Mr(u, g, M, r)
    assert np.allclose(out, M * np.exp(r * g.space_nodes()), rtol=1e-15)


def test_F_Mr_idempotent_bitwise():
    g = build_grid("halfline", 128, 1e-4, 256, length=4.0, weight_r=0.5)
    rng = np.random.default_rng(9)
    u = np.abs(rng.standard_normal(g.n_nodes)) * np.exp(0.6 * g.space_nodes())
    once = F_Mr(u, g, 0.4, 0.5)
    twice = F_Mr(once, g, 0.4, 0.5)
    assert np.array_equal(once, twice)
    assert np.any(once != u)


def test_swap_antisymmetry(grid):
    rng = np.random.default_rng(3)
    v1 = np.abs(rng.standard_normal(grid.n_nodes))
    v2 = np.abs(rng.standard_normal(grid.n_nodes))
    fn = exp_imbalance(alpha=5.0, lam=100.0)
    assert eval_h(fn, v1, v2, grid) == pytest.approx(-eval_h(fn, v2, v1, grid), abs=1e-12)


@pytest.mark.parametrize("fn, M", [(zero_boundary(), np.inf),
                                   (exp_imbalance(alpha=5.0, lam=100.0, clamp=3.0), np.inf),
                                   (exp_imbalance(), 0.5), (stefan_fd(clamp=3.0), np.inf),
                                   (table_boundary([-1.0, 0.0, 1.0], [-3.0, 0.0, 3.0]), np.inf)],
                         ids=["zero", "exp_imbalance", "exp_truncated", "stefan_fd", "table"])
@pytest.mark.parametrize("domain", ["compact", "halfline"])
def test_stacked_profiles_match_single_profiles_bitwise(fn, M, domain):
    g = (build_grid("compact", 64, 1e-4, 128) if domain == "compact" else
         build_grid("halfline", 128, 1e-4, 512, length=4.0, weight_r=0.5))
    rng = np.random.default_rng(13)
    v1 = np.abs(rng.standard_normal((7, g.n_nodes)))
    v2 = np.abs(rng.standard_normal((7, g.n_nodes)))
    # the integrators cap the side-stacked pair once; one profile capped alone is the reference
    stacked = eval_h(fn, *cap_profile(np.stack([v1, v2]), g, M), g)
    assert stacked.shape == (7,)
    assert stacked.tolist() == [eval_h(fn, cap_profile(a, g, M), cap_profile(b, g, M), g)
                                for a, b in zip(v1, v2)]
    assert g_lambda(v1 - v2, g, 100.0).tolist() == [g_lambda(a - b, g, 100.0)
                                                    for a, b in zip(v1, v2)]
    if domain == "halfline":
        capped = F_Mr(v1, g, 0.4, 0.5)
        assert capped.tobytes() == np.stack([F_Mr(a, g, 0.4, 0.5) for a in v1]).tobytes()
