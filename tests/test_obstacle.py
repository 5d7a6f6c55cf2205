import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import random_smooth_obstacle, sine_ramp_obstacle
from stefansim.errors import ObstacleInitialPositive
from stefansim.grids import Field, build_grid
from stefansim.obstacle import dump_csv, solve_penalized, solve_projected, stability_gap


@pytest.fixture(scope="module")
def grid():
    return build_grid("compact", 64, 0.05, 4096)


@pytest.fixture(scope="module")
def sine(grid):
    return sine_ramp_obstacle(grid)


def test_inactive_obstacle_gives_zero(grid):
    v = Field.from_function(grid, lambda t, x: -1.0 + 0.0 * (t + x))
    for sol in (solve_projected(v), solve_penalized(v, 1e-3)):
        assert np.max(np.abs(sol.z.values)) <= 1e-12
        assert np.max(np.abs(sol.eta)) <= 1e-12


def test_initial_positive_rejected(grid):
    v = Field.from_function(grid, lambda t, x: 0.1 + 0.0 * (t + x))
    with pytest.raises(ObstacleInitialPositive):
        solve_projected(v)
    with pytest.raises(ObstacleInitialPositive):
        solve_penalized(v, 1e-3)


def test_projected_constraint_and_complementarity(grid, sine):
    sol = solve_projected(sine)
    assert np.min(sol.z.values - sine.values) >= -1e-12
    assert np.all(sol.eta >= 0.0)
    assert sol.total_mass() > 0.0
    # eta only sits where the projection pinned z to the obstacle
    assert sol.complementarity_defect(sine) == 0.0


def test_projected_lower_bound_with_zero_obstacle(grid):
    v = Field(grid, np.zeros((grid.nt + 1, grid.n_nodes)))
    sol = solve_projected(v)
    assert np.min(sol.z.values) >= 0.0


def test_penalized_monotone_in_epsilon(grid, sine):
    prev = None
    for eps in (1e-3, 1e-4, 1e-5):
        z = solve_penalized(sine, eps).z.values
        if prev is not None:
            assert np.min(z - prev) >= -1e-9
        prev = z


def test_penalized_approaches_obstacle(grid, sine):
    # contact deficit scales like sqrt(eps * residual); residual <= 6 here
    z = solve_penalized(sine, 1e-6).z.values
    assert np.min(z - sine.values) >= -3e-3


def test_penalized_vs_projected_cross_validation(grid, sine):
    zp = solve_projected(sine).z.values
    ze = solve_penalized(sine, 1e-7).z.values
    assert np.max(np.abs(ze - zp)) <= 2e-3


def test_eta_vanishes_off_contact(grid):
    # obstacle drops away mid-run, leaving the heat remnant strictly above it
    half = grid.T / 2

    def obstacle(t, x):
        lifted = 5.0 * np.sin(np.pi * x) * np.minimum(t, 0.02)
        return np.where(t < half, lifted, -1.0)

    v = Field.from_function(grid, obstacle)
    for sol in (solve_projected(v), solve_penalized(v, 1e-5)):
        gap = sol.z.values - v.values
        off = gap > grid.dx
        assert off.any()
        assert np.max(np.abs(sol.eta[off])) == 0.0


def test_stability_identical_inputs(grid, sine):
    gz, gv = stability_gap(sine, sine)
    assert gz == 0.0 and gv == 0.0


def test_stability_constant_shift(grid):
    v1 = Field.from_function(
        grid, lambda t, x: -0.2 + 2.0 * np.sin(np.pi * x) * np.minimum(t, 0.02))
    v2 = Field(grid, v1.values + 0.1)
    gz, gv = stability_gap(v1, v2)
    assert gv == pytest.approx(0.1, rel=1e-12)
    assert gz <= gv * (1 + 1e-6)


def test_stability_random_pairs_small():
    g = build_grid("compact", 32, 0.05, 1024)
    worst = 0.0
    for k in range(5):
        v1 = random_smooth_obstacle(g, seed=100 + k)
        v2 = random_smooth_obstacle(g, seed=200 + k)
        gz, gv = stability_gap(v1, v2)
        if gv > 0:
            worst = max(worst, gz / gv)
    assert worst <= 1.05


def test_weighted_stability_halfline():
    g = build_grid("halfline", 128, 0.05, 2048, length=4.0, weight_r=0.5)
    ratios = []
    for k in range(10):
        v1 = random_smooth_obstacle(g, seed=300 + k)
        v2 = random_smooth_obstacle(g, seed=400 + k)
        gz, gv = stability_gap(v1, v2)
        # a half-line grid measures in its weighted norm
        assert gv == np.max(np.exp(-0.5 * g.space_nodes()) * np.abs(v1.values - v2.values))
        if gv > 0:
            ratios.append(gz / gv)
    # discrete contraction constant tracks exp(r^2 T) ~ 1.013; pinned with slack
    assert max(ratios) <= 1.05


def test_penalized_complementarity_decreases_with_epsilon(grid, sine):
    defects = []
    for eps in (1e-3, 1e-4, 1e-5):
        sol = solve_penalized(sine, eps)
        defects.append(abs(sol.complementarity_defect(sine)) / sol.total_mass())
    assert defects[0] > defects[1] > defects[2]


def test_csv_dump(tmp_path, grid):
    g = build_grid("compact", 8, 1e-3, 64)
    v = Field.from_function(g, lambda t, x: -1.0 + 0.0 * (t + x))
    sol = solve_projected(v)
    path = tmp_path / "obstacle.csv"
    dump_csv(sol, v, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,z,v,eta_cell"
    assert len(lines) == 1 + (g.nt + 1) * (g.nx + 1)


@given(kind=st.sampled_from(["compact", "halfline"]), nx=st.integers(4, 16),
       length=st.floats(1.0, 3.0), T=st.floats(0.005, 0.05),
       steps_per_bound=st.integers(1, 3), n_obstacles=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_projected_solve_is_exact_row_by_row(kind, nx, length, T, steps_per_bound,
                                                     n_obstacles, seed):
    # random rough obstacles with v(0, .) <= 0; a random upward trend makes
    # some of them bite, also at the Dirichlet nodes, which stay pinned at 0
    if kind == "compact":
        length = 1.0      # the compact domain has length 1; build_grid refuses any other
    dx = length / nx
    nt = steps_per_bound * math.ceil(2.0 * T / dx**2)
    grid = build_grid(kind, nx, T, nt, length=length)
    rng = np.random.default_rng(seed)
    t = grid.time_nodes()[:, None]
    v = (0.3 * rng.normal(size=(n_obstacles, nt + 1, nx + 1))
         + rng.uniform(-0.5, 20.0, size=(n_obstacles, 1, 1)) * t)
    v[:, 0] = -np.abs(v[:, 0])
    sol = solve_projected(Field(grid, v))
    z, eta = sol.z.values, sol.eta

    for k in range(n_obstacles):
        one = solve_projected(Field(grid, v[k]))
        assert z[k].tobytes() == one.z.values.tobytes()
        assert eta[k].tobytes() == one.eta.tobytes()
    assert np.all(z[..., 1:-1] >= v[..., 1:-1])
    assert np.all(eta >= 0.0)
    assert np.all(eta[z > v] == 0.0)
    assert np.sum((z - v) * eta) == 0.0
    assert not np.any(z[..., ::nx]) and not np.any(eta[..., ::nx])
