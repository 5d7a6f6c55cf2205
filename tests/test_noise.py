from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from stefansim.boundary import exp_imbalance, zero_boundary
from stefansim.errors import ConfigError, DimensionMismatch
from stefansim.grids import Field, build_grid
from stefansim.noise import NoiseField, NoiseStream, sample_white_noise
from stefansim.picard import build_kernel_tables, mild_solve_w, picard_iterate
from stefansim.spde import constant_coefficients, run_paths, run_relative_frame


@pytest.fixture(scope="module")
def grid():
    return build_grid("compact", 64, 0.1, 4096)


def test_determinism_bit_identical(grid):
    a = sample_white_noise(grid, 42)
    b = sample_white_noise(grid, 42)
    assert np.array_equal(a.xi, b.xi)
    assert a.xi.tobytes() == b.xi.tobytes()


def test_seeds_and_streams_differ(grid):
    a = sample_white_noise(grid, 42, stream=0)
    b = sample_white_noise(grid, 43, stream=0)
    c = sample_white_noise(grid, 42, stream=1)
    assert not np.array_equal(a.xi, b.xi)
    assert not np.array_equal(a.xi, c.xi)


def test_cell_variance_within_5_percent(grid):
    nf = sample_white_noise(grid, 7)
    assert nf.xi.size >= 2.6e5
    target = 1.0 / (grid.dx * grid.dt)
    assert nf.xi.var() == pytest.approx(target, rel=0.05)


def test_mean_within_clt_bound(grid):
    nf = sample_white_noise(grid, 7)
    n = nf.xi.size
    bound = 4.0 * np.sqrt(1.0 / (grid.dx * grid.dt * n))
    assert abs(nf.xi.mean()) <= bound


def test_variance_scaling_with_nt(grid):
    finer = build_grid("compact", 64, 0.1, 8192)
    v1 = sample_white_noise(grid, 3).xi.var()
    v2 = sample_white_noise(finer, 3).xi.var()
    assert v2 / v1 == pytest.approx(2.0, rel=0.05)


def test_lag_one_autocorrelation_small(grid):
    xi = sample_white_noise(grid, 11).xi
    assert xi.size >= 2.5e5
    for axis in (0, 1):
        a = xi if axis == 0 else xi.T
        x, y = a[:-1].ravel(), a[1:].ravel()
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) <= 0.01


def test_seeds_outside_the_philox_key_range_are_refused():
    g = build_grid("compact", 8, 0.01, 16)
    for seed in (-1, 2**64, np.int64(-1), 2.5, 3.0):
        with pytest.raises(ConfigError, match="seed .* must be a whole number in"):
            NoiseStream(g, seed)
    for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
        assert np.isfinite(sample_white_noise(g, seed).xi).all()
    z = np.zeros(g.n_nodes)
    # a run reads its seeds as integers: 2.5 is refused, never run as seed 2
    with pytest.raises(TypeError):
        run_relative_frame((z, z, 0.0), constant_coefficients(), zero_boundary(),
                           np.inf, np.inf, g, noise=2.5)


def test_blocks_concatenate_to_the_full_draw():
    g = build_grid("compact", 16, 0.01, 700)
    key = np.array([42, 1], dtype=np.uint64)
    full = (np.random.Generator(np.random.Philox(key=key)).standard_normal((g.nt, g.n_nodes))
            * (1.0 / np.sqrt(g.dx * g.dt)))
    reader = NoiseStream(g, 42, stream=1)
    blocks = [reader.draw(n, np.empty((n, g.n_nodes))) for n in (256, 256, 1, 187)]
    assert np.concatenate(blocks).tobytes() == full.tobytes()
    assert sample_white_noise(g, 42, 1).xi.tobytes() == full.tobytes()
    # a field is read as it is, whatever made it: nothing is drawn
    from_field = NoiseStream.from_field(NoiseField(g, full.copy()))
    blocks = [from_field.draw(n, np.empty((n, g.n_nodes))) for n in (300, 400)]
    assert np.concatenate(blocks).tobytes() == full.tobytes()


def _run_paths(v0, pair, grid):
    run_paths((v0, v0, 0.0), constant_coefficients(), exp_imbalance(clamp=1.0), np.inf,
              np.inf, grid, [pair])


def _picard_iterate(v0, pair, grid):
    picard_iterate(v0, v0, constant_coefficients(), exp_imbalance(clamp=1.0), np.inf, pair,
                   grid, n_iters=2)


def _mild_solve_w(v0, pair, grid):
    mild_solve_w(Field(grid, np.tile(v0, (2, grid.nt + 1, 1))), constant_coefficients(),
                 exp_imbalance(clamp=1.0), np.inf, pair, build_kernel_tables(grid))


@pytest.mark.parametrize("entry", [_run_paths, _picard_iterate, _mild_solve_w],
                         ids=["run_paths", "picard_iterate", "mild_solve_w"])
@pytest.mark.parametrize("rows, cols", [(-5, 0), (1, 0), (0, -1)],
                         ids=["short", "long", "narrow"])
def test_a_noise_field_of_another_shape_is_refused_before_any_step(entry, rows, cols):
    # the field is refused where it is built, so no entry point steps with it;
    # the same call with a field of the right shape runs
    g = build_grid("compact", 8, 0.02, 300)
    v0 = 0.3 * np.sin(np.pi * g.space_nodes())
    v0[[0, -1]] = 0.0
    good = sample_white_noise(g, 3, 1)
    with pytest.raises(DimensionMismatch, match=r"\(nt, n_nodes\) = \(300, 9\)"):
        entry(v0, (NoiseField(g, np.zeros((g.nt + rows, g.n_nodes + cols))), good), g)
    entry(v0, (sample_white_noise(g, 3, 0), good), g)
    # nor can a checked field take another array later
    with pytest.raises(FrozenInstanceError):
        good.xi = good.xi[:-5]
