import numpy as np
import pytest

from stefansim.grids import build_grid
from stefansim.noise import NoiseStream, sample_white_noise


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


def test_negative_seed_accepted(grid):
    nf = sample_white_noise(grid, -5)
    assert np.isfinite(nf.xi).all()


def test_blocks_concatenate_to_the_full_draw():
    g = build_grid("compact", 16, 0.01, 700)
    key = np.array([42, 1], dtype=np.uint64)
    full = (np.random.Generator(np.random.Philox(key=key)).standard_normal((g.nt, g.n_nodes))
            * (1.0 / np.sqrt(g.dx * g.dt)))
    reader = NoiseStream(g, 42, stream=1)
    blocks = [reader.draw(n) for n in (256, 256, 1, 187)]
    assert np.concatenate(blocks).tobytes() == full.tobytes()
    assert sample_white_noise(g, 42, 1).xi.tobytes() == full.tobytes()
    from_field = NoiseStream.from_field(sample_white_noise(g, 42, 1))
    assert np.concatenate([from_field.draw(300), from_field.draw(400)]).tobytes() == full.tobytes()
