import numpy as np
import pytest

from stefansim.errors import BadDimension, CflViolation, DimensionMismatch
from stefansim.grids import COMPACT, HALFLINE, Field, build_grid, profile_norm


def test_compact_grid_spacing():
    g = build_grid(COMPACT, 64, 0.1, 4096)
    assert g.dx == 1.0 / 64
    assert g.dt == pytest.approx(2.44140625e-5)
    assert g.dt < 0.5 * g.dx**2


def test_cfl_violation_rejected():
    with pytest.raises(CflViolation):
        build_grid(COMPACT, 64, 1.0, 64)


def test_halfline_grid_spacing():
    g = build_grid(HALFLINE, 256, 0.05, 8192, length=4.0, weight_r=0.5)
    assert g.dx == pytest.approx(1.0 / 64)
    assert g.dt == pytest.approx(6.103515625e-6)
    assert g.weight_r == 0.5


@pytest.mark.parametrize("nx,nt,T", [(3, 100, 0.001), (64, 0, 0.1), (64, 100, -1.0)])
def test_bad_dimensions(nx, nt, T):
    with pytest.raises(BadDimension):
        build_grid(COMPACT, nx, T, nt)


def test_halfline_needs_length_at_least_one():
    with pytest.raises(BadDimension):
        build_grid(HALFLINE, 64, 1e-4, 64, length=0.5)


def test_compact_grid_refuses_another_length():
    # build_grid hands length on as given, so it is refused as GridSpec refuses it
    with pytest.raises(BadDimension, match="compact domain has fixed length 1"):
        build_grid(COMPACT, 8, 0.02, 64, length=2.0)


def test_node_counts_and_cache():
    g = build_grid(COMPACT, 8, 1e-3, 128)
    x = g.space_nodes()
    assert len(x) == 9 and x[0] == 0.0 and x[-1] == 1.0
    assert g.space_nodes() is x  # memoised


def test_field_shape_checked():
    g = build_grid(COMPACT, 8, 1e-3, 16)
    with pytest.raises(DimensionMismatch):
        Field(g, np.zeros((5, 9)))
    f = Field.from_function(g, lambda t, x: t + x)
    assert f.values.shape == (17, 9)
    assert f.values[3, 2] == pytest.approx(g.time_nodes()[3] + g.space_nodes()[2])


def test_weighted_sup_norm():
    g = build_grid(HALFLINE, 64, 1e-4, 128, length=4.0, weight_r=1.0)
    f = Field.from_function(g, lambda t, x: np.exp(x) * np.ones_like(t + x))
    # one norm per time row, each exp(-x) e^x = 1 up to rounding
    assert profile_norm(f.values, g) == pytest.approx(np.ones(g.nt + 1))


def test_grids_hashable_and_equal():
    a = build_grid(COMPACT, 16, 1e-3, 64)
    b = build_grid(COMPACT, 16, 1e-3, 64)
    assert a == b and hash(a) == hash(b)
