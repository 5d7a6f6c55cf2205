import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from stefansim import kernels
from stefansim.errors import NonPositiveTime
from stefansim.kernels import (DEFAULT_N_IMAGES, adaptive_trapezoid, deriv_y, eval_G,
                               eval_G_r, eval_H, free_kernel, verify_kernel_bounds,
                               weighted_deriv_integral)

INV_SQRT_PI = 1.0 / np.sqrt(np.pi)
BUNDLED_TS = np.geomspace(1e-4, 0.1, 7)          # configs/kernel_check.yaml
BUNDLED_XS = [0.25, 0.5, 1.0, 2.0, 4.0]
KERNELS = {"G": eval_G, "H": eval_H}


def window(kind, t, x):
    """The r = 0 integration window of weighted_deriv_integral."""
    width = 12.0 * math.sqrt(t)
    return max(0.0, x - width), min(1.0, x + width) if kind == "H" else x + width


@pytest.fixture
def integrand_points(monkeypatch):
    """The number of abscissae of each deriv_y call, as the sweeps make them."""
    points = []

    def counted(*args):
        points.append(np.size(args[3]))
        return deriv_y(*args)

    monkeypatch.setattr(kernels, "deriv_y", counted)
    return points


def mass_G(t, x):
    """Closed form of int_0^inf G(t, x, y) dy = erf(x / (2 sqrt(t)))."""
    return math.erf(x / (2.0 * math.sqrt(t)))


def test_H_dirichlet_boundary_zero():
    assert abs(eval_H(0.01, 0.0, 0.5, 10)) <= 1e-12
    assert abs(eval_H(0.01, 1.0, 0.5, 10)) <= 1e-12


def test_H_symmetric_in_x_y():
    for t in (1e-3, 0.05, 0.3):
        assert eval_H(t, 0.3, 0.7) == pytest.approx(eval_H(t, 0.7, 0.3), abs=1e-12)


def test_H_short_time_peak():
    # at t = 1e-4 only the n = 0 free term survives at the diagonal
    expected = 1.0 / np.sqrt(4 * np.pi * 1e-4)
    assert eval_H(1e-4, 0.5, 0.5, 10) == pytest.approx(expected, rel=1e-6)


def test_image_series_converged_at_default_truncation():
    n = DEFAULT_N_IMAGES
    ts = np.array([1e-4, 1e-2, 0.3, 1.0])
    xs = np.linspace(0.05, 0.95, 7)
    h1 = eval_H(ts[:, None, None], xs[None, :, None], xs[None, None, :], n)
    h2 = eval_H(ts[:, None, None], xs[None, :, None], xs[None, None, :], 2 * n)
    assert np.max(np.abs(h1 - h2)) <= 1e-12


def test_H_refuses_times_beyond_its_image_truncation():
    # n images hold for t <= (n / 8)^2; at t = 10 eight images give 2.6e-5
    # where the sine-mode series gives 2 exp(-10 pi^2) = 2.7e-43
    for call in (lambda: eval_H(10.0, 0.5, 0.5), lambda: deriv_y("H", 10.0, 0.5, 0.4),
                 lambda: eval_H(np.array([0.5, 1.5]), 0.5, 0.5),
                 lambda: eval_H(1.5, 0.5, 0.5, n_images=9)):
        with pytest.raises(ValueError, match="image series"):
            call()
    assert eval_H(1.0, 0.5, 0.5) > 0.0 and np.isfinite(deriv_y("H", 1.0, 0.5, 0.4))
    assert deriv_y("G", 10.0, 0.5, 0.4) > 0.0
    sine_mode = 2.0 * math.exp(-10.0 * math.pi ** 2)
    assert eval_H(10.0, 0.5, 0.5, n_images=32) == pytest.approx(sine_mode, abs=1e-12)
    assert np.isfinite(deriv_y("H", 10.0, 0.5, 0.4, n_images=32))


def test_G_boundary_and_closed_form():
    assert eval_G(0.05, 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    expected = (1.0 - np.exp(-20.0)) / np.sqrt(0.2 * np.pi)
    assert eval_G(0.05, 1.0, 1.0) == pytest.approx(expected, rel=1e-12)


def test_G_mass_approaches_one():
    # quadrature oracle against the closed form, far from the boundary
    val = adaptive_trapezoid(lambda y: eval_G(0.01, 2.0, y), 0.0, 4.0)
    assert abs(val - 1.0) <= 1e-8
    assert mass_G(0.01, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_G_mass_bound_and_nonnegativity():
    ts = np.array([1e-3, 0.01, 0.1])
    xs = np.linspace(0.0, 3.0, 13)
    for t in ts:
        for x in xs:
            if x > 0:
                assert eval_G(t, x, x) >= -1e-12
            m = adaptive_trapezoid(lambda y: eval_G(t, x, y), 0.0,
                                   x + 12 * np.sqrt(t) + 1.0, rel_tol=1e-10)
            assert m <= 1.0 + 1e-9
    grid = np.linspace(0.02, 0.98, 25)
    vals = eval_H(0.03, grid[:, None], grid[None, :])
    assert vals.min() >= -1e-12


def test_H_mass_bound():
    for t in (1e-3, 0.02, 0.2):
        for x in (0.1, 0.5, 0.9):
            m = adaptive_trapezoid(lambda y: eval_H(t, x, y), 0.0, 1.0)
            assert m <= 1.0 + 1e-9


def test_G_r_weight_collapses_at_zero():
    t, x, y = 0.03, 0.7, 1.4
    assert eval_G_r(t, x, y, 0.0) == pytest.approx(eval_G(t, x, y), rel=1e-15)
    assert eval_G_r(0.05, 1.0, 2.0, 0.5) == pytest.approx(
        np.exp(0.5) * eval_G(0.05, 1.0, 2.0), rel=1e-13)


def test_weighted_free_kernel_shift_identity():
    # exp(-r(x-y)) F1(t,x,y) = exp(r^2 t) F1(t, x + 2rt, y)
    ts = [1e-3, 0.02, 0.1]
    xs = [0.0, 0.4, 1.3]
    ys = [0.1, 0.9, 2.2]
    rs = [-1.0, -0.3, 0.5, 2.0]
    for t in ts:
        for x in xs:
            for y in ys:
                for r in rs:
                    lhs = np.exp(-r * (x - y)) * free_kernel(t, x, y)
                    rhs = np.exp(r * r * t) * free_kernel(t, x + 2 * r * t, y)
                    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


def test_deriv_y_matches_finite_difference():
    h = 1e-5
    for kind, t, x, y in [("G", 0.05, 0.8, 0.6), ("H", 0.05, 0.8, 0.6),
                          ("H", 0.01, 0.3, 0.4), ("G", 0.02, 1.5, 1.0)]:
        fn = eval_G if kind == "G" else eval_H
        fd = (fn(t, x, y + h) - fn(t, x, y - h)) / (2 * h)
        assert deriv_y(kind, t, x, y) == pytest.approx(fd, abs=1e-6)


def test_deriv_antisymmetry_under_swap():
    # difference quotient in y at mirrored points matches the analytic values
    t, x, y, h = 0.04, 0.35, 0.55, 1e-5
    fd_xy = (eval_H(t, x, y + h) - eval_H(t, x, y - h)) / (2 * h)
    fd_yx = (eval_H(t, y, x + h) - eval_H(t, y, x - h)) / (2 * h)
    assert deriv_y("H", t, x, y) == pytest.approx(fd_xy, abs=1e-7)
    assert deriv_y("H", t, y, x) == pytest.approx(fd_yx, abs=1e-7)


def test_deriv_small_time_diagonal_vanishes():
    assert abs(deriv_y("G", 1e-3, 0.5, 0.5)) <= 1e-12


def test_chapman_kolmogorov():
    # semigroup check by fixed fine trapezoid (both factors vanish at the ends)
    z = np.linspace(0.0, 1.0, 4097)
    w = np.full_like(z, z[1] - z[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    for s in (0.01, 0.04, 0.1):
        for t in (0.02, 0.05):
            for x in (0.2, 0.5, 0.8):
                for y in (0.3, 0.7):
                    conv = np.dot(w, eval_H(s, x, z) * eval_H(t, z, y))
                    assert conv == pytest.approx(eval_H(s + t, x, y), abs=1e-6)


def test_nonpositive_time_raises():
    with pytest.raises(NonPositiveTime):
        eval_H(0.0, 0.5, 0.5)
    with pytest.raises(NonPositiveTime):
        eval_G(-0.1, 0.5, 0.5)
    with pytest.raises(NonPositiveTime):
        deriv_y("G", 0.0, 0.5, 0.5)


def test_bound_sweep_unweighted_matches_gaussian_constant():
    ts = np.geomspace(1e-4, 0.1, 5)
    xs = [0.25, 0.5, 1.0, 2.0, 4.0]
    rep = verify_kernel_bounds(ts, xs, r=0.0, kernel_kind="G")
    assert rep.bounded
    scaled = [np.sqrt(t) * max(weighted_deriv_integral(t, x, 0.0) for x in xs)
              for t in ts]
    assert max(scaled) <= 1.1 * INV_SQRT_PI
    assert min(scaled) >= 0.9 * INV_SQRT_PI
    assert rep.scaled_sup == pytest.approx(INV_SQRT_PI, rel=0.1)


def test_bound_sweep_weighted_stays_bounded():
    ts = np.geomspace(1e-4, 0.1, 5)
    rep = verify_kernel_bounds(ts, [0.25, 0.5, 1.0, 2.0, 4.0], r=1.0, kernel_kind="G")
    assert rep.bounded
    assert rep.scaled_sup <= 10.0 * INV_SQRT_PI


def test_bound_sweep_monotone_in_range():
    xs = [0.5, 1.0, 2.0]
    sub = verify_kernel_bounds([1e-3, 1e-2], xs, r=0.0)
    full = verify_kernel_bounds([1e-3, 1e-2, 0.05, 0.1], xs, r=0.0)
    assert sub.scaled_sup <= full.scaled_sup + 1e-12
    assert sub.sup_value <= full.sup_value + 1e-12


def test_compact_bound_sweep():
    rep = verify_kernel_bounds(np.geomspace(1e-4, 0.1, 5),
                               [0.2, 0.5, 0.8], r=0.0, kernel_kind="H")
    assert rep.bounded
    assert rep.scaled_sup == pytest.approx(INV_SQRT_PI, rel=0.15)


def test_bound_report_json_fields():
    rep = verify_kernel_bounds([1e-3, 1e-2], [0.5, 1.0], r=0.5)
    d = rep.to_json_dict()
    for key in ("estimate_name", "t_values", "sup_value", "scaled_sup"):
        assert key in d


@pytest.mark.parametrize("x", [1e-12, 1.0 - 1e-12])
def test_H_integral_just_inside_a_dirichlet_end_settles_at_once(integrand_points, x):
    # K(t, x, .) is of order x there and the integrand is rounding noise; the
    # refinement stops once it is settled far below the 1/sqrt(t) bound
    value = weighted_deriv_integral(0.1, x, 0.0, "H")
    assert 0.0 <= value <= 1e-10
    assert sum(integrand_points) <= 64 * 2**4 + 1


@pytest.mark.parametrize("x", [0.25, 0.5])
def test_H_integral_resolves_its_peak_at_small_t(x):
    # the integrand is a spike of width sqrt(t) at y = x; away from the ends
    # it integrates to that of the free kernel, 2 / sqrt(4 pi t)
    t = 1e-7
    value = weighted_deriv_integral(t, x, 0.0, "H")
    assert value == pytest.approx(2.0 / math.sqrt(4.0 * math.pi * t), rel=0.02)


@pytest.mark.parametrize("kind, xs", [("G", BUNDLED_XS), ("H", [0.25, 0.5, 0.75])],
                         ids=["G", "H"])
def test_unweighted_integral_is_exact_from_the_peak(kind, xs):
    # K(t, x, .) rises to its peak y* and falls after it, so for r = 0 the
    # integral of |dK/dy| over [a, b] is 2 K(y*) - K(a) - K(b)
    for t in BUNDLED_TS:
        for x in xs:
            a, b = window(kind, t, x)

            def K(y):
                return float(KERNELS[kind](t, x, y))

            # search in y - x, so the tolerance is relative to the peak's shift
            shift = minimize_scalar(lambda s: -K(x + s), bounds=(a - x, b - x),
                                    method="bounded", options={"xatol": 1e-12}).x
            exact = 2.0 * K(x + shift) - K(a) - K(b)
            assert weighted_deriv_integral(t, x, 0.0, kind) == pytest.approx(exact, rel=1e-11)


def test_bundled_sweep_reads_the_gaussian_constant():
    # at x = 4 the mirror term is below rounding, so sqrt(t) * 2 K(y*) = 1/sqrt(pi)
    rep = verify_kernel_bounds(BUNDLED_TS, BUNDLED_XS, r=0.0, kernel_kind="G")
    assert abs(rep.scaled_sup - INV_SQRT_PI) <= 1e-12


def _changes_sign_once_from_plus_to_minus(kind, t, x):
    a, b = window(kind, t, x)
    rising = deriv_y(kind, t, x, np.linspace(a, b, 4097)) > 0.0
    return rising[0] and np.count_nonzero(rising[1:] != rising[:-1]) == 1


# Within about 1e-10 of a Dirichlet end K(t, x, .) is a difference of nearly
# equal exponentials and dK/dy is rounding noise (where the floor of
# weighted_deriv_integral settles the integral); the property is stated off it.
@given(t=st.floats(1e-7, 1.0), x=st.floats(1e-9, 4.0))
def test_G_has_one_peak_in_its_window(t, x):
    # the split of weighted_deriv_integral rests on this (log-concavity)
    assert _changes_sign_once_from_plus_to_minus("G", t, x)


@given(t=st.floats(1e-7, 1.0), x=st.floats(1e-9, 1.0 - 1e-9))
def test_H_has_one_peak_in_its_window(t, x):
    assert _changes_sign_once_from_plus_to_minus("H", t, x)


def test_bundled_sweep_takes_few_integrand_points(integrand_points):
    # a single trapezoid rule across the kink needs 13,221,923 points here
    verify_kernel_bounds(BUNDLED_TS, BUNDLED_XS, r=0.0, kernel_kind="G")
    assert sum(integrand_points) <= 100_000
