"""Dirichlet heat kernels on [0, 1] and [0, inf), derivatives and bound checks.

The compact kernel is the method-of-images series

    H(t, x, y) = (4 pi t)^(-1/2) * sum_n [exp(-(x-y+2n)^2/4t) - exp(-(x+y+2n)^2/4t)],

truncated at |n| <= n_images; the half-line kernel G keeps only the n = 0
pair, and G_r(t, x, y) = exp(-r(x-y)) G(t, x, y) is its exponentially
weighted variant.  ``verify_kernel_bounds`` checks numerically that the
weighted derivative integral sup_x int exp(-r(x-y)) |dK/dy| dy stays of
order 1/sqrt(t).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveTime, QuadratureFailure

#: image-series truncation adequate for t <= 1 at tolerance 1e-12; n images
#: cover t <= (n / 8)^2, where the first image left out is as far off
DEFAULT_N_IMAGES = 8


def _check_time(t):
    if np.any(np.asarray(t) <= 0.0):
        raise NonPositiveTime("heat kernel requires t > 0")


def _check_images(t, n_images: int):
    t_max = (n_images / DEFAULT_N_IMAGES) ** 2
    if np.any(np.asarray(t) > t_max):
        raise ValueError(f"the image series truncated at {n_images} images holds for "
                         f"t <= {t_max:g}; more images are needed")


def free_kernel(t, x, y):
    """Whole-line Gaussian heat kernel (the n = 0 image term)."""
    _check_time(t)
    t, x, y = np.broadcast_arrays(*map(np.asarray, (t, x, y)))
    return np.exp(-((x - y) ** 2) / (4.0 * t)) / np.sqrt(4.0 * np.pi * t)


def mirror_kernel(t, x, y):
    """Gaussian centred at the reflection -y (the subtracted image)."""
    _check_time(t)
    t, x, y = np.broadcast_arrays(*map(np.asarray, (t, x, y)))
    return np.exp(-((x + y) ** 2) / (4.0 * t)) / np.sqrt(4.0 * np.pi * t)


def eval_G(t, x, y):
    """Dirichlet heat kernel on the half-line."""
    return free_kernel(t, x, y) - mirror_kernel(t, x, y)


def eval_G_r(t, x, y, r: float):
    """Exponentially weighted half-line kernel exp(-r(x-y)) G(t,x,y)."""
    t, x, y = np.broadcast_arrays(*map(np.asarray, (t, x, y)))
    return np.exp(-r * (x - y)) * eval_G(t, x, y)


def eval_H(t, x, y, n_images: int = DEFAULT_N_IMAGES):
    """Dirichlet heat kernel on [0, 1] via a truncated image series."""
    _check_time(t)
    _check_images(t, n_images)
    t, x, y = np.broadcast_arrays(*map(np.asarray, (t, x, y)))
    acc = np.zeros(np.broadcast(t, x, y).shape)
    inv4t = 1.0 / (4.0 * t)
    for n in range(-n_images, n_images + 1):
        acc = acc + np.exp(-((x - y + 2.0 * n) ** 2) * inv4t)
        acc = acc - np.exp(-((x + y + 2.0 * n) ** 2) * inv4t)
    return acc / np.sqrt(4.0 * np.pi * t)


def deriv_y(kernel_kind: str, t, x, y, n_images: int = DEFAULT_N_IMAGES):
    """Spatial derivative dK/dy of H or G, term-by-term analytic."""
    _check_time(t)
    if kernel_kind not in ("H", "G"):
        raise ValueError(f"kernel_kind must be 'H' or 'G', got {kernel_kind!r}")
    if kernel_kind == "H":
        _check_images(t, n_images)
    t, x, y = np.broadcast_arrays(*map(np.asarray, (t, x, y)))
    shifts = range(-n_images, n_images + 1) if kernel_kind == "H" else (0,)
    acc = np.zeros(np.broadcast(t, x, y).shape)
    inv4t = 1.0 / (4.0 * t)
    inv2t = 1.0 / (2.0 * t)
    for n in shifts:
        u = x - y + 2.0 * n
        v = x + y + 2.0 * n
        acc = acc + u * inv2t * np.exp(-(u * u) * inv4t)
        acc = acc + v * inv2t * np.exp(-(v * v) * inv4t)
    return acc / np.sqrt(4.0 * np.pi * t)


def adaptive_trapezoid(fn, a: float, b: float, rel_tol: float = 1e-9,
                       n0: int = 64, max_doublings: int = 18, floor: float = 1e-300) -> float:
    """Romberg integration: trapezoid sums on halved steps, Richardson-extrapolated.

    fn must accept a vector of abscissae and be smooth on [a, b]; each
    halving evaluates it at the new midpoints only.  Successive diagonal
    extrapolations agree when they differ by at most
    rel_tol * max(|estimate|, floor).  Raises QuadratureFailure if the
    refinement budget is exhausted first.
    """
    if b <= a:
        return 0.0
    h = (b - a) / n0
    fx = fn(np.linspace(a, b, n0 + 1))
    row = [h * (0.5 * fx[0] + fx[1:-1].sum() + 0.5 * fx[-1])]
    n = n0
    for _ in range(max_doublings):
        mid_sum = fn(a + h * (np.arange(n) + 0.5)).sum()
        new_row = [0.5 * row[0] + 0.5 * h * mid_sum]
        for j, prev in enumerate(row, start=1):
            new_row.append(new_row[-1] + (new_row[-1] - prev) / (4.0 ** j - 1.0))
        n *= 2
        h *= 0.5
        if abs(new_row[-1] - row[-1]) <= rel_tol * max(abs(new_row[-1]), floor):
            return float(new_row[-1])
        row = new_row
    raise QuadratureFailure(
        f"trapezoid refinement did not converge to rel_tol={rel_tol} "
        f"within {max_doublings} doublings"
    )


def _peak(kernel_kind: str, t: float, x: float, a: float, b: float) -> float:
    """Where dK/dy (t, x, .) changes sign from + to - in [a, b].

    The Dirichlet heat kernel of an interval is log-concave in y, so it has
    one peak; bracket it on 65 points per pass until the cell is ~1e-15 b.
    """
    while b - a > 1e-15 * b:
        ys = np.linspace(a, b, 65)
        falling = np.flatnonzero(deriv_y(kernel_kind, t, x, ys) <= 0.0)
        if falling.size == 0:
            return b
        if falling[0] == 0:
            return a
        a, b = ys[falling[0] - 1], ys[falling[0]]
    return a


def weighted_deriv_integral(t: float, x: float, r: float, kernel_kind: str = "G") -> float:
    """int exp(-r(x-y)) |dK/dy|(t, x, y) dy over the kernel's domain.

    |dK/dy| has a kink at the kernel's peak; each side of it is smooth and
    integrated by Romberg extrapolation.
    """
    _check_time(t)
    if x == 0.0 or (kernel_kind == "H" and x == 1.0):
        return 0.0    # a Dirichlet end, where K(t, x, .) vanishes identically
    # Gaussian tails: beyond this window the integrand is negligible (for H,
    # every image term is at least as far off).  The window scales with
    # sqrt(t), so the first trapezoid grid already samples the peak and the
    # floor below cannot end a refinement that has not seen it.
    width = 12.0 * math.sqrt(t) + 12.0 * t * abs(r)
    a, b = max(0.0, x - width), x + width
    if kernel_kind == "H":
        b = min(1.0, b)
    peak = _peak(kernel_kind, t, x, a, b)

    def integrand(ys):
        return np.exp(-r * (x - ys)) * np.abs(deriv_y(kernel_kind, t, x, ys))

    # a thousandth of the 1/sqrt(t) bound settles it where the integrand is rounding noise
    floor = 1e-3 / math.sqrt(t)
    return (adaptive_trapezoid(integrand, a, peak, floor=floor)
            + adaptive_trapezoid(integrand, peak, b, floor=floor))


@dataclass
class BoundReport:
    """Result of a kernel-estimate sweep over a time range."""

    estimate_name: str
    t_values: list
    sup_value: float      # max over t of sup_x of the integral
    scaled_sup: float     # max over t of sqrt(t) * sup_x of the integral
    bounded: bool

    def to_json_dict(self) -> dict:
        return {
            "estimate_name": self.estimate_name,
            "t_values": list(map(float, self.t_values)),
            "sup_value": float(self.sup_value),
            "scaled_sup": float(self.scaled_sup),
            "bounded": bool(self.bounded),
        }


def verify_kernel_bounds(t_values, x_values, r: float = 0.0,
                         kernel_kind: str = "G") -> BoundReport:
    """Sweep sup_x int exp(-r(x-y))|dK/dy| dy over t and report sqrt(t)-scaling.

    The estimate is declared bounded when sqrt(t) * value stays within a
    factor 10 of its smallest sampled value across the whole t range.
    """
    t_values = [float(t) for t in t_values]
    if min(t_values) <= 0.0:
        raise NonPositiveTime("bound sweep requires t_min > 0")
    sup_per_t = []
    for t in t_values:
        vals = [weighted_deriv_integral(t, float(x), r, kernel_kind)
                for x in x_values]
        sup_per_t.append(max(vals))
    scaled = [math.sqrt(t) * v for t, v in zip(t_values, sup_per_t)]
    finite = all(math.isfinite(v) for v in scaled)
    bounded = finite and max(scaled) <= 10.0 * max(min(scaled), 1e-300)
    name = f"{kernel_kind}_deriv_weighted_r={r:g}"
    return BoundReport(estimate_name=name, t_values=t_values,
                       sup_value=max(sup_per_t), scaled_sup=max(scaled),
                       bounded=bounded)
