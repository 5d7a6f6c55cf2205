"""Boundary-speed functionals h(v1, v2) and their truncations.

The exponential-imbalance functional alpha * g_lam(v1 - v2) with

    g_lam(k) = int_0^1 lam^2 exp(-lam x) k(x) dx

concentrates on mass near the shared boundary and tends to k'(0) as
lam -> infinity, so it approximates the classical interface condition
driven by the one-sided derivatives.  Truncation caps the profile inputs
(v ^ M on the compact domain, the weighted cap F_{M,r} on the half-line)
so the coupled system stays globally Lipschitz; an optional clamp bounds
the output, which is the global-existence regime.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GridMismatch
from .grids import COMPACT, GridSpec

EXP_IMBALANCE = "exp_imbalance"
STEFAN_FD = "stefan_fd"
ZERO = "zero"
TABLE = "table"


@dataclass(frozen=True)
class BoundaryFunctional:
    """Configured boundary-speed rule mapping a profile pair to a scalar."""

    kind: str = EXP_IMBALANCE
    alpha: float = 5.0
    lam: float = 100.0
    clamp: float | None = None
    truncation_M: float | None = None
    weight_r: float | None = None   # overrides the grid weight for F_{M,r}
    table_imbalance: tuple = ()
    table_speed: tuple = ()

    def __post_init__(self):
        if self.kind not in (EXP_IMBALANCE, STEFAN_FD, ZERO, TABLE):
            raise ValueError(f"unknown boundary functional kind {self.kind!r}")
        if self.kind == TABLE and len(self.table_imbalance) != len(self.table_speed):
            raise ValueError("table_imbalance and table_speed lengths differ")
        if self.clamp is not None and self.clamp < 0:
            raise ValueError("clamp must be nonnegative")


def exp_imbalance(alpha: float = 5.0, lam: float = 100.0,
                  clamp: float | None = None,
                  truncation_M: float | None = None) -> BoundaryFunctional:
    return BoundaryFunctional(kind=EXP_IMBALANCE, alpha=alpha, lam=lam,
                              clamp=clamp, truncation_M=truncation_M)


def stefan_fd(clamp: float | None = None,
              truncation_M: float | None = None) -> BoundaryFunctional:
    return BoundaryFunctional(kind=STEFAN_FD, clamp=clamp, truncation_M=truncation_M)


def zero_boundary() -> BoundaryFunctional:
    return BoundaryFunctional(kind=ZERO)


def table_boundary(imbalance, speed, lam: float = 100.0,
                   clamp: float | None = None,
                   truncation_M: float | None = None) -> BoundaryFunctional:
    """Piecewise-linear (imbalance -> speed) rule, clamped to its endpoints.

    The imbalance statistic fed to the table is g_lam(v1 - v2).
    """
    order = np.argsort(np.asarray(imbalance, dtype=float))
    imb = tuple(float(v) for v in np.asarray(imbalance, dtype=float)[order])
    spd = tuple(float(v) for v in np.asarray(speed, dtype=float)[order])
    return BoundaryFunctional(kind=TABLE, lam=lam, clamp=clamp,
                              truncation_M=truncation_M,
                              table_imbalance=imb, table_speed=spd)


@lru_cache(maxsize=32)
def _g_lambda_weights(grid: GridSpec, lam: float) -> np.ndarray:
    x = grid.space_nodes()
    w = np.full(grid.n_nodes, grid.dx)
    w[0] = w[-1] = 0.5 * grid.dx
    w *= lam * lam * np.exp(-lam * x)
    if grid.domain_kind != COMPACT:
        w[x > 1.0] = 0.0
    return w


def g_lambda(k: np.ndarray, grid: GridSpec, lam: float):
    """Trapezoid quadrature of lam^2 exp(-lam x) k(x) over [0, 1].

    On half-line grids only nodes with x <= 1 contribute (the weight makes
    the remainder negligible for the lam values of interest).  A stack of
    profiles (P, n_nodes) gives one value per row.  Each row is reduced by
    its own ``np.dot``: a matrix product sums in another order, and a
    row's value must not depend on the batch it is part of.
    """
    k = grid.check_profile(k)
    w = _g_lambda_weights(grid, float(lam))
    if k.ndim == 1:
        return float(np.dot(w, k))
    rows = np.ascontiguousarray(k).reshape(-1, grid.n_nodes)
    return np.array([np.dot(w, row) for row in rows]).reshape(k.shape[:-1])


def F_Mr(u: np.ndarray, grid: GridSpec, M: float, r: float) -> np.ndarray:
    """Weighted cap e^{rx} min(e^{-rx} u(x), M); idempotent bit-for-bit.

    ``u`` may be one profile or a stack of them (last axis is space).
    """
    u = grid.check_profile(u)
    x = grid.space_nodes()
    scaled = np.exp(-r * x) * u
    return np.where(scaled <= M, u, np.exp(r * x) * M)


def _truncate(fn: BoundaryFunctional, v: np.ndarray, grid: GridSpec) -> np.ndarray:
    if fn.truncation_M is None:
        return v
    if grid.domain_kind == COMPACT:
        return np.minimum(v, fn.truncation_M)
    r = grid.weight_r if fn.weight_r is None else fn.weight_r
    return F_Mr(v, grid, fn.truncation_M, r)


def eval_h(fn: BoundaryFunctional, v1: np.ndarray, v2: np.ndarray,
           grid: GridSpec):
    """Evaluate the boundary speed for a profile pair on a common grid.

    Stacks of pairs (P, n_nodes) give one speed per row as an array.
    """
    v1 = grid.check_profile(v1)
    v2 = grid.check_profile(v2)
    if v1.shape != v2.shape:
        raise GridMismatch("profile pair has mismatched shapes")
    if fn.kind == ZERO:
        out = np.zeros(v1.shape[:-1])
    else:
        v1 = _truncate(fn, v1, grid)
        v2 = _truncate(fn, v2, grid)
        if fn.kind == EXP_IMBALANCE:
            out = fn.alpha * g_lambda(v1 - v2, grid, fn.lam)
        elif fn.kind == STEFAN_FD:
            out = (v1[..., 1] - v2[..., 1]) / grid.dx
        elif fn.kind == TABLE:
            m = g_lambda(v1 - v2, grid, fn.lam)
            out = np.interp(m, fn.table_imbalance, fn.table_speed)
        else:  # pragma: no cover - guarded in __post_init__
            raise ValueError(fn.kind)
        if fn.clamp is not None:
            out = np.minimum(np.maximum(out, -fn.clamp), fn.clamp)
    return float(out) if v1.ndim == 1 else out


def advance_p(p, p_prime, dt: float):
    """Explicit Euler step for the boundary position (scalars or one per path)."""
    return p + dt * p_prime
