"""Boundary-speed functionals h(v1, v2) and their truncations.

The exponential-imbalance functional alpha * g_lam(v1 - v2) with

    g_lam(k) = int_0^1 lam^2 exp(-lam x) k(x) dx

concentrates on mass near the shared boundary and tends to k'(0) as
lam -> infinity, so it approximates the classical interface condition
driven by the one-sided derivatives.  ``eval_h`` reads the profiles it
is given; the integrators cap them first at the run's M (``cap_profile``:
v ^ M on the compact domain, the weighted cap F_{M,r} on the half-line)
so the coupled system stays globally Lipschitz; an optional clamp bounds
the output, which is the global-existence regime.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch
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
                  clamp: float | None = None) -> BoundaryFunctional:
    return BoundaryFunctional(kind=EXP_IMBALANCE, alpha=alpha, lam=lam, clamp=clamp)


def stefan_fd(clamp: float | None = None) -> BoundaryFunctional:
    return BoundaryFunctional(kind=STEFAN_FD, clamp=clamp)


def zero_boundary() -> BoundaryFunctional:
    return BoundaryFunctional(kind=ZERO)


def table_boundary(imbalance, speed, lam: float = 100.0,
                   clamp: float | None = None) -> BoundaryFunctional:
    """Piecewise-linear (imbalance -> speed) rule, clamped to its endpoints.

    The imbalance statistic fed to the table is g_lam(v1 - v2).
    """
    # two lists of one length (or a ValueError), then sorted together by imbalance
    table = np.array([imbalance, speed], dtype=float)
    imb, spd = table[:, np.argsort(table[0])].tolist()
    return BoundaryFunctional(kind=TABLE, lam=lam, clamp=clamp,
                              table_imbalance=tuple(imb), table_speed=tuple(spd))


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
    its own dot product: a matrix product sums in another order, and a
    row's value must not depend on the batch it is part of.
    """
    k = grid.check_profile(k)
    w = _g_lambda_weights(grid, float(lam))
    if k.ndim == 1:
        return float(w.dot(k))
    rows = np.ascontiguousarray(k).reshape(-1, grid.n_nodes)
    return np.fromiter(map(w.dot, rows), float, len(rows)).reshape(k.shape[:-1])


def F_Mr(u: np.ndarray, grid: GridSpec, M: float, r: float) -> np.ndarray:
    """Weighted cap e^{rx} min(e^{-rx} u(x), M); idempotent bit-for-bit.

    ``u`` may be one profile or a stack of them (last axis is space).
    """
    u = grid.check_profile(u)
    decay, growth = grid.exp_weights(r)
    return np.where(decay * u <= M, u, growth * M)


def cap_profile(v: np.ndarray, grid: GridSpec, M: float) -> np.ndarray:
    """v ^ M on the compact domain, F_{M,r} on the half-line; no cap when M is inf."""
    if not np.isfinite(M):
        return v
    if grid.domain_kind == COMPACT:
        return np.minimum(v, M)
    return F_Mr(v, grid, M, grid.weight_r)


def eval_h(fn: BoundaryFunctional, v1: np.ndarray, v2: np.ndarray,
           grid: GridSpec):
    """Evaluate the boundary speed for a profile pair on a common grid.

    The profiles are float arrays, read as given, uncapped; only their
    shapes are checked.  Stacks of pairs (P, n_nodes) give one speed per
    row as an array.
    """
    if v1.shape != v2.shape or v1.shape[-1:] != (grid.n_nodes,):
        raise DimensionMismatch(f"profile pair of shapes {v1.shape} and {v2.shape} "
                                f"does not match the grid's {grid.n_nodes} nodes")
    if fn.kind == ZERO:
        out = np.zeros(v1.shape[:-1])
    else:
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

