"""Space-time grids and sampled fields.

Two spatial domains are supported: the unit interval with Dirichlet
conditions at both ends, and a truncated half-line [0, L] carrying an
exponential weight r (an artificial Dirichlet condition is imposed at L).
All explicit schemes in the package require dt <= 0.5 * dx^2, which is
enforced at construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadDimension, CflViolation, DimensionMismatch

COMPACT = "compact"
HALFLINE = "halfline"

#: explicit heat scheme stability bound dt <= STABILITY_FACTOR * dx^2
STABILITY_FACTOR = 0.5

MIN_NX = 4
MIN_NT = 1


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time grid over [0, T] x [0, length].

    nx counts spatial cells (nx + 1 nodes including both boundaries),
    nt counts time steps.  For the half-line domain, ``length`` is the
    truncation point L >= 1 and ``weight_r`` the exponential weight of
    the ambient function space; for the compact domain length is 1.
    """

    domain_kind: str
    nx: int
    nt: int
    T: float
    length: float = 1.0
    weight_r: float = 0.0

    def __post_init__(self):
        if self.domain_kind not in (COMPACT, HALFLINE):
            raise BadDimension(f"unknown domain kind {self.domain_kind!r}")
        if self.nx < MIN_NX:
            raise BadDimension(f"nx={self.nx} below minimum {MIN_NX}")
        if self.nt < MIN_NT:
            raise BadDimension(f"nt={self.nt} below minimum {MIN_NT}")
        if not self.T > 0:
            raise BadDimension(f"horizon T={self.T} must be positive")
        if self.domain_kind == COMPACT and self.length != 1.0:
            raise BadDimension("compact domain has fixed length 1")
        if self.domain_kind == HALFLINE:
            if self.length < 1.0:
                raise BadDimension(f"half-line truncation L={self.length} must be >= 1")
            if not np.isfinite(self.weight_r):
                raise BadDimension("half-line weight r must be finite")
        if self.dt > STABILITY_FACTOR * self.dx**2 * (1 + 1e-12):
            raise CflViolation(
                f"dt={self.dt:.3e} exceeds {STABILITY_FACTOR} * dx^2 = "
                f"{STABILITY_FACTOR * self.dx ** 2:.3e}; increase nt or decrease nx"
            )

    @property
    def dx(self) -> float:
        return self.length / self.nx

    @property
    def dt(self) -> float:
        return self.T / self.nt

    @property
    def n_nodes(self) -> int:
        return self.nx + 1

    def space_nodes(self) -> np.ndarray:
        # memoised; treat the returned array as read-only
        nodes = self.__dict__.get("_space_nodes")
        if nodes is None:
            nodes = np.linspace(0.0, self.length, self.nx + 1)
            self.__dict__["_space_nodes"] = nodes
        return nodes

    def time_nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.nt + 1)

    def check_profile(self, values: np.ndarray) -> np.ndarray:
        """Validate a spatial profile, or profiles stacked on leading axes.

        The last axis runs over the grid nodes, so ``(n_nodes,)`` is one
        profile and ``(P, n_nodes)`` is one per path.
        """
        values = np.asarray(values, dtype=float)
        if values.shape[-1:] != (self.n_nodes,):
            raise DimensionMismatch(
                f"profile has shape {values.shape}, grid expects (..., {self.n_nodes})"
            )
        return values


def build_grid(domain_kind: str, nx: int, T: float, nt: int,
               length: float = 1.0, weight_r: float = 0.0) -> GridSpec:
    """Construct a validated grid; rejects CFL violations and bad sizes."""
    if domain_kind == COMPACT:
        length = 1.0
    return GridSpec(domain_kind=domain_kind, nx=int(nx), nt=int(nt), T=float(T),
                    length=float(length), weight_r=float(weight_r))


@dataclass
class Field:
    """A scalar function sampled on every (time, space) node of a grid."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.grid.nt + 1, self.grid.n_nodes)
        if self.values.shape != expected:
            raise DimensionMismatch(
                f"field has shape {self.values.shape}, grid expects {expected}"
            )

    @classmethod
    def from_function(cls, grid: GridSpec, fn) -> "Field":
        """Sample fn(t, x) on the grid nodes (fn must broadcast)."""
        t = grid.time_nodes()[:, None]
        x = grid.space_nodes()[None, :]
        return cls(grid, np.broadcast_to(fn(t, x), (grid.nt + 1, grid.n_nodes)).copy())

    @classmethod
    def zeros(cls, grid: GridSpec) -> "Field":
        return cls(grid, np.zeros((grid.nt + 1, grid.n_nodes)))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def weighted_sup_norm(self, r: float) -> float:
        """sup over nodes of exp(-r x) |u(t, x)|."""
        w = np.exp(-r * self.grid.space_nodes())
        return float(np.max(np.abs(self.values) * w[None, :]))
