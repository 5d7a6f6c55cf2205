"""Deterministic parabolic obstacle problem: dz/dt = Lap z + eta, z >= v.

Two independent solvers are provided.  The penalised solver integrates

    dz/dt = Lap z + (1/eps) * arctan((min(z - v, 0))^2)

explicitly and converges to the constrained solution monotonically from
below as eps -> 0.  The projected solver clips each explicit heat step at
the obstacle, which satisfies the constraint and the complementarity
condition exactly on the grid; it serves as the discrete oracle for the
penalised family.  Both record the reflection mass eta per cell and solve
a stack of obstacles (leading axes), each on its own, in one time loop.

The arctan penalty is quadratic near the contact set, so the explicit step
remains stable well below eps = dt as long as the obstacle varies smoothly
(the local penalty slope is 2|z - v|/eps with |z - v| ~ sqrt(eps) at
contact); very rough obstacles may need eps >= dt.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._csv import write_table
from ._fd import laplacian
from .errors import GridMismatch, ObstacleInitialPositive
from .grids import Field, GridSpec, profile_norm


@dataclass
class ObstacleSolution:
    """Constrained solution z plus the discrete reflection measure.

    eta[..., i, j] is the reflection mass (value * space * time units) deposited
    around node j in the time slab adjacent to t_i, indexed at each
    scheme's own pairing time: the penalised deposit is computed from the
    state at the slab's left endpoint (row nt is zero), the projection
    correction pins the state at its right endpoint (row 0 is zero).  The
    complementarity sum over (z - v)(t_i) * eta[i] is exact either way.
    """

    z: Field
    eta: np.ndarray = field(repr=False)

    @property
    def grid(self) -> GridSpec:
        return self.z.grid

    def complementarity_defect(self, v: Field) -> float:
        """sum over cells of (z - v) * eta; zero in the continuum."""
        return float(np.sum((self.z.values - v.values) * self.eta))

    def total_mass(self) -> float:
        return float(np.sum(self.eta))


def dump_csv(solution: ObstacleSolution, v: Field, path,
             header_comment: str | None = None) -> None:
    """Write (t, x, z, v, eta_cell) rows for every grid node."""
    grid = solution.grid
    write_table(path, ["t", "x", "z", "v", "eta_cell"],
                ["%.10g", "%.10g", "%.17g", "%r", "%.17g"],
                [grid.time_nodes()[:, None], grid.space_nodes(), solution.z.values,
                 v.values, solution.eta], header_comment)


def _validate_obstacle(v: Field) -> GridSpec:
    start = v.values[..., 0, :]
    if np.any(start > 0.0):
        raise ObstacleInitialPositive(
            f"obstacle must satisfy v(0, .) <= 0; max v(0, .) = {start.max():g}"
        )
    return v.grid


def solve_penalized(v: Field, epsilon: float) -> ObstacleSolution:
    """Explicit Euler integration of the arctan-penalised equation."""
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    grid = _validate_obstacle(v)
    dx, dt = grid.dx, grid.dt
    z = np.zeros(v.values.shape)
    eta = np.zeros(v.values.shape)
    inv_eps = 1.0 / epsilon
    lap = np.empty(v.values.shape[:-2] + (grid.n_nodes,))    # the stencil buffer
    for i in range(grid.nt):
        zi = z[..., i, :]
        deficit = np.minimum(zi - v.values[..., i, :], 0.0)
        pen = inv_eps * np.arctan(deficit * deficit)
        zn = zi + dt * (laplacian(zi, dx, out=lap) + pen)
        zn[..., ::grid.nx] = 0.0
        z[..., i + 1, :] = zn
        eta[..., i, :] = dt * dx * pen
    return ObstacleSolution(z=Field(grid, z), eta=eta)


def solve_projected(v: Field) -> ObstacleSolution:
    """Explicit heat step clipped at the obstacle each step.

    z >= v holds exactly and eta is supported exactly on the contact set,
    so the discrete complementarity sum vanishes at machine precision.
    """
    grid = _validate_obstacle(v)
    dx, dt = grid.dx, grid.dt
    z = np.zeros(v.values.shape)
    eta = np.zeros(v.values.shape)
    free = np.empty(v.values.shape[:-2] + (grid.n_nodes,))   # the stencil buffer
    for i in range(grid.nt):
        laplacian(z[..., i, :], dx, out=free)
        free *= dt
        free += z[..., i, :]
        zn = np.maximum(free, v.values[..., i + 1, :], out=z[..., i + 1, :])
        zn[..., ::grid.nx] = 0.0
        eta[..., i + 1, :] = (zn - free) * dx
    # no reflection at the Dirichlet nodes (free is already 0 there)
    eta[..., ::grid.nx] = 0.0
    return ObstacleSolution(z=Field(grid, z), eta=eta)


def stability_gap(v1: Field, v2: Field) -> tuple[float, float]:
    """Solve both obstacle problems (projected) and return (|z1-z2|, |v1-v2|).

    Both are the grid's domain norm (``profile_norm``), maximised over time.
    """
    grid = v1.grid
    if v2.grid != grid:
        raise GridMismatch("obstacles must share a grid")
    z = solve_projected(Field(grid, np.stack([v1.values, v2.values]))).z.values
    return (float(np.max(profile_norm(z[0] - z[1], grid))),
            float(np.max(profile_norm(v1.values - v2.values, grid))))
