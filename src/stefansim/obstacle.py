"""Deterministic parabolic obstacle problem: dz/dt = Lap z + eta, z >= v.

Two independent solvers are provided.  The penalised solver integrates

    dz/dt = Lap z + (1/eps) * arctan((min(z - v, 0))^2)

explicitly and converges to the constrained solution monotonically from
below as eps -> 0.  The projected solver clips each explicit heat step at
the obstacle, which satisfies the constraint and the complementarity
condition exactly on the grid; it serves as the discrete oracle for the
penalised family.  Both record the reflection mass eta per cell.

The arctan penalty is quadratic near the contact set, so the explicit step
remains stable well below eps = dt as long as the obstacle varies smoothly
(the local penalty slope is 2|z - v|/eps with |z - v| ~ sqrt(eps) at
contact); very rough obstacles may need eps >= dt.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from ._fd import laplacian
from .errors import GridMismatch, ObstacleInitialPositive
from .grids import Field, GridSpec


@dataclass
class ObstacleSolution:
    """Constrained solution z plus the discrete reflection measure.

    eta[i][j] is the reflection mass (value * space * time units) deposited
    around node j in the time slab adjacent to t_i, indexed at each
    scheme's own pairing time: the penalised deposit is computed from the
    state at the slab's left endpoint (row nt is zero), the projection
    correction pins the state at its right endpoint (row 0 is zero).  The
    complementarity sum over (z - v)(t_i) * eta[i] is exact either way.
    """

    z: Field
    eta: np.ndarray = field(repr=False)
    method: str = "projected"
    epsilon: float | None = None

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
    ts = grid.time_nodes()
    xs = grid.space_nodes()
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "z", "v", "eta_cell"])
        for i, t in enumerate(ts):
            for j, x in enumerate(xs):
                writer.writerow([f"{t:.10g}", f"{x:.10g}",
                                 f"{solution.z.values[i, j]:.17g}", v.values[i, j],
                                 f"{solution.eta[i, j]:.17g}"])


def _validate_obstacle(v: Field, grid: GridSpec | None) -> GridSpec:
    grid = grid or v.grid
    if grid != v.grid:
        raise GridMismatch("obstacle field lives on a different grid")
    if np.any(v.values[0] > 0.0):
        raise ObstacleInitialPositive(
            f"obstacle must satisfy v(0, .) <= 0; max v(0, .) = {v.values[0].max():g}"
        )
    return grid


def solve_penalized(v: Field, epsilon: float, grid: GridSpec | None = None) -> ObstacleSolution:
    """Explicit Euler integration of the arctan-penalised equation."""
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    grid = _validate_obstacle(v, grid)
    dx, dt = grid.dx, grid.dt
    nt, nn = grid.nt, grid.n_nodes
    z = np.zeros((nt + 1, nn))
    eta = np.zeros((nt + 1, nn))
    inv_eps = 1.0 / epsilon
    for i in range(nt):
        zi = z[i]
        deficit = np.minimum(zi - v.values[i], 0.0)
        pen = inv_eps * np.arctan(deficit * deficit)
        zn = zi + dt * (laplacian(zi, dx) + pen)
        zn[0] = 0.0
        zn[-1] = 0.0
        z[i + 1] = zn
        eta[i] = dt * dx * pen
    return ObstacleSolution(z=Field(grid, z), eta=eta,
                            method="penalized", epsilon=float(epsilon))


def solve_projected(v: Field, grid: GridSpec | None = None) -> ObstacleSolution:
    """Explicit heat step clipped at the obstacle each step.

    z >= v holds exactly and eta is supported exactly on the contact set,
    so the discrete complementarity sum vanishes at machine precision.
    """
    grid = _validate_obstacle(v, grid)
    dx, dt = grid.dx, grid.dt
    nt, nn = grid.nt, grid.n_nodes
    z = np.zeros((nt + 1, nn))
    eta = np.zeros((nt + 1, nn))
    for i in range(nt):
        free = z[i] + dt * laplacian(z[i], dx)
        zn = np.maximum(free, v.values[i + 1])
        zn[0] = 0.0
        zn[-1] = 0.0
        z[i + 1] = zn
        eta[i + 1] = (zn - free) * dx
        eta[i + 1][0] = 0.0
        eta[i + 1][-1] = 0.0
    return ObstacleSolution(z=Field(grid, z), eta=eta, method="projected")


def stability_gap(v1: Field, v2: Field, grid: GridSpec | None = None,
                  norm: str = "sup", r: float | None = None) -> tuple[float, float]:
    """Solve both obstacle problems (projected) and return (|z1-z2|, |v1-v2|).

    norm is "sup" or "weighted"; the weighted norm uses exp(-r x) with r
    defaulting to the grid's weight.
    """
    grid = grid or v1.grid
    if v1.grid != v2.grid:
        raise GridMismatch("obstacles must share a grid")
    z1 = solve_projected(v1, grid).z
    z2 = solve_projected(v2, grid).z
    dz = Field(grid, z1.values - z2.values)
    dv = Field(grid, v1.values - v2.values)
    if norm == "sup":
        return dz.sup_norm(), dv.sup_norm()
    if norm == "weighted":
        rr = grid.weight_r if r is None else float(r)
        return dz.weighted_sup_norm(rr), dv.weighted_sup_norm(rr)
    raise ValueError(f"unknown norm {norm!r}")
