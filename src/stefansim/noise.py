"""Seeded, reproducible discretised space-time white noise.

Each grid node (i, j) carries an independent N(0, 1/(dx*dt)) sample, the
cell-average convention for white noise under explicit Euler stepping.
Generation uses a counter-based Philox stream keyed by (seed, stream), so
identical (grid, seed, stream) always reproduces the same array, and the
two sides of a coupled system draw from independent streams (the profiles
occupy disjoint regions in the absolute frame, so their driving noises are
independent in relative coordinates).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import GridSpec

_UINT64_MASK = (1 << 64) - 1


def _generator(seed: int, stream: int) -> np.random.Generator:
    key = np.array([int(seed) & _UINT64_MASK, int(stream) & _UINT64_MASK],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class NoiseField:
    """One realisation of discretised space-time white noise on a grid.

    xi has shape (nt, nx + 1): row i holds the noise driving the step from
    t_i to t_{i+1}, one sample per spatial node.
    """

    grid: GridSpec
    seed: int
    stream: int
    xi: np.ndarray = field(repr=False)

    @property
    def cell_variance(self) -> float:
        return 1.0 / (self.grid.dx * self.grid.dt)


class NoiseStream:
    """One (seed, stream) realisation read forward in blocks of time rows.

    Successive ``draw(rows)`` calls continue one Philox sequence, so the
    blocks concatenate bit for bit to the array ``sample_white_noise``
    returns, while only one block is held at a time.  Built from a
    NoiseField (``from_field``), the blocks are slices of its array.
    """

    def __init__(self, grid: GridSpec, seed: int, stream: int = 0):
        self._gen = _generator(seed, stream)
        self._shape = (grid.n_nodes,)
        self._scale = 1.0 / np.sqrt(grid.dx * grid.dt)
        self._xi = None
        self._row = 0

    @classmethod
    def from_field(cls, noise: NoiseField) -> "NoiseStream":
        reader = cls(noise.grid, noise.seed, noise.stream)
        reader._xi = noise.xi
        return reader

    def draw(self, rows: int) -> np.ndarray:
        """The next ``rows`` time rows, shape (rows, n_nodes)."""
        if self._xi is not None:
            block = self._xi[self._row:self._row + rows]
        else:
            block = self._gen.standard_normal((rows,) + self._shape) * self._scale
        self._row += rows
        return block


def sample_white_noise(grid: GridSpec, seed: int, stream: int = 0) -> NoiseField:
    """Draw the full noise array for a grid; bit-reproducible per (grid, seed, stream)."""
    xi = NoiseStream(grid, seed, stream).draw(grid.nt)
    return NoiseField(grid=grid, seed=int(seed), stream=int(stream), xi=xi)
