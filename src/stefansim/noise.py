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

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionMismatch
from .grids import GridSpec


@dataclass(frozen=True)
class NoiseField:
    """One realisation of discretised space-time white noise on a grid.

    xi has shape (nt, nx + 1): row i holds the noise driving the step from
    t_i to t_{i+1}, one sample per spatial node.  Another shape raises
    DimensionMismatch when the field is built.
    """

    grid: GridSpec
    xi: np.ndarray = field(repr=False)

    def __post_init__(self):
        expected = (self.grid.nt, self.grid.n_nodes)
        if np.shape(self.xi) != expected:
            raise DimensionMismatch(f"noise must have shape (nt, n_nodes) = {expected}, "
                                    f"got {np.shape(self.xi)}")


class NoiseStream:
    """One (seed, stream) realisation read forward in blocks of time rows.

    Successive ``draw`` calls continue one Philox sequence, so the
    blocks concatenate bit for bit to the array ``sample_white_noise``
    returns, while only one block is held at a time.  Built from a
    NoiseField (``from_field``), the blocks are copied from its array and
    nothing is drawn.
    The seed must be a whole number in [0, 2**64), the Philox key's range.
    """

    def __init__(self, grid: GridSpec, seed: int, stream: int = 0):
        if not (isinstance(seed, numbers.Integral) and 0 <= seed < 2**64):
            raise ConfigError(f"seed {seed!r} must be a whole number in [0, 2**64)")
        key = np.array([seed, stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))
        self._scale = 1.0 / np.sqrt(grid.dx * grid.dt)
        self._xi, self._row = None, 0

    @classmethod
    def from_field(cls, noise: NoiseField) -> "NoiseStream":
        reader = cls.__new__(cls)
        reader._xi, reader._row = noise.xi, 0
        return reader

    def draw(self, rows: int, out: np.ndarray) -> np.ndarray:
        """Write the next ``rows`` time rows to ``out`` and return it.

        ``out`` is a C-contiguous float array of shape (rows, n_nodes), which every caller owns.
        """
        if self._xi is not None:
            out[...] = self._xi[self._row:self._row + rows]
        else:
            self._gen.standard_normal(out=out)
            out *= self._scale
        self._row += rows
        return out


def sample_white_noise(grid: GridSpec, seed: int, stream: int = 0) -> NoiseField:
    """Draw the full noise array for a grid; bit-reproducible per (grid, seed, stream)."""
    xi = NoiseStream(grid, seed, stream).draw(grid.nt, np.empty((grid.nt, grid.n_nodes)))
    return NoiseField(grid=grid, xi=xi)
