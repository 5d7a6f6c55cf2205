"""Small finite-difference stencils shared by the explicit solvers.

Both act along the last axis, so a stack of profiles (one per row) is
differenced in one call.  They run along the flattened array, one pass
however many rows there are: the values this computes across the end of
a row land on boundary nodes, which are then zeroed.  Both write into
``out``, a C-contiguous float array of ``u``'s shape (not ``u`` itself),
and return it.
"""
from __future__ import annotations

import numpy as np


def _flat_pair(u: np.ndarray, out: np.ndarray):
    """Flat views of ``u`` and of ``out``."""
    if not out.flags.c_contiguous:
        raise ValueError("a stencil's out= array must be C-contiguous")
    return u.ravel(), out.ravel()


def laplacian(u: np.ndarray, dx: float, out: np.ndarray) -> np.ndarray:
    """Three-point Laplacian; zero at both boundary nodes."""
    u_flat, out_flat = _flat_pair(u, out)
    inner = out_flat[1:-1]
    np.multiply(2.0, u_flat[1:-1], out=inner)
    np.subtract(u_flat[:-2], inner, out=inner)
    inner += u_flat[2:]
    inner /= dx * dx
    out[..., ::u.shape[-1] - 1] = 0.0
    return out


def upwind_gradient(u: np.ndarray, dx: float, speed, out: np.ndarray) -> np.ndarray:
    """One-sided du/dx biased against the transport direction of ``speed``.

    For a term -speed * du/dx the donor cell sits upstream: backward
    difference when speed >= 0, forward when speed < 0.  ``speed`` is a
    scalar or one value per row of ``u`` (shape ``u.shape[:-1] + (1,)``),
    so each row picks its own direction.  Boundary nodes are set to zero
    (they are Dirichlet-pinned by the callers).
    """
    u_flat, out_flat = _flat_pair(u, out)
    diff = out_flat[1:]
    np.subtract(u_flat[1:], u_flat[:-1], out=diff)
    diff /= dx
    # every node now holds its backward difference; a row moving the other
    # way takes the forward one, its right neighbour's backward difference
    np.copyto(out[..., 1:-1], out[..., 2:], where=speed < 0.0)
    out[..., ::u.shape[-1] - 1] = 0.0
    return out
