"""Small finite-difference stencils shared by the explicit solvers.

Both act along the last axis, so a stack of profiles (one per row) is
differenced in one call.
"""
from __future__ import annotations

import numpy as np


def laplacian(u: np.ndarray, dx: float) -> np.ndarray:
    """Three-point Laplacian; zero at both boundary nodes."""
    out = np.zeros_like(u)
    out[..., 1:-1] = (u[..., :-2] - 2.0 * u[..., 1:-1] + u[..., 2:]) / (dx * dx)
    return out


def upwind_gradient(u: np.ndarray, dx: float, speed) -> np.ndarray:
    """One-sided du/dx biased against the transport direction of ``speed``.

    For a term -speed * du/dx the donor cell sits upstream: backward
    difference when speed >= 0, forward when speed < 0.  ``speed`` is a
    scalar or one value per row of ``u`` (shape ``u.shape[:-1] + (1,)``),
    so each row picks its own direction.  Boundary nodes are left at zero
    (they are Dirichlet-pinned by the callers).
    """
    out = np.zeros_like(u)
    diff = (u[..., 1:] - u[..., :-1]) / dx
    out[..., 1:-1] = np.where(np.asarray(speed) >= 0.0, diff[..., :-1], diff[..., 1:])
    return out
