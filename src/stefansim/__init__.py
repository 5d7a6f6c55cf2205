"""Coupled reflected stochastic heat equations sharing a moving boundary.

Finite-difference and mild-form solvers for a pair of nonnegative
profiles meeting at an interface whose speed is a functional of the two
sides, with deterministic obstacle-problem machinery, Dirichlet
heat-kernel diagnostics, Hölder-exponent estimation and an order-book
fitting/simulation front end.
"""

from .boundary import (BoundaryFunctional, F_Mr, eval_h, exp_imbalance, g_lambda,
                       stefan_fd, table_boundary, zero_boundary)
from .grids import COMPACT, HALFLINE, Field, GridSpec, build_grid
from .kernels import (BoundReport, deriv_y, eval_G, eval_G_r, eval_H,
                      verify_kernel_bounds)
from .lob import (FitResult, LobEventStream, fit_coefficients, parse_events,
                  simulate_price)
from .noise import NoiseField, NoiseStream, sample_white_noise
from .obstacle import ObstacleSolution, solve_penalized, solve_projected, stability_gap
from .picard import IterationReport, KernelTables, build_kernel_tables, mild_solve_w, picard_iterate
from .regularity import (HolderEstimate, StructureSums, estimate_holder,
                         estimate_holder_ensemble, structure_function)
from .spde import (ModelCoefficients, Recorder, Trajectory, constant_coefficients,
                   run_paths, run_relative_frame, tabulated_coefficients)

__version__ = "0.1.0"
