"""Configuration-driven command line front end.

Subcommands: simulate, obstacle, picard-check, holder, kernel-check,
fit-lob, simulate-price.  Every output file lands inside the configured
output directory and starts with a comment line carrying the resolved
config hash and seed.  Exit codes: 0 success (a flagged blow-up is still
a success), 1 validation error, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .config import (boundary_from_config, coefficients_from_config, config_hash,
                     get_field, grid_from_config, initial_from_config)
from .errors import ConfigError, StefansimError
from .grids import Field
from .kernels import verify_kernel_bounds
from .lob import FitResult, fit_coefficients, parse_events, price_series_to_csv, simulate_price
from .noise import sample_white_noise
from .obstacle import dump_csv, solve_penalized, solve_projected
from .picard import picard_iterate
from .regularity import (SPACE, TIME, StructureSums, boundary_holder_ensemble,
                         dyadic_lags, estimate_holder_ensemble)
from .spde import run_paths, run_relative_frame

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


def _header(cfg_hash: str, seed) -> str:
    return f"config_sha256={cfg_hash} seed={seed}"


def _outdir(cfg: dict) -> Path:
    out = Path(get_field(cfg, "output.dir", default="out", cast=str))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict, cfg_hash: str, seed) -> None:
    payload = {"schema": 1, "config_sha256": cfg_hash, "seed": seed, **payload}
    path.write_text(json.dumps(payload, indent=2) + "\n")


def cmd_simulate(cfg: dict) -> int:
    grid = grid_from_config(cfg)
    coeffs = coefficients_from_config(cfg)
    fn = boundary_from_config(cfg)
    v1_0, v2_0 = initial_from_config(cfg, grid)
    seed = get_field(cfg, "noise.seed", default=0, cast=int)
    M = cfgmod.float_or_inf(get_field(cfg, "run.M", default="inf"))
    M_max = cfgmod.float_or_inf(get_field(cfg, "run.M_max", default="inf"))
    lap_scale = get_field(cfg, "run.lap_scale", default=1.0, cast=float)
    stride = get_field(cfg, "run.stride", default=0, cast=int)
    p0 = get_field(cfg, "run.p0", default=0.0, cast=float)

    traj = run_relative_frame((v1_0, v2_0, p0), coeffs, fn, M=M, M_max=M_max,
                              grid=grid, seed=seed, store_stride=stride,
                              lap_scale=lap_scale)
    out = _outdir(cfg)
    h = config_hash(cfg)
    traj.to_csv(out / "trajectory.csv", header_comment=_header(h, seed))
    if stride > 0:
        traj.profiles_to_csv(out / "profiles.csv", header_comment=_header(h, seed))
    summary = {"blown_up": traj.blown_up,
               "tau_estimate": traj.tau_estimate,
               "steps": len(traj.times) - 1}
    if traj.blown_up:
        summary["blowup_cause"] = traj.blowup_cause
    _write_json(out / "run_summary.json", summary, h, seed)
    return EXIT_OK


def _obstacle_field(cfg: dict, grid) -> Field:
    kind = get_field(cfg, "obstacle.kind", default="sine", cast=str)
    if kind == "sine":
        amp = get_field(cfg, "obstacle.amplitude", default=5.0, cast=float)
        ramp = get_field(cfg, "obstacle.ramp", default=0.02, cast=float)
        return Field.from_function(
            grid, lambda t, x: amp * np.sin(np.pi * x / grid.length) * np.minimum(t, ramp))
    if kind == "constant":
        level = get_field(cfg, "obstacle.level", default=-1.0, cast=float)
        if level > 0:
            raise ConfigError("field 'obstacle.level' must be <= 0 at time zero")
        return Field.from_function(grid, lambda t, x: np.full_like(x + t, level))
    raise ConfigError(f"field 'obstacle.kind' has unknown value {kind!r}")


def cmd_obstacle(cfg: dict) -> int:
    grid = grid_from_config(cfg)
    v = _obstacle_field(cfg, grid)
    method = get_field(cfg, "obstacle.method", default="projected", cast=str)
    if method == "projected":
        sol = solve_projected(v)
    elif method == "penalized":
        eps = get_field(cfg, "obstacle.epsilon", default=1e-5, cast=float)
        sol = solve_penalized(v, eps)
    else:
        raise ConfigError(f"field 'obstacle.method' has unknown value {method!r}")
    out = _outdir(cfg)
    seed = get_field(cfg, "noise.seed", default=0, cast=int)
    dump_csv(sol, v, out / "obstacle.csv",
             header_comment=_header(config_hash(cfg), seed))
    return EXIT_OK


def cmd_picard_check(cfg: dict) -> int:
    grid = grid_from_config(cfg)
    coeffs = coefficients_from_config(cfg)
    fn = boundary_from_config(cfg)
    v1_0, v2_0 = initial_from_config(cfg, grid)
    seed = get_field(cfg, "noise.seed", default=0, cast=int)
    M = cfgmod.float_or_inf(get_field(cfg, "picard.M", default=2.0))
    n_iters = get_field(cfg, "picard.n_iters", default=12, cast=int)
    noise_pair = (sample_white_noise(grid, seed, 0), sample_white_noise(grid, seed, 1))
    report = picard_iterate(v1_0, v2_0, coeffs, fn, M, noise_pair, grid,
                            n_iters=n_iters, compare_direct=True)
    out = _outdir(cfg)
    _write_json(out / "picard_report.json", report.to_json_dict(),
                config_hash(cfg), seed)
    return EXIT_OK


def cmd_holder(cfg: dict) -> int:
    grid = grid_from_config(cfg)
    coeffs = coefficients_from_config(cfg)
    fn = boundary_from_config(cfg)
    v1_0, v2_0 = initial_from_config(cfg, grid)
    base_seed = get_field(cfg, "noise.seed", default=0, cast=int)
    n_paths = get_field(cfg, "holder.n_paths", default=4, cast=int)
    q = get_field(cfg, "holder.q", default=2, cast=float)
    lag_lo = get_field(cfg, "holder.lag_min", default=2, cast=int)
    lag_hi = get_field(cfg, "holder.lag_max", default=64, cast=int)
    M = cfgmod.float_or_inf(get_field(cfg, "run.M", default="inf"))
    M_max = cfgmod.float_or_inf(get_field(cfg, "run.M_max", default="inf"))
    lap_scale = get_field(cfg, "run.lap_scale", default=1.0, cast=float)
    if q not in (1, 2):
        raise ConfigError(f"field 'holder.q' must be 1 or 2, got {q}")
    try:
        time_lags = dyadic_lags((lag_lo, lag_hi))
    except ValueError as exc:
        raise ConfigError(f"fields 'holder.lag_min' and 'holder.lag_max': {exc}") from None
    space_range = (1, max(8, grid.nx // 8))

    # side-1 profiles are reduced to structure sums as the batch steps; none
    # is kept.  holder.workers is deprecated and ignored.
    sums = StructureSums(n_paths, grid.n_nodes, grid.nt + 1, q, time_lags=time_lags,
                         space_lags=dyadic_lags(space_range))
    trajs = run_paths((v1_0, v2_0, 0.0), coeffs, fn, M=M, M_max=M_max, grid=grid,
                      seeds=range(base_seed, base_seed + n_paths), store_stride=1,
                      lap_scale=lap_scale, store_sides=(1,), sink=sums.push)
    rows = [
        estimate_holder_ensemble(sums, TIME, q=q, lag_range=(lag_lo, lag_hi)).to_json_dict(),
        estimate_holder_ensemble(sums, SPACE, q=q, lag_range=space_range).to_json_dict(),
        boundary_holder_ensemble([t.p_prime for t in trajs], q=q,
                                 lag_range=(lag_lo, lag_hi)).to_json_dict(),
    ]
    rows[2]["axis"] = "boundary_derivative"
    out = _outdir(cfg)
    _write_json(out / "holder.json", {"estimates": rows}, config_hash(cfg), base_seed)
    return EXIT_OK


def cmd_kernel_check(cfg: dict) -> int:
    kernel = get_field(cfg, "kernel_check.kernel", default="G", cast=str)
    r = get_field(cfg, "kernel_check.r", default=0.0, cast=float)
    t_min = get_field(cfg, "kernel_check.t_min", default=1e-4, cast=float)
    t_max = get_field(cfg, "kernel_check.t_max", default=0.1, cast=float)
    n_t = get_field(cfg, "kernel_check.n_t", default=7, cast=int)
    xs = get_field(cfg, "kernel_check.x_samples", default=[0.25, 0.5, 1.0, 2.0, 4.0])
    if kernel not in ("G", "H"):
        raise ConfigError("field 'kernel_check.kernel' must be 'G' or 'H'")
    t_values = np.geomspace(t_min, t_max, n_t)
    report = verify_kernel_bounds(t_values, xs, r=r, kernel_kind=kernel)
    out = _outdir(cfg)
    seed = get_field(cfg, "noise.seed", default=0, cast=int)
    _write_json(out / "kernel_report.json", report.to_json_dict(),
                config_hash(cfg), seed)
    return EXIT_OK


def cmd_fit_lob(cfg: dict) -> int:
    source = get_field(cfg, "lob.input", required=True, cast=str)
    fmt = get_field(cfg, "lob.format", default="normalized", cast=str)
    n_bins = get_field(cfg, "lob.n_bins", default=16, cast=int)
    agg = get_field(cfg, "lob.agg_interval", default=1.0, cast=float)
    pool = bool(get_field(cfg, "lob.pool_sides", default=True))
    touch = None
    touch_file = get_field(cfg, "lob.touch_file", default=None)
    if touch_file is not None:
        touch = np.loadtxt(touch_file, delimiter=",")
    stream = parse_events(source, fmt=fmt, book_reference_prices=touch)
    fit = fit_coefficients(stream, n_bins=n_bins, pool_sides=pool, agg_interval=agg)
    out = _outdir(cfg)
    seed = get_field(cfg, "noise.seed", default=0, cast=int)
    fit.to_csv(out / "fit.csv", header_comment=_header(config_hash(cfg), seed))
    return EXIT_OK


def cmd_simulate_price(cfg: dict) -> int:
    grid = grid_from_config(cfg)
    fn = boundary_from_config(cfg)
    seed = get_field(cfg, "noise.seed", default=0, cast=int)
    fit_path = get_field(cfg, "price.fit_csv", required=True, cast=str)
    lap_scale = get_field(cfg, "run.lap_scale", default=0.2, cast=float)
    p0 = get_field(cfg, "run.p0", default=0.0, cast=float)
    fit = FitResult.from_csv(fit_path)
    traj = simulate_price(fit, fn, grid, seed=seed, lap_scale=lap_scale, p0=p0)
    out = _outdir(cfg)
    price_series_to_csv(traj, out / "price.csv",
                        header_comment=_header(config_hash(cfg), seed))
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "obstacle": cmd_obstacle,
    "picard-check": cmd_picard_check,
    "holder": cmd_holder,
    "kernel-check": cmd_kernel_check,
    "fit-lob": cmd_fit_lob,
    "simulate-price": cmd_simulate_price,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stefansim",
        description="Coupled reflected stochastic heat equations with a moving boundary",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("-c", "--config", required=True, help="YAML config file")
        p.add_argument("--seed", type=int, default=None, help="override noise.seed")
        p.add_argument("--output-dir", default=None, help="override output.dir")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override any dotted config field")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = cfgmod.load_yaml(args.config)
        cfg = cfgmod.apply_overrides(cfg, args.set)
        if args.seed is not None:
            cfg.setdefault("noise", {})["seed"] = args.seed
        if args.output_dir is not None:
            cfg.setdefault("output", {})["dir"] = args.output_dir
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StefansimError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
