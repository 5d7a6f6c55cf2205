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
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .config import (boundary_from_config, choice, coefficients_from_config, config_hash,
                     finite, get_field, grid_from_config, initial_from_config, list_of,
                     nonnegative, nonpositive, positive, positive_or_inf, whole)
from .errors import ConfigError, FormatError, InsufficientData, StefansimError
from .grids import Field
from .kernels import verify_kernel_bounds
from .lob import (LOBSTER, MIN_BINS, NORMALIZED, FitResult, fit_coefficients, parse_events,
                  price_series_to_csv, simulate_price)
from .noise import sample_white_noise
from .obstacle import dump_csv, solve_penalized, solve_projected
from .picard import picard_iterate
from .regularity import (SPACE, TIME, HolderObserver, StructureSums, boundary_holder_ensemble,
                         dyadic_lags, estimate_holder_ensemble, pooled_increments)
from .spde import run_forked, run_relative_frame

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2

# fields that several subcommands read, each with its one domain
_seed = partial(get_field, path="noise.seed", default=0, cast=whole(0, 2**64))
_M = partial(get_field, path="run.M", default=np.inf, cast=positive_or_inf)
_M_max = partial(get_field, path="run.M_max", default=np.inf, cast=positive_or_inf)
_lap_scale = partial(get_field, path="run.lap_scale", default=1.0, cast=positive)
_p0 = partial(get_field, path="run.p0", default=0.0, cast=finite)


def _header(cfg_hash: str, seed) -> str:
    return f"config_sha256={cfg_hash} seed={seed}"


def _outdir(cfg: dict) -> Path:
    out = Path(get_field(cfg, "output.dir", default="out", cast=str))
    out.mkdir(parents=True, exist_ok=True)
    return out


@contextmanager
def _input_file(field: str, path: str):
    """An input file that cannot be opened, or whose content is refused, is a config error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"field {field!r}: cannot read {path!r}: "
                          f"{exc.strerror or exc}") from None
    except (ValueError, FormatError) as exc:
        raise ConfigError(f"field {field!r}: {path!r} is not valid: {exc}") from None


def _write_json(path: Path, payload: dict, cfg_hash: str, seed) -> None:
    payload = {"schema": 1, "config_sha256": cfg_hash, "seed": seed, **payload}
    path.write_text(json.dumps(payload, indent=2) + "\n")


def cmd_simulate(cfg: dict) -> int:
    grid = grid_from_config(cfg)
    coeffs = coefficients_from_config(cfg)
    fn = boundary_from_config(cfg)
    v1_0, v2_0 = initial_from_config(cfg, grid)
    seed = _seed(cfg)
    M = _M(cfg)
    stride = get_field(cfg, "run.stride", default=0, cast=whole(0))

    traj = run_relative_frame((v1_0, v2_0, _p0(cfg)), coeffs, fn, M=M, M_max=_M_max(cfg),
                              grid=grid, noise=seed, store_stride=stride,
                              lap_scale=_lap_scale(cfg))
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
    kind = get_field(cfg, "obstacle.kind", default="sine", cast=choice("sine", "constant"))
    if kind == "sine":
        amp = get_field(cfg, "obstacle.amplitude", default=5.0, cast=finite)
        ramp = get_field(cfg, "obstacle.ramp", default=0.02, cast=positive_or_inf)
        return Field.from_function(
            grid, lambda t, x: amp * np.sin(np.pi * x / grid.length) * np.minimum(t, ramp))
    level = get_field(cfg, "obstacle.level", default=-1.0, cast=nonpositive)
    return Field.from_function(grid, lambda t, x: np.full_like(x + t, level))


def cmd_obstacle(cfg: dict) -> int:
    grid = grid_from_config(cfg)
    seed = _seed(cfg)
    v = _obstacle_field(cfg, grid)
    method = get_field(cfg, "obstacle.method", default="projected",
                       cast=choice("projected", "penalized"))
    if method == "projected":
        sol = solve_projected(v)
    else:
        sol = solve_penalized(v, get_field(cfg, "obstacle.epsilon", default=1e-5, cast=positive))
    out = _outdir(cfg)
    dump_csv(sol, v, out / "obstacle.csv", header_comment=_header(config_hash(cfg), seed))
    return EXIT_OK


def cmd_picard_check(cfg: dict) -> int:
    grid = grid_from_config(cfg)
    coeffs = coefficients_from_config(cfg)
    fn = boundary_from_config(cfg)
    v1_0, v2_0 = initial_from_config(cfg, grid)
    seed = _seed(cfg)
    M = get_field(cfg, "picard.M", default=2.0, cast=positive_or_inf)
    n_iters = get_field(cfg, "picard.n_iters", default=12, cast=whole(2))
    noise_pair = (sample_white_noise(grid, seed, 0), sample_white_noise(grid, seed, 1))
    report = picard_iterate(v1_0, v2_0, coeffs, fn, M, noise_pair, grid, n_iters=n_iters)
    out = _outdir(cfg)
    _write_json(out / "picard_report.json", report.to_json_dict(),
                config_hash(cfg), seed)
    return EXIT_OK


def cmd_holder(cfg: dict) -> int:
    grid = grid_from_config(cfg)
    coeffs = coefficients_from_config(cfg)
    fn = boundary_from_config(cfg)
    v1_0, v2_0 = initial_from_config(cfg, grid)
    base_seed = _seed(cfg)
    n_paths = get_field(cfg, "holder.n_paths", default=4, cast=whole(1))
    q = get_field(cfg, "holder.q", default=2, cast=choice(1.0, 2.0))
    lag_lo = get_field(cfg, "holder.lag_min", default=2, cast=whole(1))
    lag_hi = get_field(cfg, "holder.lag_max", default=64, cast=whole(1))
    M = _M(cfg)
    if base_seed + n_paths > 2**64:
        raise ConfigError(f"fields 'noise.seed' and 'holder.n_paths': the last path's seed "
                          f"{base_seed + n_paths - 1} must be less than 2**64")
    try:
        time_lags = dyadic_lags((lag_lo, lag_hi))
    except ValueError as exc:
        raise ConfigError(f"fields 'holder.lag_min' and 'holder.lag_max': {exc}") from None
    space_range = (1, max(8, grid.nx // 8))
    space_lags = dyadic_lags(space_range)
    # a lag that a path of all nt + 1 steps cannot fit is refused before any
    # step: the time lags on p', one column, and the space lags on the profiles
    for name, axis, lag, n_cols in (("holder.lag_max", TIME, time_lags[-1], 1),
                                    ("grid.nx", SPACE, space_lags[-1], grid.n_nodes)):
        try:
            pooled_increments(axis, lag, grid.nt + 1, n_cols)
        except InsufficientData as exc:
            raise ConfigError(f"field {name!r}: {exc} on a full-length path "
                              f"({grid.nt + 1} rows)") from None

    observer = partial(HolderObserver, grid=grid, q=q, time_lags=time_lags,
                       space_lags=space_lags)
    p_prime, ends, totals = zip(*run_forked(
        (v1_0, v2_0, 0.0), coeffs, fn, M=M, M_max=_M_max(cfg), grid=grid,
        noises=range(base_seed, base_seed + n_paths), make_observer=observer,
        lap_scale=_lap_scale(cfg)))
    sums = StructureSums.join(totals, grid.n_nodes, q, time_lags, space_lags)
    try:
        rows = [
            estimate_holder_ensemble(sums, TIME, q=q, lag_range=(lag_lo, lag_hi)).to_json_dict(),
            estimate_holder_ensemble(sums, SPACE, q=q, lag_range=space_range).to_json_dict(),
            boundary_holder_ensemble(p_prime, q=q, lag_range=(lag_lo, lag_hi)).to_json_dict(),
        ]
    except InsufficientData as exc:
        if any(cause is None for _, cause in ends):
            raise
        stops = ", ".join(f"path {k} (seed {base_seed + k}) at step {last} ({cause})"
                          for k, (last, cause) in enumerate(ends))
        raise InsufficientData(f"every path blew up before its lags fit: {stops}; "
                               f"{exc}") from None
    rows[2]["axis"] = "boundary_derivative"
    out = _outdir(cfg)
    _write_json(out / "holder.json", {"estimates": rows}, config_hash(cfg), base_seed)
    return EXIT_OK


def cmd_kernel_check(cfg: dict) -> int:
    kernel = get_field(cfg, "kernel_check.kernel", default="G", cast=choice("G", "H"))
    r = get_field(cfg, "kernel_check.r", default=0.0, cast=finite)
    t_min = get_field(cfg, "kernel_check.t_min", default=1e-4, cast=positive)
    t_max = get_field(cfg, "kernel_check.t_max", default=0.1, cast=positive)
    n_t = get_field(cfg, "kernel_check.n_t", default=7, cast=whole(1))
    xs = get_field(cfg, "kernel_check.x_samples", default=[0.25, 0.5, 1.0, 2.0, 4.0],
                   cast=list_of(nonnegative))
    seed = _seed(cfg)
    if not t_max >= t_min:
        raise ConfigError(f"field 'kernel_check.t_max' must be at least t_min, got {t_max}")
    if kernel == "H" and max(xs) > 1.0:
        raise ConfigError(f"field 'kernel_check.x_samples' must lie in [0, 1] for kernel H, "
                          f"got {xs}")
    if kernel == "H" and t_max > 1.0:
        # the image series is truncated for t <= 1 (kernels.DEFAULT_N_IMAGES)
        raise ConfigError(f"field 'kernel_check.t_max' must be at most 1 for kernel H, "
                          f"got {t_max}")
    t_values = np.geomspace(t_min, t_max, n_t)
    report = verify_kernel_bounds(t_values, xs, r=r, kernel_kind=kernel)
    _write_json(_outdir(cfg) / "kernel_report.json", report.to_json_dict(),
                config_hash(cfg), seed)
    return EXIT_OK


def cmd_fit_lob(cfg: dict) -> int:
    source = get_field(cfg, "lob.input", required=True, cast=str)
    fmt = get_field(cfg, "lob.format", default=NORMALIZED, cast=choice(NORMALIZED, LOBSTER))
    n_bins = get_field(cfg, "lob.n_bins", default=16, cast=whole(MIN_BINS))
    agg = get_field(cfg, "lob.agg_interval", default=1.0, cast=positive)
    seed = _seed(cfg)
    touch = None
    touch_file = get_field(cfg, "lob.touch_file", cast=str)
    if touch_file is not None:
        with _input_file("lob.touch_file", touch_file):
            touch = np.loadtxt(touch_file, delimiter=",", ndmin=2)
            if touch.shape[1] != 3:
                raise FormatError("touch series must have rows (time, bid, ask)")
    elif fmt == LOBSTER:
        raise ConfigError(f"field 'lob.touch_file' is required by lob.format {LOBSTER!r}")
    # events without a time span (none, or one) cannot be fitted
    with _input_file("lob.input", source):
        stream = parse_events(source, fmt=fmt, book_reference_prices=touch)
        fit = fit_coefficients(stream, n_bins=n_bins, agg_interval=agg)
    fit.to_csv(_outdir(cfg) / "fit.csv", header_comment=_header(config_hash(cfg), seed))
    return EXIT_OK


def cmd_simulate_price(cfg: dict) -> int:
    grid = grid_from_config(cfg)
    fn = boundary_from_config(cfg)
    seed = _seed(cfg)
    fit_path = get_field(cfg, "price.fit_csv", required=True, cast=str)
    lap_scale = _lap_scale(cfg, default=0.2)
    p0 = _p0(cfg)
    with _input_file("price.fit_csv", fit_path):
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


class _Parser(argparse.ArgumentParser):
    """A usage error is a validation error (exit 1), with argparse's message."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
            cfgmod.set_field(cfg, "noise.seed", args.seed)
        if args.output_dir is not None:
            cfgmod.set_field(cfg, "output.dir", args.output_dir)
        cfgmod.check_fields(cfg)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # numpy refuses an array it cannot allocate at all, such as nt = 10**15
        print(f"config error: the configured sizes do not fit in memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StefansimError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
