"""YAML configuration loading, validation and object construction for the CLI.

The config file is a single document with sections grid, noise, run,
initial, coefficients, boundary, output plus per-subcommand sections;
``FIELDS`` is the full schema (README states each field's domain), and a
key outside it is refused.  Command-line overrides are dotted paths like
``run.lap_scale=0.2`` and win over file values.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np
import yaml

from .boundary import (EXP_IMBALANCE, STEFAN_FD, TABLE, ZERO, BoundaryFunctional,
                       exp_imbalance, stefan_fd, table_boundary, zero_boundary)
from .errors import ConfigError
from .grids import COMPACT, HALFLINE, MIN_NT, MIN_NX, GridSpec, build_grid
from .spde import ModelCoefficients, constant_coefficients, tabulated_coefficients


def load_yaml(path) -> dict:
    try:
        with open(path, "r") as fh:
            cfg = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"config parse error{where}: {exc}") from exc
    if cfg is None:
        cfg = {}
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return cfg


def apply_overrides(cfg: dict, assignments) -> dict:
    """Apply dotted-path overrides, parsing values as YAML scalars."""
    for item in assignments or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        path, raw = item.split("=", 1)
        keys = [k for k in path.strip().split(".") if k]
        if not keys:
            raise ConfigError(f"override {item!r} has an empty field path")
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse override value {raw!r}: {exc}") from exc
        set_field(cfg, ".".join(keys), value)
    return cfg


def set_field(cfg: dict, path: str, value) -> None:
    """Set the dotted field ``path``; a missing or empty (null) section is made a mapping."""
    *sections, leaf = path.split(".")
    node = cfg
    for key in sections:
        if node.get(key) is None:
            node[key] = {}
        node = node[key]
        if not isinstance(node, dict):
            raise ConfigError(f"override path {path!r} crosses a non-mapping")
    node[leaf] = value


#: every dotted field some subcommand reads: the one schema of all of them
#: (README "Config schema"); ``check_fields`` refuses any other key
FIELDS = frozenset(f"{section}.{key}" for section, keys in (
    ("grid", "domain nx nt T L weight_r"),
    ("noise", "seed"),
    ("initial", "kind amplitude"),
    ("coefficients", "kind f sigma decay x_centers f_values sigma_values r delta growth_R"),
    ("boundary", "kind alpha lambda clamp table_imbalance table_speed"),
    ("run", "M M_max lap_scale stride p0"),
    ("obstacle", "kind amplitude ramp level method epsilon"),
    ("picard", "M n_iters"),
    ("holder", "n_paths q lag_min lag_max"),
    ("kernel_check", "kernel r t_min t_max n_t x_samples"),
    ("lob", "input format n_bins agg_interval touch_file"),
    ("price", "fit_csv"),
    ("output", "dir"),
) for key in keys.split())


def check_fields(cfg: dict, prefix: str = "") -> None:
    """Refuse a key whose dotted path is not in FIELDS; an empty (null) section passes."""
    for key, value in cfg.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            check_fields(value, f"{path}.")
        elif path not in FIELDS and not (
                value is None and any(f.startswith(f"{path}.") for f in FIELDS)):
            raise ConfigError(f"unknown field {path!r}")


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def get_field(cfg: dict, path: str, default=None, required: bool = False, *, cast):
    """Fetch a dotted field read by ``cast``; ConfigError names the missing/invalid field.

    A field set to null (YAML ``nx:`` with nothing after it) counts as missing.
    """
    node = cfg
    for key in path.split("."):
        node = node.get(key) if isinstance(node, dict) else None
    if node is None:
        if required:
            raise ConfigError(f"missing required field {path!r}")
        return default
    try:
        return cast(node)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field {path!r} has invalid value {node!r}: {exc}") from None


# Validating casts: each reads a value into its field's domain or raises
# ValueError saying why not.

def _number(test, reason: str, inf: bool = False):
    """A float passing ``test``; never NaN, and inf (YAML ``.inf``) only when ``inf``."""
    def cast(value) -> float:
        x = np.inf if inf and value == ".inf" else float(value)
        if not (test(x) and (inf or math.isfinite(x))):
            raise ValueError(reason)
        return x
    return cast


finite = _number(lambda x: True, "must be a finite number")
positive = _number(lambda x: x > 0, "must be a finite number > 0")
nonnegative = _number(lambda x: x >= 0, "must be a finite number >= 0")
nonpositive = _number(lambda x: x <= 0, "must be a finite number <= 0")
positive_or_inf = _number(lambda x: x > 0, "must be a number > 0 or inf", inf=True)


def whole(lo, hi=math.inf):
    """A whole number in [lo, hi): ``64.0`` reads as 64, ``2.7`` or ``"3.5"`` is refused."""
    def cast(value) -> int:
        if isinstance(value, float) and not value.is_integer():
            raise ValueError("must be a whole number")
        if int(value) < lo:
            raise ValueError(f"must be at least {lo}")
        if int(value) >= hi:
            raise ValueError(f"must be less than {hi}")
        return int(value)
    return cast


def choice(*values):
    """One of ``values``, returned as declared there."""
    def cast(value):
        if value not in values:
            raise ValueError(f"must be one of {', '.join(map(repr, values))}")
        return values[values.index(value)]
    return cast


def list_of(each):
    """A nonempty list, every entry read by the cast ``each``."""
    def cast(value) -> list:
        if not isinstance(value, list) or not value:
            raise ValueError("must be a nonempty list")
        return [each(x) for x in value]
    return cast


#: a nonempty list of finite numbers, as floats
numbers = list_of(finite)


def grid_from_config(cfg: dict) -> GridSpec:
    domain = get_field(cfg, "grid.domain", default=COMPACT, cast=choice(COMPACT, HALFLINE))
    nx = get_field(cfg, "grid.nx", required=True, cast=whole(MIN_NX))
    nt = get_field(cfg, "grid.nt", required=True, cast=whole(MIN_NT))
    T = get_field(cfg, "grid.T", required=True, cast=positive)
    length = get_field(cfg, "grid.L", default=1.0, cast=positive)
    weight_r = get_field(cfg, "grid.weight_r", default=0.0, cast=finite)
    return build_grid(domain, nx, T, nt, length=length, weight_r=weight_r)


def boundary_from_config(cfg: dict) -> BoundaryFunctional:
    kind = get_field(cfg, "boundary.kind", default=ZERO,
                     cast=choice(ZERO, EXP_IMBALANCE, STEFAN_FD, TABLE))
    clamp = get_field(cfg, "boundary.clamp", cast=nonnegative)
    if kind == ZERO:
        return zero_boundary()
    if kind == STEFAN_FD:
        return stefan_fd(clamp=clamp)
    lam = get_field(cfg, "boundary.lambda", default=100.0, cast=positive)
    if kind == EXP_IMBALANCE:
        return exp_imbalance(alpha=get_field(cfg, "boundary.alpha", default=5.0, cast=finite),
                             lam=lam, clamp=clamp)
    imb = get_field(cfg, "boundary.table_imbalance", required=True, cast=numbers)
    spd = get_field(cfg, "boundary.table_speed", required=True, cast=numbers)
    if len(imb) != len(spd):
        raise ConfigError("fields 'boundary.table_imbalance' and "
                          "'boundary.table_speed' must have one length")
    return table_boundary(imb, spd, lam=lam, clamp=clamp)


def coefficients_from_config(cfg: dict) -> ModelCoefficients:
    kind = get_field(cfg, "coefficients.kind", default="constant",
                     cast=choice("constant", "tables", "exp_decay"))
    meta = {
        "r": get_field(cfg, "coefficients.r", default=0.0, cast=finite),
        "delta": get_field(cfg, "coefficients.delta", default=0.0, cast=finite),
        "growth_R": get_field(cfg, "coefficients.growth_R", cast=nonnegative),
    }
    if kind == "tables":
        xc = get_field(cfg, "coefficients.x_centers", required=True, cast=numbers)
        fv = get_field(cfg, "coefficients.f_values", required=True, cast=numbers)
        sv = get_field(cfg, "coefficients.sigma_values", required=True, cast=numbers)
        if not (len(xc) == len(fv) == len(sv)):
            raise ConfigError("fields 'coefficients.x_centers', 'coefficients.f_values' and "
                              "'coefficients.sigma_values' must have one length")
        return tabulated_coefficients(xc, fv, sv, **meta)
    f0 = get_field(cfg, "coefficients.f", default=0.0, cast=float)
    sigma0 = get_field(cfg, "coefficients.sigma", default=1.0 if kind == "constant" else 0.5,
                       cast=finite)
    coeffs = constant_coefficients(f=f0, sigma=sigma0, **meta)
    if kind == "constant":
        return coeffs
    # exp_decay: sigma(x, u) = sigma0 * exp(-decay * x), f constant
    decay = get_field(cfg, "coefficients.decay", default=1.0, cast=finite)

    def vol(x, u):
        return sigma0 * np.exp(-decay * np.asarray(x, dtype=float))

    return dataclasses.replace(coeffs, sigma1=vol, sigma2=vol)


def initial_from_config(cfg: dict, grid: GridSpec):
    kind = get_field(cfg, "initial.kind", default="zero", cast=choice("zero", "sine"))
    amp = get_field(cfg, "initial.amplitude", default=0.0, cast=nonnegative)
    v = np.zeros(grid.n_nodes)
    if kind == "sine":
        v = amp * np.sin(np.pi * grid.space_nodes() / grid.length)
        v[0] = v[-1] = 0.0
        v = np.maximum(v, 0.0)
    return v, v.copy()
