"""YAML configuration loading, validation and object construction for the CLI.

The config file is a single document with sections grid, noise, run,
initial, coefficients, boundary, output plus per-subcommand sections;
see README for the full schema.  Command-line overrides are dotted
paths like ``run.lap_scale=0.2`` and win over file values.
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
        node = cfg
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {path!r} crosses a non-mapping")
        node[keys[-1]] = value
    return cfg


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def get_field(cfg: dict, path: str, default=None, required: bool = False,
              cast=None):
    """Fetch a dotted field read by ``cast``; ConfigError names the missing/invalid field."""
    node = cfg
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            if required:
                raise ConfigError(f"missing required field {path!r}")
            return default
        node = node[key]
    if node is None:
        return default
    if cast is None:
        return node
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


def whole(lo=-math.inf):
    """A whole number >= lo: ``64.0`` reads as 64, ``2.7`` or ``"3.5"`` is refused."""
    def cast(value) -> int:
        if isinstance(value, float) and not value.is_integer():
            raise ValueError("must be a whole number")
        if int(value) < lo:
            raise ValueError(f"must be at least {lo}")
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


def truncation_from_config(cfg: dict, path: str | None, default: float = np.inf) -> float:
    """The truncation level M a subcommand runs with: field ``path``, or inf when None.

    ``boundary.truncation_M``, when set, must equal it.
    """
    M = np.inf if path is None else get_field(cfg, path, default=default, cast=positive_or_inf)
    trunc = get_field(cfg, "boundary.truncation_M", cast=positive_or_inf)
    if trunc is not None and trunc != M:
        raise ConfigError(f"field 'boundary.truncation_M' is {trunc}, "
                          f"but the run's truncation M is {M}")
    return M


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
