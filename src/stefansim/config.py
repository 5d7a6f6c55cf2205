"""YAML configuration loading, validation and object construction for the CLI.

The config file is a single document with sections grid, noise, run,
initial, coefficients, boundary, output plus per-subcommand sections;
see README for the full schema.  Command-line overrides are dotted
paths like ``run.lap_scale=0.2`` and win over file values.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np
import yaml

from .boundary import (BoundaryFunctional, exp_imbalance, stefan_fd,
                       table_boundary, zero_boundary)
from .errors import ConfigError
from .grids import COMPACT, HALFLINE, GridSpec, build_grid
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
    """Fetch a dotted field; ConfigError names the missing/invalid field."""
    node = cfg
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            if required:
                raise ConfigError(f"missing required field {path!r}")
            return default
        node = node[key]
    if node is None:
        return default
    if cast is not None:
        try:
            return cast(node)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"field {path!r} has invalid value {node!r}") from exc
    return node


def float_or_inf(value):
    if isinstance(value, str) and value.strip().lower() in ("inf", "infinity", ".inf"):
        return np.inf
    return float(value)


def grid_from_config(cfg: dict) -> GridSpec:
    domain = get_field(cfg, "grid.domain", default=COMPACT, cast=str)
    if domain not in (COMPACT, HALFLINE):
        raise ConfigError(f"field 'grid.domain' must be 'compact' or 'halfline', got {domain!r}")
    nx = get_field(cfg, "grid.nx", required=True, cast=int)
    nt = get_field(cfg, "grid.nt", required=True, cast=int)
    T = get_field(cfg, "grid.T", required=True, cast=float)
    length = get_field(cfg, "grid.L", default=1.0, cast=float)
    weight_r = get_field(cfg, "grid.weight_r", default=0.0, cast=float)
    return build_grid(domain, nx, T, nt, length=length, weight_r=weight_r)


def boundary_from_config(cfg: dict) -> BoundaryFunctional:
    kind = get_field(cfg, "boundary.kind", default="zero", cast=str)
    clamp = get_field(cfg, "boundary.clamp", default=None)
    clamp = None if clamp is None else float(clamp)
    trunc = get_field(cfg, "boundary.truncation_M", default=None)
    trunc = None if trunc is None else float_or_inf(trunc)
    if kind == "zero":
        return zero_boundary()
    if kind == "exp_imbalance":
        return exp_imbalance(alpha=get_field(cfg, "boundary.alpha", default=5.0, cast=float),
                             lam=get_field(cfg, "boundary.lambda", default=100.0, cast=float),
                             clamp=clamp, truncation_M=trunc)
    if kind == "stefan_fd":
        return stefan_fd(clamp=clamp, truncation_M=trunc)
    if kind == "table":
        imb = get_field(cfg, "boundary.table_imbalance", required=True)
        spd = get_field(cfg, "boundary.table_speed", required=True)
        return table_boundary(imb, spd,
                              lam=get_field(cfg, "boundary.lambda", default=100.0, cast=float),
                              clamp=clamp, truncation_M=trunc)
    raise ConfigError(f"field 'boundary.kind' has unknown value {kind!r}")


def coefficients_from_config(cfg: dict) -> ModelCoefficients:
    kind = get_field(cfg, "coefficients.kind", default="constant", cast=str)
    meta = {
        "r": get_field(cfg, "coefficients.r", default=0.0, cast=float),
        "delta": get_field(cfg, "coefficients.delta", default=0.0, cast=float),
    }
    growth_R = get_field(cfg, "coefficients.growth_R", default=None)
    if growth_R is not None:
        meta["growth_R"] = float(growth_R)
    if kind == "constant":
        return constant_coefficients(f=get_field(cfg, "coefficients.f", default=0.0, cast=float),
                                     sigma=get_field(cfg, "coefficients.sigma", default=1.0, cast=float),
                                     **meta)
    if kind == "tables":
        xc = get_field(cfg, "coefficients.x_centers", required=True)
        fv = get_field(cfg, "coefficients.f_values", required=True)
        sv = get_field(cfg, "coefficients.sigma_values", required=True)
        if not (len(xc) == len(fv) == len(sv)):
            raise ConfigError("coefficient tables must share one length")
        return tabulated_coefficients(xc, fv, sv, **meta)
    if kind == "exp_decay":
        # sigma(x, u) = sigma0 * exp(-decay * x), f constant
        sigma0 = get_field(cfg, "coefficients.sigma", default=0.5, cast=float)
        decay = get_field(cfg, "coefficients.decay", default=1.0, cast=float)
        f0 = get_field(cfg, "coefficients.f", default=0.0, cast=float)

        def drift(x, u):
            return np.full_like(np.asarray(x, dtype=float), f0)

        def vol(x, u):
            return sigma0 * np.exp(-decay * np.asarray(x, dtype=float))

        return ModelCoefficients(f1=drift, f2=drift, sigma1=vol, sigma2=vol, **meta)
    raise ConfigError(f"field 'coefficients.kind' has unknown value {kind!r}")


def initial_from_config(cfg: dict, grid: GridSpec):
    kind = get_field(cfg, "initial.kind", default="zero", cast=str)
    amp = get_field(cfg, "initial.amplitude", default=0.0, cast=float)
    x = grid.space_nodes()
    if kind == "zero":
        v = np.zeros(grid.n_nodes)
    elif kind == "sine":
        v = amp * np.sin(np.pi * x / grid.length)
        v[0] = v[-1] = 0.0
        v = np.maximum(v, 0.0)
    else:
        raise ConfigError(f"field 'initial.kind' has unknown value {kind!r}")
    return v, v.copy()
