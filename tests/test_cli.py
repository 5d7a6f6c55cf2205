import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from helpers import synthetic_lob_rows, time_limit
from stefansim.cli import main
from stefansim.errors import FormatError
from stefansim.lob import FitResult

REPO = Path(__file__).resolve().parents[1]


def _write_cfg(tmp_path, payload, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def _base_cfg(tmp_path, **extra):
    cfg = {
        "grid": {"domain": "compact", "nx": 16, "nt": 256, "T": 0.01},
        "noise": {"seed": 5},
        "initial": {"kind": "sine", "amplitude": 0.4},
        "coefficients": {"kind": "constant", "f": 0.0, "sigma": 0.5},
        "boundary": {"kind": "exp_imbalance", "alpha": 5.0, "lambda": 100.0,
                     "clamp": 2.0},
        "run": {"M": "inf", "M_max": "inf", "stride": 64},
        "output": {"dir": str(tmp_path / "out")},
    }
    cfg.update(extra)
    return cfg


def test_simulate_writes_outputs(tmp_path):
    cfg_path = _write_cfg(tmp_path, _base_cfg(tmp_path))
    assert main(["simulate", "-c", cfg_path]) == 0
    out = tmp_path / "out"
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0].startswith("# config_sha256=") and "seed=5" in traj[0]
    assert traj[1] == "step,t,p,p_prime,norm1,norm2"
    assert (out / "profiles.csv").exists()
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["schema"] == 1
    assert summary["blown_up"] is False


def test_seed_override_is_deterministic(tmp_path):
    cfg_path = _write_cfg(tmp_path, _base_cfg(tmp_path))
    out = tmp_path / "out"
    main(["simulate", "-c", cfg_path, "--seed", "7"])
    first = (out / "trajectory.csv").read_bytes()
    main(["simulate", "-c", cfg_path, "--seed", "7"])
    assert (out / "trajectory.csv").read_bytes() == first
    main(["simulate", "-c", cfg_path, "--seed", "8"])
    assert (out / "trajectory.csv").read_bytes() != first


def test_missing_required_field_names_it(tmp_path, capsys):
    cfg = _base_cfg(tmp_path)
    del cfg["grid"]["nx"]
    cfg_path = _write_cfg(tmp_path, cfg)
    assert main(["simulate", "-c", cfg_path]) == 1
    assert "grid.nx" in capsys.readouterr().err


@pytest.mark.parametrize("command, field, value", [
    ("simulate", "grid.nx", "16.9"),
    ("simulate", "grid.nt", "256.5"),
    ("simulate", "noise.seed", "5.5"),
    ("simulate", "run.stride", "64.2"),
    ("holder", "holder.n_paths", "2.7"),
    ("holder", "holder.n_paths", '"3.5"'),
    ("holder", "holder.lag_min", "2.5"),
    ("holder", "holder.lag_max", "32.5"),
    ("picard-check", "picard.n_iters", "4.5"),
    ("kernel-check", "kernel_check.n_t", "3.5"),
    ("fit-lob", "lob.n_bins", "4.5"),
])
def test_fractional_integer_fields_are_config_errors(tmp_path, capsys, command, field, value):
    events = tmp_path / "events.csv"
    events.write_text("time,side,event_type,relative_price,size\n" + "\n".join(
        synthetic_lob_rows([2.0, 1.0, 0.5, 0.25], [0.2, 0.15, 0.1, 0.05], 60.0, 2)) + "\n")
    cfg = _holder_cfg(tmp_path)
    cfg.update(picard={"M": 2.0, "n_iters": 4},
               kernel_check={"t_min": 1e-3, "t_max": 0.05, "n_t": 3},
               lob={"input": str(events), "n_bins": 4})
    cfg_path = _write_cfg(tmp_path, cfg)
    # not truncated to a whole number and run
    assert main([command, "-c", cfg_path, "--set", f"{field}={value}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field in err


@pytest.mark.parametrize("command, field", [
    ("simulate", "boundary.clamp"),
    ("simulate", "boundary.truncation_M"),
    ("simulate", "coefficients.growth_R"),
    ("simulate", "run.M"),
    ("holder", "run.M_max"),
    ("picard-check", "picard.M"),
])
def test_non_numeric_float_fields_are_config_errors(tmp_path, capsys, command, field):
    cfg = _holder_cfg(tmp_path)
    cfg.update(picard={"M": 2.0, "n_iters": 4})
    cfg_path = _write_cfg(tmp_path, cfg)
    assert main([command, "-c", cfg_path, "--set", f"{field}=abc"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field in err


@pytest.mark.parametrize("command, sets, field", [
    ("obstacle", ["obstacle.method=penalized", "obstacle.epsilon=0"], "obstacle.epsilon"),
    ("simulate", ["boundary.kind=exp_imbalance", "boundary.clamp=-1"], "boundary.clamp"),
    ("simulate", ["boundary.kind=table", "boundary.table_imbalance=[0, 1]",
                  "boundary.table_speed=[1]"], "boundary.table_imbalance"),
    ("kernel-check", ["kernel_check.t_min=0"], "kernel_check.t_min"),
    ("kernel-check", ["kernel_check.t_max=-1"], "kernel_check.t_max"),
    ("kernel-check", ["kernel_check.n_t=0"], "kernel_check.n_t"),
    ("fit-lob", ["lob.n_bins=2"], "lob.n_bins"),
    ("fit-lob", ["lob.agg_interval=0"], "lob.agg_interval"),
    ("fit-lob", ["lob.agg_interval=-1"], "lob.agg_interval"),
    ("simulate", ["run.stride=-3"], "run.stride"),
    ("kernel-check", ["kernel_check.x_samples=[]"], "kernel_check.x_samples"),
    ("kernel-check", ["kernel_check.x_samples=[a]"], "kernel_check.x_samples"),
    ("kernel-check", ["kernel_check.x_samples=0.5"], "kernel_check.x_samples"),
    ("simulate", ["run.M=-1"], "run.M"),
    ("simulate", ["run.M=nan"], "run.M"),
    ("holder", ["run.M=0"], "run.M"),
    ("picard-check", ["picard.M=-1"], "picard.M"),
    ("picard-check", ["picard.M=.nan"], "picard.M"),
    ("simulate", ["run.M=1", "boundary.truncation_M=-1"], "boundary.truncation_M"),
    ("simulate-price", ["boundary.truncation_M=.nan"], "boundary.truncation_M"),
    ("kernel-check", ["kernel_check.x_samples=[0.5, -1.0]"], "kernel_check.x_samples"),
    ("kernel-check", ["kernel_check.x_samples=[.nan]"], "kernel_check.x_samples"),
    ("kernel-check", ["kernel_check.x_samples=[.inf]"], "kernel_check.x_samples"),
    # one value outside each field's stated domain
    ("simulate", ["grid.domain=ring"], "grid.domain"),
    ("simulate", ["grid.nx=2"], "grid.nx"),
    ("simulate", ["grid.nt=0"], "grid.nt"),
    ("simulate", ["grid.T=0"], "grid.T"),
    ("simulate", ["grid.domain=halfline", "grid.L=.nan"], "grid.L"),
    ("simulate", ["grid.domain=halfline", "grid.L=2", "grid.weight_r=.inf"], "grid.weight_r"),
    ("simulate", ["initial.kind=cosine"], "initial.kind"),
    ("simulate", ["initial.amplitude=-1"], "initial.amplitude"),
    ("simulate", ["coefficients.kind=spline"], "coefficients.kind"),
    ("simulate", ["coefficients.sigma=.inf"], "coefficients.sigma"),
    ("simulate", ["coefficients.r=.nan"], "coefficients.r"),
    ("simulate", ["coefficients.delta=.inf"], "coefficients.delta"),
    ("simulate", ["coefficients.growth_R=-1"], "coefficients.growth_R"),
    ("simulate", ["coefficients.kind=exp_decay", "coefficients.decay=.nan"],
     "coefficients.decay"),
    ("simulate", ["coefficients.kind=tables", "coefficients.x_centers=1",
                  "coefficients.f_values=[0]", "coefficients.sigma_values=[1]"],
     "coefficients.x_centers"),
    ("simulate", ["coefficients.kind=tables", "coefficients.x_centers=[0]",
                  "coefficients.f_values=[a]", "coefficients.sigma_values=[1]"],
     "coefficients.f_values"),
    ("simulate", ["coefficients.kind=tables", "coefficients.x_centers=[0]",
                  "coefficients.f_values=[0]", "coefficients.sigma_values=[]"],
     "coefficients.sigma_values"),
    ("simulate", ["coefficients.kind=tables", "coefficients.x_centers=[0, 1]",
                  "coefficients.f_values=[0]", "coefficients.sigma_values=[1]"],
     "coefficients.x_centers"),
    ("simulate", ["boundary.kind=wall"], "boundary.kind"),
    ("simulate", ["boundary.kind=exp_imbalance", "boundary.alpha=.inf"], "boundary.alpha"),
    ("simulate", ["boundary.kind=exp_imbalance", "boundary.lambda=0"], "boundary.lambda"),
    ("simulate", ["boundary.kind=table", "boundary.table_imbalance=[a]",
                  "boundary.table_speed=[1]"], "boundary.table_imbalance"),
    ("simulate", ["boundary.kind=table", "boundary.table_imbalance=[0]",
                  "boundary.table_speed=[.nan]"], "boundary.table_speed"),
    ("holder", ["run.M_max=0"], "run.M_max"),
    ("simulate", ["run.lap_scale=-1"], "run.lap_scale"),
    ("simulate", ["run.p0=.nan"], "run.p0"),
    ("obstacle", ["obstacle.kind=box"], "obstacle.kind"),
    ("obstacle", ["obstacle.amplitude=.inf"], "obstacle.amplitude"),
    ("obstacle", ["obstacle.ramp=.nan"], "obstacle.ramp"),
    ("obstacle", ["obstacle.kind=constant", "obstacle.level=0.5"], "obstacle.level"),
    ("obstacle", ["obstacle.method=newton"], "obstacle.method"),
    ("picard-check", ["picard.n_iters=1"], "picard.n_iters"),
    ("holder", ["holder.n_paths=-1"], "holder.n_paths"),
    ("holder", ["holder.n_paths=0"], "holder.n_paths"),
    ("holder", ["holder.lag_min=0"], "holder.lag_min"),
    ("holder", ["holder.lag_max=0"], "holder.lag_max"),
    ("kernel-check", ["kernel_check.kernel=K"], "kernel_check.kernel"),
    ("kernel-check", ["kernel_check.r=.nan"], "kernel_check.r"),
    ("kernel-check", ["kernel_check.t_max=1e-4"], "kernel_check.t_max"),
    ("fit-lob", ['lob.pool_sides="false"'], "lob.pool_sides"),
    ("fit-lob", ["lob.pool_sides=false"], "lob.pool_sides"),
    # a required field set to null is missing
    ("simulate", ["grid.nx=null"], "grid.nx"),
    ("simulate-price", ["price.fit_csv=null"], "price.fit_csv"),
    ("fit-lob", ["lob.input=null"], "lob.input"),
    # read as a path, which names no file
    ("fit-lob", ["lob.touch_file=[1]"], "lob.touch_file"),
    # seeds outside [0, 2**64), which the noise would alias
    ("simulate", ["noise.seed=-1"], "noise.seed"),
    ("simulate", [f"noise.seed={2**64}"], "noise.seed"),
    ("holder", [f"noise.seed={2**64 - 1}"], "noise.seed"),   # path 1's seed is 2**64
    # one key outside the schema per section, an unknown section, and a
    # known field given as a mapping
    ("simulate", ["grid.nx_typo=3"], "grid.nx_typo"),
    ("simulate", ["noise.sed=3"], "noise.sed"),
    ("simulate", ["initial.amp=0.1"], "initial.amp"),
    ("simulate", ["coefficients.sigma1=0.1"], "coefficients.sigma1"),
    ("simulate", ["boundary.lam=10"], "boundary.lam"),
    ("simulate", ["run.m=0.001"], "run.m"),
    ("obstacle", ["obstacle.eps=0.1"], "obstacle.eps"),
    ("picard-check", ["picard.iters=3"], "picard.iters"),
    ("holder", ["holder.workers=2"], "holder.workers"),
    ("kernel-check", ["kernel_check.tmin=0.01"], "kernel_check.tmin"),
    ("fit-lob", ["lob.pool=true"], "lob.pool"),
    ("simulate-price", ["price.table=fit.csv"], "price.table"),
    ("simulate", ["output.directory=out"], "output.directory"),
    ("simulate", ["solver.tol=1"], "solver.tol"),
    ("simulate", ["obstacle.level.value=-1"], "obstacle.level.value"),
    # the compact domain is [0, 1] under the unweighted sup norm
    ("simulate", ["grid.L=4"], "grid.L"),
    ("simulate", ["grid.weight_r=3"], "grid.weight_r"),
])
def test_out_of_range_fields_are_config_errors(tmp_path, capsys, command, sets, field):
    events = tmp_path / "events.csv"
    events.write_text("time,side,event_type,relative_price,size\n" + "\n".join(
        synthetic_lob_rows([2.0, 1.0, 0.5, 0.25], [0.2, 0.15, 0.1, 0.05], 60.0, 2)) + "\n")
    cfg = _holder_cfg(tmp_path)
    cfg.update(kernel_check={"t_min": 1e-3, "t_max": 0.05, "n_t": 3},
               lob={"input": str(events), "n_bins": 4})
    cfg_path = _write_cfg(tmp_path, cfg)
    args = [command, "-c", cfg_path]
    for item in sets:
        args += ["--set", item]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field in err


#: malformed fit tables: a field that is not a number, a row one column
#: short, a header without rows, a value that is not finite, a count that
#: is not a whole number in [0, 2**63), another table's header
_BAD_FIT = {"not_a_number": "x_center,f,sigma,count\r\n0.1,a,0.2,3\r\n",
            "short_row": "x_center,f,sigma,count\r\n0.1,0.2,0.3\r\n",
            "no_rows": "x_center,f,sigma,count\r\n",
            "nan_sigma": "x_center,f,sigma,count\r\n0.25,0.1,0.2,3\r\n0.75,0.1,nan,3\r\n",
            "inf_f": "x_center,f,sigma,count\r\n0.25,-inf,0.2,3\r\n",
            "nan_x_center": "x_center,f,sigma,count\r\nnan,0.1,0.2,3\r\n",
            "fractional_count": "x_center,f,sigma,count\r\n0.25,0.1,0.2,2.5\r\n",
            "negative_count": "x_center,f,sigma,count\r\n0.25,0.1,0.2,-1\r\n",
            "inf_count": "x_center,f,sigma,count\r\n0.25,0.1,0.2,inf\r\n",
            "huge_count": "x_center,f,sigma,count\r\n0.25,0.1,0.2,3\r\n0.75,0.1,0.2,1e20\r\n",
            "wrong_header": "t,p\r\n0,0.5\r\n0.01,0.25\r\n",
            # a table with text fields is refused by its header, not its first word
            "events_table": "time,side,event_type,relative_price,size\n0.1,bid,limit,0.5,10\n"}

_EVENTS_HEADER = "time,side,event_type,relative_price,size\n"

#: bad order-book input: the named file's content (None: no file) and the
#: overrides that use it, in place of setting the named field to the file
_BAD_LOB = {
    "two_columns": ("0.0,1000000\n1.0,1000100\n",
                    ["lob.format=lobster", "lob.touch_file={target}"]),
    "no_touch_file": (None, ["lob.format=lobster"]),
    "unknown_format": (None, ["lob.format=parquet"]),
    "over_threshold": (_EVENTS_HEADER + "0.1,bid,limit,0.5,10\njunk,row\n",
                       ["lob.input={target}"]),
    "decreasing_times": (_EVENTS_HEADER + "1.0,bid,limit,0.5,10\n0.5,bid,limit,0.5,10\n",
                         ["lob.input={target}"]),
    "overlong_field": (_EVENTS_HEADER + '0.1,"' + "b" * 200_000 + '",limit,0.5,10\n',
                       ["lob.input={target}"]),
    # events that span no time: none, or a single one
    "header_only": (_EVENTS_HEADER, ["lob.input={target}"]),
    "one_event": (_EVENTS_HEADER + "0.1,bid,limit,0.5,10\n", ["lob.input={target}"]),
}


@pytest.mark.parametrize("command, field, kind", [
    ("fit-lob", "lob.input", "missing"),
    ("fit-lob", "lob.input", "directory"),
    ("fit-lob", "lob.touch_file", "missing"),
    ("simulate-price", "price.fit_csv", "missing"),
    ("simulate-price", "price.fit_csv", "directory"),
    ("simulate-price", "price.fit_csv", "not_a_number"),
    ("simulate-price", "price.fit_csv", "short_row"),
    ("simulate-price", "price.fit_csv", "no_rows"),
    ("simulate-price", "price.fit_csv", "nan_sigma"),
    ("simulate-price", "price.fit_csv", "inf_f"),
    ("simulate-price", "price.fit_csv", "nan_x_center"),
    ("simulate-price", "price.fit_csv", "fractional_count"),
    ("simulate-price", "price.fit_csv", "negative_count"),
    ("simulate-price", "price.fit_csv", "inf_count"),
    ("simulate-price", "price.fit_csv", "huge_count"),
    ("fit-lob", "lob.touch_file", "two_columns"),
    ("fit-lob", "lob.touch_file", "no_touch_file"),
    ("fit-lob", "lob.format", "unknown_format"),
    ("fit-lob", "lob.input", "over_threshold"),
    ("fit-lob", "lob.input", "decreasing_times"),
    ("fit-lob", "lob.input", "overlong_field"),
    ("fit-lob", "lob.input", "header_only"),
    ("fit-lob", "lob.input", "one_event"),
    ("simulate-price", "price.fit_csv", "wrong_header"),
    ("simulate-price", "price.fit_csv", "events_table"),
])
def test_unreadable_input_files_are_config_errors(tmp_path, capsys, command, field, kind):
    events = tmp_path / "events.csv"
    events.write_text("time,side,event_type,relative_price,size\n" + "\n".join(
        synthetic_lob_rows([2.0, 1.0, 0.5, 0.25], [0.2, 0.15, 0.1, 0.05], 60.0, 2)) + "\n")
    target = tmp_path / "named.csv"
    if kind == "directory":
        target.mkdir()
    elif kind in _BAD_FIT:
        target.write_text(_BAD_FIT[kind])
    content, sets = _BAD_LOB.get(kind, (None, [f"{field}={{target}}"]))
    if content is not None:
        target.write_text(content)
    cfg = _holder_cfg(tmp_path)
    cfg.update(lob={"input": str(events), "n_bins": 4}, price={"fit_csv": str(target)})
    cfg_path = _write_cfg(tmp_path, cfg)
    args = [command, "-c", cfg_path]
    for item in sets:
        args += ["--set", item.format(target=target)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field in err


def test_input_errors_say_cannot_read_only_for_a_file_that_was_not_read(tmp_path, capsys):
    events = tmp_path / "events.csv"
    events.write_text(_EVENTS_HEADER)
    missing = tmp_path / "missing.csv"
    cfg_path = _write_cfg(tmp_path, {"lob": {"input": str(events), "n_bins": 4},
                                     "output": {"dir": str(tmp_path / "out")}})
    assert main(["fit-lob", "-c", cfg_path]) == 1
    assert capsys.readouterr().err == (
        f"config error: field 'lob.input': {str(events)!r} is not valid: "
        "stream horizon must have positive length\n")
    assert main(["fit-lob", "-c", cfg_path, "--set", f"lob.input={missing}"]) == 1
    assert capsys.readouterr().err == (
        f"config error: field 'lob.input': cannot read {str(missing)!r}: "
        "No such file or directory\n")


def test_fit_with_a_bad_row_is_refused_by_row(tmp_path):
    path = tmp_path / "fit.csv"
    path.write_text(_BAD_FIT["nan_sigma"])
    with pytest.raises(FormatError, match=r"^fit table row 2: "):
        FitResult.from_csv(path)


def test_fit_with_another_tables_header_is_refused_by_header(tmp_path):
    path = tmp_path / "fit.csv"
    for kind, header in (("wrong_header", "t,p"),
                         ("events_table", "time,side,event_type,relative_price,size")):
        path.write_text(_BAD_FIT[kind])
        with pytest.raises(FormatError, match=rf"^fit table header is '{header}', "
                                              r"expected 'x_center,f,sigma,count'$"):
            FitResult.from_csv(path)


def test_fit_lob_reads_a_one_row_touch_file(tmp_path):
    # the message file holds the normalized events priced off one touch
    # row, so both formats give the same fit
    rows = synthetic_lob_rows([2.0, 1.0, 0.5, 0.25], [0.2, 0.15, 0.1, 0.05], 60.0, 2)
    events = tmp_path / "events.csv"
    events.write_text(_EVENTS_HEADER + "\n".join(rows) + "\n")
    messages = tmp_path / "messages.csv"
    messages.write_text("".join(
        f"{t},{1 if kind == 'limit' else 2},{k},{size},{1_000_000 - float(x) * 1e4:.0f},1\n"
        for k, (t, _, kind, x, size) in enumerate(row.split(",") for row in rows)))
    touch = tmp_path / "touch.csv"
    touch.write_text("0.0,1000000,1000100\n")
    cfg_path = _write_cfg(tmp_path, {"lob": {"input": str(events), "n_bins": 4},
                                     "output": {"dir": str(tmp_path / "out")}})
    fits = []
    for sets in ([], ["lob.format=lobster", f"lob.input={messages}",
                      f"lob.touch_file={touch}"]):
        args = ["fit-lob", "-c", cfg_path]
        for item in sets:
            args += ["--set", item]
        assert main(args) == 0
        fits.append((tmp_path / "out" / "fit.csv").read_bytes().split(b"\n", 1)[1])
    assert fits[0] == fits[1]


def test_fit_lob_reads_quoted_crlf_events_as_plain(tmp_path):
    # every field quoted and every line CRLF-terminated: the same events
    rows = synthetic_lob_rows([2.0, 1.0, 0.5, 0.25], [0.2, 0.15, 0.1, 0.05], 60.0, 2)
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    plain.write_text(_EVENTS_HEADER + "\n".join(rows) + "\n")
    with open(quoted, "w", newline="") as fh:
        fh.writelines(",".join(f'"{field}"' for field in line.split(",")) + "\r\n"
                      for line in [_EVENTS_HEADER.strip()] + rows)
    fits = []
    for events in (plain, quoted):
        cfg_path = _write_cfg(tmp_path, {"lob": {"input": str(events), "n_bins": 4},
                                         "output": {"dir": str(tmp_path / events.stem)}})
        assert main(["fit-lob", "-c", cfg_path]) == 0
        # the first line is the comment with the config hash, which names the input
        fits.append((tmp_path / events.stem / "fit.csv").read_bytes().split(b"\n", 1)[1])
    assert fits[0] == fits[1]


def test_whole_float_integer_fields_read_as_integers(tmp_path):
    cfg_path = _write_cfg(tmp_path, _base_cfg(tmp_path))
    out = tmp_path / "out"
    assert main(["simulate", "-c", cfg_path]) == 0
    first = [(out / name).read_bytes().split(b"\n", 1)[1]
             for name in ("trajectory.csv", "profiles.csv")]
    assert main(["simulate", "-c", cfg_path, "--set", "grid.nx=16.0", "--set", "grid.nt=256.0",
                 "--set", "noise.seed=5.0", "--set", "run.stride=64.0"]) == 0
    assert first == [(out / name).read_bytes().split(b"\n", 1)[1]
                     for name in ("trajectory.csv", "profiles.csv")]


def test_cfl_violation_is_config_error(tmp_path):
    cfg = _base_cfg(tmp_path)
    cfg["grid"]["nt"] = 4
    cfg_path = _write_cfg(tmp_path, cfg)
    assert main(["simulate", "-c", cfg_path]) == 1


def test_blowup_reported_as_success(tmp_path):
    cfg = _base_cfg(tmp_path)
    cfg["coefficients"] = {"kind": "constant", "f": 500.0, "sigma": 0.0}
    cfg["run"] = {"M": 3.0, "M_max": 3.0}
    cfg_path = _write_cfg(tmp_path, cfg)
    assert main(["simulate", "-c", cfg_path]) == 0
    summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
    assert summary["blown_up"] is True
    assert summary["tau_estimate"] is not None
    assert summary["blowup_cause"] == "threshold"


def test_non_finite_blowup_reported_with_cause(tmp_path):
    cfg = _base_cfg(tmp_path)
    cfg["coefficients"] = {"kind": "constant", "f": float("inf"), "sigma": 0.5}
    cfg_path = _write_cfg(tmp_path, cfg)
    # the discarded step's inf and nan raise no numpy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "-c", cfg_path]) == 0
    assert [str(w.message) for w in caught] == []
    out = tmp_path / "out"
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["blown_up"] is True
    assert summary["blowup_cause"] == "non_finite"
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", comments="#",
                      skiprows=2, ndmin=2)
    assert np.isfinite(rows).all()


def test_overflowing_u_free_volatility_is_a_blowup_without_a_warning(tmp_path):
    # sigma0 * exp(1e308 x) is inf off x = 0; evaluated once per run, it stops the run at once
    cfg_path = _write_cfg(tmp_path, _base_cfg(tmp_path))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "-c", cfg_path, "--set", "coefficients.kind=exp_decay",
                     "--set", "coefficients.decay=-1e308"]) == 0
    assert [str(w.message) for w in caught] == []
    summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
    assert summary["blowup_cause"] == "non_finite" and summary["steps"] == 0


@pytest.mark.parametrize("command", ["simulate", "holder", "picard-check"])
def test_non_finite_initial_speed_is_config_error(tmp_path, capsys, command):
    # lambda^2 overflows in h's weights, so the speed of the initial pair is nan
    cfg = _base_cfg(tmp_path, picard={"M": 2.0, "n_iters": 2},
                    holder={"n_paths": 2, "lag_min": 2, "lag_max": 16})
    cfg_path = _write_cfg(tmp_path, cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "-c", cfg_path, "--set", "boundary.lambda=1e200"]) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "boundary speed" in err


def test_picard_overflow_is_a_numerical_failure(tmp_path, capsys):
    # the first iterate overflows; nothing is warned about or written
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["picard-check", "-c", str(REPO / "configs" / "picard.yaml"),
                     "--output-dir", str(tmp_path / "out"), "--set", "picard.M=inf",
                     "--set", "coefficients.f=1e308", "--set", "coefficients.sigma=1e308"])
    assert code == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: iterate 1 of 12 is not finite")
    assert not (tmp_path / "out" / "picard_report.json").exists()


@pytest.mark.parametrize("method", ["projected", "penalized"])
def test_an_obstacle_overflow_that_keeps_every_value_finite_warns_nothing(tmp_path, method):
    # the stencil overflows only on Dirichlet nodes, which are zeroed, and a
    # squared deficit that overflows saturates the arctan as a finite one would
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["obstacle", "-c", str(REPO / "configs" / "obstacle.yaml"),
                     "--output-dir", str(tmp_path), "--set", "grid.nt=512",
                     "--set", "obstacle.amplitude=1e308", "--set", f"obstacle.method={method}"])
    assert code == 0
    assert [str(w.message) for w in caught] == []
    rows = np.loadtxt(tmp_path / "obstacle.csv", delimiter=",", comments="#", skiprows=2)
    assert np.isfinite(rows).all()


def test_an_obstacle_solution_that_is_not_finite_is_a_numerical_failure(tmp_path, capsys):
    # 1 / epsilon overflows, so the first penalty is inf * arctan(0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["obstacle", "-c", str(REPO / "configs" / "obstacle.yaml"),
                     "--output-dir", str(tmp_path), "--set", "grid.nt=512",
                     "--set", "obstacle.method=penalized", "--set", "obstacle.epsilon=1e-320"])
    assert code == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ("numerical failure: the obstacle solution is not finite "
                                       "at step 0 of 512\n")
    assert not (tmp_path / "obstacle.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "obstacle", "picard-check", "holder"])
def test_a_grid_no_array_can_hold_is_a_config_error(tmp_path, capsys, command):
    # nt = 10**15 asks for petabytes, which numpy refuses at once; never
    # test with a size the operating system might hand out lazily
    cfg = _base_cfg(tmp_path, picard={"M": 2.0, "n_iters": 2},
                    holder={"n_paths": 2, "lag_min": 2, "lag_max": 16})
    assert main([command, "-c", _write_cfg(tmp_path, cfg),
                 "--set", "grid.nt=1000000000000000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: the configured sizes do not fit in memory: "
                          "Unable to allocate ")
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_a_path_count_no_array_can_hold_is_a_config_error(tmp_path, capsys):
    # 10**15 paths: refused by the batch's first array, before any path's
    # noise streams are built, which would grow memory path by path
    cfg = _base_cfg(tmp_path, holder={"n_paths": 2, "lag_min": 2, "lag_max": 16})
    with time_limit(60):
        code = main(["holder", "-c", _write_cfg(tmp_path, cfg),
                     "--set", "holder.n_paths=1000000000000000"])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "config error: the configured sizes do not fit in memory: Unable to allocate ")
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_a_kernel_weight_that_overflows_is_a_numerical_failure_without_a_warning(tmp_path,
                                                                                 capsys):
    for r in ("1e308", "-1e308"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["kernel-check", "-c", str(REPO / "configs" / "kernel_check.yaml"),
                         "--output-dir", str(tmp_path), "--set", f"kernel_check.r={r}"])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ("numerical failure: the trapezoid sums are not "
                                           "finite: nan\n")
        assert not (tmp_path / "kernel_report.json").exists()


def test_a_kernel_weight_beyond_the_gaussian_tail_gives_a_finite_report(tmp_path):
    # at r = 30 the weight exp(-r (x - y)) alone overflows where the Gaussian
    # alone underflows; their product is finite, and the integral grows like
    # exp(r^2 t), so the estimate is finite and not bounded
    assert main(["kernel-check", "-c", str(REPO / "configs" / "kernel_check.yaml"),
                 "--output-dir", str(tmp_path), "--set", "kernel_check.r=30"]) == 0
    report = json.loads((tmp_path / "kernel_report.json").read_text())
    assert math.isfinite(report["scaled_sup"]) and report["bounded"] is False


def test_a_kernel_integral_that_overflows_is_a_numerical_failure(tmp_path, capsys):
    # at r = 100 and t_max = 0.1 the integral itself is about exp(r^2 t) = e^1000
    assert main(["kernel-check", "-c", str(REPO / "configs" / "kernel_check.yaml"),
                 "--output-dir", str(tmp_path), "--set", "kernel_check.r=100"]) == 2
    assert capsys.readouterr().err.startswith("numerical failure: the trapezoid sums are not "
                                              "finite")
    assert not (tmp_path / "kernel_report.json").exists()


def test_tabulated_coefficients_run_the_same_in_any_order(tmp_path):
    # a table listed right to left is the same table
    table = {"x_centers": [0.0, 0.5, 1.0], "f_values": [0.0, 20.0, 40.0],
             "sigma_values": [0.5, 0.2, 0.1]}
    runs = []
    for step in (1, -1):
        cfg = _base_cfg(tmp_path, coefficients={
            "kind": "tables", **{key: values[::step] for key, values in table.items()}})
        assert main(["simulate", "-c", _write_cfg(tmp_path, cfg)]) == 0
        runs.append((tmp_path / "out" / "trajectory.csv").read_bytes().split(b"\n", 1)[1])
    assert runs[0] == runs[1]


#: the first computation of each subcommand, which a bad seed must not reach
_COMPUTATION = {"simulate": "run_relative_frame", "obstacle": "solve_projected",
                "picard-check": "sample_white_noise", "holder": "run_forked",
                "kernel-check": "verify_kernel_bounds", "fit-lob": "parse_events",
                "simulate-price": "simulate_price"}


@pytest.mark.parametrize("command", sorted(_COMPUTATION))
def test_bad_seed_is_reported_before_any_computation(tmp_path, capsys, monkeypatch, command):
    def unreachable(*args, **kwargs):
        raise AssertionError(f"{command} computed before it read noise.seed")

    monkeypatch.setattr(f"stefansim.cli.{_COMPUTATION[command]}", unreachable)
    fit = tmp_path / "fit.csv"
    FitResult(x_centers=np.array([0.25, 0.75]), f=np.zeros(2), sigma=np.full(2, 0.1),
              counts=np.ones(2, dtype=int)).to_csv(fit)
    cfg = _base_cfg(tmp_path, picard={"M": 2.0, "n_iters": 2}, holder={"n_paths": 2},
                    lob={"input": str(tmp_path / "events.csv"), "n_bins": 4},
                    price={"fit_csv": str(fit)})
    assert main([command, "-c", _write_cfg(tmp_path, cfg), "--set", "noise.seed=2.5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "noise.seed" in err


def test_summary_of_a_completed_run_has_no_blowup_cause(tmp_path):
    cfg_path = _write_cfg(tmp_path, _base_cfg(tmp_path))
    assert main(["simulate", "-c", cfg_path]) == 0
    summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
    assert summary["blown_up"] is False and "blowup_cause" not in summary


def test_an_empty_section_is_accepted(tmp_path):
    text = yaml.safe_dump(_base_cfg(tmp_path)).replace("noise:\n  seed: 5\n", "noise:\n")
    assert "seed" not in text                    # YAML reads the section as null
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(text)
    for extra in ([], ["--seed", "3"], ["--set", "noise.seed=3"]):
        assert main(["simulate", "-c", str(cfg_path), *extra]) == 0, extra


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seeds_at_the_ends_of_their_domain_run(tmp_path, seed):
    cfg_path = _write_cfg(tmp_path, _base_cfg(tmp_path))
    assert main(["simulate", "-c", cfg_path, "--set", f"noise.seed={seed}"]) == 0
    assert f"seed={seed}" in (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[0]


@pytest.mark.parametrize("args, code", [
    (["simulate"], 1),                                       # no config file
    (["simulate", "-c", "cfg.yaml", "--seed", "2.5"], 1),
    (["simulate", "--help"], 0),
])
def test_usage_errors_are_config_errors(capsys, args, code):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == code
    assert ("error: " in capsys.readouterr().err) == (code == 1)


def test_set_override(tmp_path):
    cfg_path = _write_cfg(tmp_path, _base_cfg(tmp_path))
    assert main(["simulate", "-c", cfg_path, "--set", "run.stride=0"]) == 0
    assert not (tmp_path / "out" / "profiles.csv").exists()


def test_obstacle_subcommand(tmp_path):
    cfg = {
        "grid": {"domain": "compact", "nx": 16, "nt": 256, "T": 0.01},
        "obstacle": {"kind": "sine", "amplitude": 2.0, "ramp": 0.005,
                     "method": "projected"},
        "output": {"dir": str(tmp_path / "out")},
    }
    cfg_path = _write_cfg(tmp_path, cfg)
    assert main(["obstacle", "-c", cfg_path]) == 0
    lines = (tmp_path / "out" / "obstacle.csv").read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    assert lines[1] == "t,x,z,v,eta_cell"


def test_picard_check_subcommand(tmp_path):
    cfg = _base_cfg(tmp_path)
    cfg["picard"] = {"M": 2.0, "n_iters": 4}
    cfg_path = _write_cfg(tmp_path, cfg)
    assert main(["picard-check", "-c", cfg_path]) == 0
    report = json.loads((tmp_path / "out" / "picard_report.json").read_text())
    assert report["schema"] == 1
    assert len(report["d"]) == 4
    assert report["iters"] == len(report["d"])
    assert report["final_gap_vs_direct"] is not None


def _holder_cfg(tmp_path, **holder):
    cfg = _base_cfg(tmp_path)
    cfg["grid"] = {"domain": "compact", "nx": 16, "nt": 4096, "T": 0.1}
    cfg["boundary"] = {"kind": "zero"}
    cfg["run"] = {}
    cfg["holder"] = {"n_paths": 2, "q": 2, "lag_min": 2, "lag_max": 32, **holder}
    return cfg


def test_holder_subcommand(tmp_path):
    cfg_path = _write_cfg(tmp_path, _holder_cfg(tmp_path))
    assert main(["holder", "-c", cfg_path]) == 0
    report = json.loads((tmp_path / "out" / "holder.json").read_text())
    axes = [row["axis"] for row in report["estimates"]]
    assert axes == ["time", "space", "boundary_derivative"]
    assert all(row["n_paths"] == 2 for row in report["estimates"])


@pytest.mark.parametrize("sets, field", [
    # lag 4096 outside the 1641-row window of a 2049-row path
    (["grid.nt=2048", "grid.nx=16", "holder.lag_max=4096"], "holder.lag_max"),
    # space lags 1-8 on 5 nodes
    (["grid.nx=4"], "grid.nx"),
])
def test_holder_refuses_lags_no_path_can_fit_before_stepping(tmp_path, capsys, monkeypatch,
                                                            sets, field):
    def stepped(*args, **kwargs):
        raise AssertionError("the paths were stepped")
    monkeypatch.setattr("stefansim.cli.run_forked", stepped)
    args = ["holder", "-c", _write_cfg(tmp_path, _holder_cfg(tmp_path))]
    for item in sets:
        args += ["--set", item]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field in err


def test_holder_names_every_blowup_when_no_path_fits_its_lags(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, _holder_cfg(tmp_path))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["holder", "-c", cfg_path, "--set", "coefficients.sigma=1e308"]) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: every path blew up before its lags fit: "
                          "path 0 (seed 5) at step 1 (non_finite), "
                          "path 1 (seed 6) at step 1 (non_finite); lag 2 outside series")
    assert not (tmp_path / "out" / "holder.json").exists()


def test_holder_worker_fanout_deterministic(tmp_path):
    # two runs of one config write the same holder.json
    cfg_path = _write_cfg(tmp_path, _holder_cfg(tmp_path, n_paths=3))
    assert main(["holder", "-c", cfg_path]) == 0
    first = (tmp_path / "out" / "holder.json").read_text()
    assert main(["holder", "-c", cfg_path]) == 0
    assert (tmp_path / "out" / "holder.json").read_text() == first


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_holder_degenerate_estimates_are_valid_json(tmp_path):
    cfg = _holder_cfg(tmp_path)
    del cfg["initial"]                     # zero profiles, so every increment is 0
    cfg_path = _write_cfg(tmp_path, cfg)
    assert main(["holder", "-c", cfg_path, "--set", "coefficients.sigma=0"]) == 0
    text = (tmp_path / "out" / "holder.json").read_text()
    rows = json.loads(text, parse_constant=_reject_constant)["estimates"]
    assert [row["axis"] for row in rows] == ["time", "space", "boundary_derivative"]
    for row in rows:
        assert row["exponent"] is None and row["stderr"] is None
        assert row["degenerate"] is True


@pytest.mark.parametrize("holder, field", [
    ({"q": 3}, "holder.q"),
    ({"q": 1.9}, "holder.q"),                               # not truncated to 1
    ({"lag_min": 16, "lag_max": 64}, "holder.lag_min"),     # 3 dyadic lags
])
def test_holder_bad_settings_are_config_errors(tmp_path, capsys, holder, field):
    cfg_path = _write_cfg(tmp_path, _holder_cfg(tmp_path, **holder))
    assert main(["holder", "-c", cfg_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field in err


def test_holder_keeps_no_profiles(tmp_path, monkeypatch):
    # storing every step's side-1 profile of both paths would take
    # 2 x 8193 x 129 x 8 B = 16.9 MB; the structure sums take a fraction
    cfg = _holder_cfg(tmp_path, lag_min=16, lag_max=128)
    cfg["grid"] = {"domain": "compact", "nx": 128, "nt": 8192, "T": 0.125}
    cfg_path = _write_cfg(tmp_path, cfg)
    snapshot_bytes = 2 * (8192 + 1) * 129 * 8
    # one worker: tracemalloc sees only this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    tracemalloc.start()
    try:
        assert main(["holder", "-c", cfg_path]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < snapshot_bytes / 2


def test_kernel_check_subcommand(tmp_path):
    cfg = {
        "kernel_check": {"kernel": "G", "r": 0.0, "t_min": 1e-3, "t_max": 0.05,
                         "n_t": 3, "x_samples": [0.5, 1.0, 2.0]},
        "output": {"dir": str(tmp_path / "out")},
    }
    cfg_path = _write_cfg(tmp_path, cfg)
    assert main(["kernel-check", "-c", cfg_path]) == 0
    report = json.loads((tmp_path / "out" / "kernel_report.json").read_text())
    assert report["bounded"] is True
    assert report["scaled_sup"] == pytest.approx(1 / np.sqrt(np.pi), rel=0.1)


def _kernel_check_H(tmp_path, *sets):
    return main(["kernel-check", "-c", str(REPO / "configs" / "kernel_check.yaml"),
                 "--set", "kernel_check.kernel=H", "--set", f"output.dir={tmp_path}",
                 *[arg for value in sets for arg in ("--set", value)]])


def test_kernel_check_H_rejects_samples_outside_its_domain(tmp_path, capsys):
    # the bundled samples reach x = 4, outside H's domain [0, 1]
    assert _kernel_check_H(tmp_path) == 1
    assert capsys.readouterr().err.startswith("config error: field 'kernel_check.x_samples'")


def test_kernel_check_H_rejects_times_beyond_its_image_series(tmp_path, capsys):
    # the truncated image series is valid for t <= 1; at t = 10 it is off by 2.6e-5
    assert _kernel_check_H(tmp_path, "kernel_check.t_min=1", "kernel_check.t_max=100",
                           "kernel_check.x_samples=[0.25,0.5,0.75]") == 1
    assert capsys.readouterr().err.startswith("config error: field 'kernel_check.t_max'")


def test_kernel_check_H_reads_zero_at_the_dirichlet_ends(tmp_path):
    # K(t, x, .) vanishes at x = 0 and x = 1, so the ends add nothing to the sup
    sups = []
    for samples in ("[0.0, 0.5, 1.0]", "[0.5]"):
        assert _kernel_check_H(tmp_path, f"kernel_check.x_samples={samples}") == 0
        sups.append(json.loads((tmp_path / "kernel_report.json").read_text())["sup_value"])
    assert sups[0] == sups[1]


def test_kernel_check_H_settles_just_inside_the_dirichlet_ends(tmp_path):
    # there the integrand is rounding noise; it once failed to converge
    sups = []
    for samples in ("[1e-12, 0.5, 0.999999999999]", "[0.5]"):
        assert _kernel_check_H(tmp_path, f"kernel_check.x_samples={samples}") == 0
        sups.append(json.loads((tmp_path / "kernel_report.json").read_text())["sup_value"])
    assert sups[0] == sups[1]


def test_fit_lob_and_simulate_price(tmp_path):
    rows = synthetic_lob_rows([2.0, 1.0, 0.5, 0.25], [0.2, 0.15, 0.1, 0.05],
                              horizon=120.0, seed=2)
    events = tmp_path / "events.csv"
    events.write_text("time,side,event_type,relative_price,size\n"
                      + "\n".join(rows) + "\n")
    out = tmp_path / "out"
    cfg = {
        "lob": {"input": str(events), "format": "normalized", "n_bins": 4,
                "agg_interval": 1.0},
        "grid": {"domain": "compact", "nx": 16, "nt": 256, "T": 0.01},
        "noise": {"seed": 3},
        "boundary": {"kind": "exp_imbalance", "alpha": 5.0, "lambda": 100.0},
        "run": {"lap_scale": 0.2},
        "price": {"fit_csv": str(out / "fit.csv")},
        "output": {"dir": str(out)},
    }
    cfg_path = _write_cfg(tmp_path, cfg)
    assert main(["fit-lob", "-c", cfg_path]) == 0
    fit_lines = (out / "fit.csv").read_text().splitlines()
    assert fit_lines[1] == "x_center,f,sigma,count"
    assert main(["simulate-price", "-c", cfg_path]) == 0
    price_lines = (out / "price.csv").read_text().splitlines()
    assert price_lines[1] == "t,p"
    assert len(price_lines) == 2 + 256 + 1


def test_bundled_default_config_smoke(tmp_path):
    cfg = yaml.safe_load((REPO / "configs" / "simulate.yaml").read_text())
    cfg["grid"]["nt"] = 1024
    cfg["grid"]["T"] = 0.025
    cfg["output"]["dir"] = str(tmp_path / "out")
    cfg_path = _write_cfg(tmp_path, cfg)
    assert main(["simulate", "-c", cfg_path]) == 0
    summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
    assert summary["blown_up"] is False


def test_unparseable_yaml_reports_location(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("grid: {nx: 16\n  nt: 4}\n")
    assert main(["simulate", "-c", str(path)]) == 1
    assert "line" in capsys.readouterr().err


def test_outputs_are_byte_identical_across_processes(tmp_path):
    # string hashing is salted per process; no output may depend on it
    runs = [("simulate", "simulate.yaml", ["grid.nx=16", "grid.nt=256", "grid.T=0.05",
                                           "run.stride=64"]),
            ("picard-check", "picard.yaml", ["grid.nt=512", "picard.n_iters=4"])]
    outputs = []
    for hash_seed in ("1", "2"):
        cwd = tmp_path / f"hashseed{hash_seed}"
        cwd.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([str(REPO / "src"),
                                               os.environ.get("PYTHONPATH", "")]))
        for command, config, sets in runs:
            args = [sys.executable, "-m", "stefansim.cli", command,
                    "-c", str(REPO / "configs" / config)]
            for item in sets:
                args += ["--set", item]
            subprocess.run(args, cwd=cwd, env=env, check=True)
        # the configs write to the relative directory "out"
        outputs.append({path.name: path.read_bytes()
                        for path in sorted((cwd / "out").iterdir())})
    assert sorted(outputs[0]) == ["picard_report.json", "profiles.csv",
                                  "run_summary.json", "trajectory.csv"]
    assert outputs[0] == outputs[1]
