import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from helpers import synthetic_lob_rows
from stefansim.cli import main

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


def test_summary_of_a_completed_run_has_no_blowup_cause(tmp_path):
    cfg_path = _write_cfg(tmp_path, _base_cfg(tmp_path))
    assert main(["simulate", "-c", cfg_path]) == 0
    summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
    assert summary["blown_up"] is False and "blowup_cause" not in summary


@pytest.mark.parametrize("trunc, code", [(3.0, 0), ("inf", 0), (2.0, 1)])
def test_boundary_truncation_M_config_key(tmp_path, trunc, code):
    cfg = _base_cfg(tmp_path)
    cfg["boundary"]["truncation_M"] = trunc
    cfg["run"]["M"] = 3.0 if trunc != "inf" else "inf"
    cfg_path = _write_cfg(tmp_path, cfg)
    assert main(["simulate", "-c", cfg_path]) == code


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
    assert report["final_gap_vs_direct"] is not None


def _holder_cfg(tmp_path, **holder):
    cfg = _base_cfg(tmp_path)
    cfg["grid"] = {"domain": "compact", "nx": 16, "nt": 4096, "T": 0.1}
    cfg["boundary"] = {"kind": "zero"}
    cfg["run"] = {}
    cfg["holder"] = {"n_paths": 2, "q": 2, "lag_min": 2, "lag_max": 32, **holder}
    return cfg


def test_holder_subcommand(tmp_path):
    cfg_path = _write_cfg(tmp_path, _holder_cfg(tmp_path, workers=2))
    assert main(["holder", "-c", cfg_path]) == 0
    report = json.loads((tmp_path / "out" / "holder.json").read_text())
    axes = [row["axis"] for row in report["estimates"]]
    assert axes == ["time", "space", "boundary_derivative"]
    assert all(row["n_paths"] == 2 for row in report["estimates"])


def test_holder_worker_fanout_deterministic(tmp_path):
    cfg_path = _write_cfg(tmp_path, _holder_cfg(tmp_path, n_paths=3, workers=1))
    main(["holder", "-c", cfg_path])
    serial = (tmp_path / "out" / "holder.json").read_text()
    main(["holder", "-c", cfg_path, "--set", "holder.workers=3"])
    parallel = (tmp_path / "out" / "holder.json").read_text()
    assert json.loads(serial)["estimates"] == json.loads(parallel)["estimates"]


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


def test_holder_keeps_no_profiles(tmp_path):
    # storing every step's side-1 profile of both paths would take
    # 2 x 8193 x 129 x 8 B = 16.9 MB; the structure sums take a fraction
    cfg = _holder_cfg(tmp_path, lag_min=16, lag_max=128)
    cfg["grid"] = {"domain": "compact", "nx": 128, "nt": 8192, "T": 0.125}
    cfg_path = _write_cfg(tmp_path, cfg)
    snapshot_bytes = 2 * (8192 + 1) * 129 * 8
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
