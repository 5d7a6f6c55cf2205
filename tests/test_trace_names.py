"""The benchmark tracer patches package functions by name; pin those names.

``perfbench/tracing.py`` wraps the attributes listed in ``WRAPS``.  A
rename in ``src/`` that drops one of them breaks traced benchmark runs,
so these tests resolve every entry and check that patching is undone.
"""
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from stefansim.boundary import zero_boundary
from stefansim.grids import build_grid
from stefansim.picard import build_kernel_tables
from stefansim.spde import constant_coefficients, run_relative_frame

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  REPO / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def test_every_wrapped_name_resolves(tracing):
    for module_name, attr, *_ in tracing.WRAPS:
        owner, leaf = _resolve(module_name, attr)
        assert callable(getattr(owner, leaf, None)), f"{module_name}.{attr}"


def test_install_and_uninstall_restore_every_original(tracing):
    originals = [getattr(*_resolve(module_name, attr))
                 for module_name, attr, *_ in tracing.WRAPS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module_name, attr, *_), original in zip(tracing.WRAPS, originals):
            assert getattr(*_resolve(module_name, attr)) is not original
    finally:
        tracer.uninstall()
    for (module_name, attr, *_), original in zip(tracing.WRAPS, originals):
        assert getattr(*_resolve(module_name, attr)) is original, f"{module_name}.{attr}"


def test_table_bytes_reads_kernel_tables(tracing):
    tables = build_kernel_tables(build_grid("compact", 8, 0.02, 48))
    expected = tables.init.nbytes + tables.mid_val.nbytes + tables.mid_der.nbytes
    assert tracing._table_bytes((), {}, tables) == {"bytes": expected}


@pytest.mark.parametrize("stride", [0, 16])
def test_run_and_csv_hooks_read_a_real_trajectory(tracing, tmp_path, stride):
    grid = build_grid("compact", 8, 0.02, 64)
    v0 = np.sin(np.pi * grid.space_nodes())
    v0[0] = v0[-1] = 0.0
    traj = run_relative_frame((v0, v0.copy(), 0.0), constant_coefficients(), zero_boundary(),
                              np.inf, np.inf, grid, noise=1, store_stride=stride)
    hooks = {attr: post for module_name, attr, _, _, post in tracing.WRAPS
             if module_name == "stefansim.spde"}
    snaps = (traj.v1_snapshots, traj.v2_snapshots) if stride else ()
    assert tracing._snapshot_bytes((), {}, traj) == \
        {"snapshot_bytes": sum(s.nbytes for s in snaps)}
    writes = [("Trajectory.to_csv", tmp_path / "trajectory.csv")]
    if stride:
        writes.append(("Trajectory.profiles_to_csv", tmp_path / "profiles.csv"))
    else:
        # a traced run without profiles never reaches the row hook
        with pytest.raises(ValueError):
            traj.profiles_to_csv(tmp_path / "profiles.csv")
    for attr, path in writes:
        getattr(traj, attr.split(".")[1])(path)
        # one header line, then one row per record
        rows = len(path.read_text().splitlines()) - 1
        assert hooks[attr]((traj, path), {}, None) == \
            {"rows": rows, "bytes": path.stat().st_size}
