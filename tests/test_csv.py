"""The shared CSV table writer against the row-by-row csv.writer loops it replaced,
and the shared reader's refusals."""
import csv
import os
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from helpers import assert_reaped, count_forks, set_cpus, time_limit
from stefansim import _csv
from stefansim.boundary import exp_imbalance
from stefansim.errors import FormatError, StefansimError
from stefansim.grids import Field, build_grid
from stefansim.lob import FitResult, price_series_to_csv, simulate_price
from stefansim.obstacle import ObstacleSolution, dump_csv, solve_penalized, solve_projected
from stefansim.spde import constant_coefficients, run_relative_frame

HEADER = "config_sha256=abc seed=1"


# --- the row-by-row writers the shared writer replaced, kept as references ---

def _ref_trajectory(traj, path, header_comment=None):
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["step", "t", "p", "p_prime", "norm1", "norm2"])
        for i in range(len(traj.times)):
            writer.writerow([i, f"{traj.times[i]:.10g}", f"{traj.p[i]:.17g}",
                             f"{traj.p_prime[i]:.17g}", f"{traj.norm1[i]:.17g}",
                             f"{traj.norm2[i]:.17g}"])


def _ref_profiles(traj, path, header_comment=None):
    xs = traj.grid.space_nodes()
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "v1", "v2"])
        for k, t in enumerate(traj.snapshot_times):
            for j, x in enumerate(xs):
                writer.writerow([f"{t:.10g}", f"{x:.10g}",
                                 f"{traj.v1_snapshots[k, j]:.17g}",
                                 f"{traj.v2_snapshots[k, j]:.17g}"])


def _ref_obstacle(solution, v, path, header_comment=None):
    grid = solution.grid
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "z", "v", "eta_cell"])
        for i, t in enumerate(grid.time_nodes()):
            for j, x in enumerate(grid.space_nodes()):
                writer.writerow([f"{t:.10g}", f"{x:.10g}",
                                 f"{solution.z.values[i, j]:.17g}", v.values[i, j],
                                 f"{solution.eta[i, j]:.17g}"])


def _ref_fit(fit, path, header_comment=None):
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["x_center", "f", "sigma", "count"])
        for i in range(fit.n_bins):
            writer.writerow([f"{fit.x_centers[i]:.10g}", f"{fit.f[i]:.17g}",
                             f"{fit.sigma[i]:.17g}", int(fit.counts[i])])


def _ref_price(traj, path, header_comment=None):
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["t", "p"])
        for t, p in zip(traj.times, traj.p):
            writer.writerow([f"{t:.10g}", f"{p:.17g}"])


def _same_bytes(tmp_path, write, reference, *args, header_comment=HEADER):
    ours, theirs = tmp_path / "ours.csv", tmp_path / "reference.csv"
    write(*args, ours, header_comment=header_comment)
    reference(*args, theirs, header_comment=header_comment)
    assert ours.read_bytes() == theirs.read_bytes()


def _fit():
    return FitResult(x_centers=(np.arange(16) + 0.5) / 16,
                     f=np.random.default_rng(3).normal(size=16) * 1e3,
                     sigma=np.abs(np.random.default_rng(4).normal(size=16)),
                     counts=np.arange(16) * 977)


def test_trajectory_writers_match_reference(tmp_path):
    g = build_grid("compact", 16, 0.01, 256)
    x = g.space_nodes()
    v0 = np.maximum(0.4 * np.sin(np.pi * x), 0.0)
    v0[-1] = 0.0
    traj = run_relative_frame((v0, v0.copy(), 0.0), constant_coefficients(sigma=0.5),
                              exp_imbalance(clamp=2.0), np.inf, np.inf, g, noise=5,
                              store_stride=16)
    assert not traj.blown_up
    for header in (HEADER, None):
        _same_bytes(tmp_path, type(traj).to_csv, _ref_trajectory, traj, header_comment=header)
        _same_bytes(tmp_path, type(traj).profiles_to_csv, _ref_profiles, traj,
                    header_comment=header)


def test_blown_up_trajectory_writers_match_reference(tmp_path):
    g = build_grid("compact", 16, 0.01, 256)
    traj = run_relative_frame((np.zeros(g.n_nodes), np.zeros(g.n_nodes), 0.0),
                              constant_coefficients(f=500.0, sigma=0.5), exp_imbalance(),
                              3.0, 3.0, g, noise=2, store_stride=7)
    assert traj.blown_up and 1 < len(traj.times) < g.nt + 1
    _same_bytes(tmp_path, type(traj).to_csv, _ref_trajectory, traj)
    _same_bytes(tmp_path, type(traj).profiles_to_csv, _ref_profiles, traj)


def test_obstacle_dump_matches_reference(tmp_path):
    g = build_grid("compact", 16, 0.01, 200)
    v = Field.from_function(g, lambda t, x: 2.0 * np.sin(np.pi * x) * np.minimum(t, 0.004))
    for sol in (solve_projected(v), solve_penalized(v, 1e-3)):
        _same_bytes(tmp_path, dump_csv, _ref_obstacle, sol, v)


def test_fit_and_price_writers_match_reference(tmp_path):
    fit = _fit()
    _same_bytes(tmp_path, type(fit).to_csv, _ref_fit, fit)
    traj = simulate_price(FitResult(x_centers=fit.x_centers, f=np.abs(fit.f) / 1e3,
                                    sigma=fit.sigma, counts=fit.counts),
                          exp_imbalance(), build_grid("compact", 16, 0.005, 300), seed=2)
    _same_bytes(tmp_path, price_series_to_csv, _ref_price, traj)


def test_fit_csv_round_trips_bit_for_bit(tmp_path):
    fit = _fit()
    fit.to_csv(tmp_path / "fit.csv", header_comment=HEADER)
    back = FitResult.from_csv(tmp_path / "fit.csv")
    for name in ("x_centers", "f", "sigma", "counts"):
        assert getattr(back, name).tobytes() == getattr(fit, name).tobytes()


@pytest.mark.parametrize("body, message", [
    ("0.25,0.1,0.2,3\r\n0.75,abc,0.2,3\r\n",
     r"^fit table line 4: could not convert string to float: 'abc'$"),
    ("0.25,0.1,0.2,3\r\n0.75,0.1,0.2\r\n", r"^fit table line 4: 3 fields, expected 4$"),
    ("0.25,0.1,0.2,3,5\r\n", r"^fit table line 3: 5 fields, expected 4$"),
    # rows of one wrong width are refused, not read back as rows of four
    ("1,2,3\r\n" * 4, r"^fit table line 3: 3 fields, expected 4$"),
], ids=["not_a_number", "short_row", "long_row", "three_wide"])
def test_fit_table_refuses_a_bad_row_by_its_line(tmp_path, body, message):
    path = tmp_path / "fit.csv"
    path.write_text(f"# {HEADER}\nx_center,f,sigma,count\r\n" + body)
    with pytest.raises(FormatError, match=message):
        FitResult.from_csv(path)


SPECIAL = [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e-5, 1e-4, 1.5e-4,
           1e16, -1e16, 123456789.123, 1 / 3, 1e300, float("nan"), float("inf"),
           float("-inf")]
values = st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats()), min_size=1, max_size=40)


#: few whole numbers, so a column resized from them repeats, as a fit table's zero counts do
counts = st.lists(st.one_of(st.just(0), st.integers(-2**63, 2**63 - 1)), min_size=1, max_size=4)


@given(rows=st.integers(0, 50), inner=st.integers(1, 9), block=st.sampled_from([1, 5, 16, None]),
       a=values, b=values, n=counts, comment=st.sampled_from([None, "", "c=1"]))
# 0.0 and -0.0 compare equal but are written apart, in one block and in one column
@example(rows=6, inner=4, block=None, a=[0.0, -0.0, float("nan"), -0.0], b=[-0.0, 0.0, 1e-5],
         n=[0, 0, -1, 2**63 - 1], comment=None)
def test_write_table_matches_csv_writer(tmp_path_factory, rows, inner, block, a, b, n, comment):
    a, b = np.asarray(a), np.asarray(b)
    n = np.resize(np.asarray(n, dtype=np.int64), rows)
    t = np.resize(a, rows)
    x = np.resize(b, inner)
    z = np.resize(b, (rows, inner))
    w = np.resize(a[::-1], (rows, inner))
    path = tmp_path_factory.mktemp("table") / "t.csv"
    with mock.patch.object(_csv, "BLOCK", block or _csv.BLOCK):
        _csv.write_table(path, ["i", "t", "a", "n"], ["%d", "%.10g", "%.17g", "%d"],
                         [np.arange(rows), t, w[:, 0], n], comment)
        flat = path.read_bytes()
        _csv.write_table(path, ["t", "x", "z", "w"], ["%.10g", "%.10g", "%.17g", "%r"],
                         [t[:, None], x, z, w], comment)
        grid = path.read_bytes()

    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["i", "t", "a", "n"])
        for i in range(rows):
            writer.writerow([i, f"{t[i]:.10g}", f"{w[i, 0]:.17g}", int(n[i])])
    assert flat == path.read_bytes()
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "z", "w"])
        for i in range(rows):
            for j in range(inner):
                writer.writerow([f"{t[i]:.10g}", f"{x[j]:.10g}", f"{z[i, j]:.17g}", w[i, j]])
    assert grid == path.read_bytes()


def _dump_peak(tmp_path, nt):
    g = build_grid("compact", 64, 0.05, nt)
    rng = np.random.default_rng(nt)
    shape = (g.nt + 1, g.n_nodes)
    sol = ObstacleSolution(z=Field(g, rng.normal(size=shape)), eta=rng.normal(size=shape))
    v = Field(g, rng.normal(size=shape))
    tracemalloc.start()
    try:
        dump_csv(sol, v, tmp_path / f"obstacle_{nt}.csv", header_comment=HEADER)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dump_csv_memory_does_not_grow_with_rows(tmp_path):
    # 65 nodes: 4x the time rows must not mean more than 1.25x the peak,
    # so no full-length coordinate column is ever built
    assert _dump_peak(tmp_path, 4096) <= 1.25 * _dump_peak(tmp_path, 1024)


def test_dump_csv_memory_does_not_grow_with_rows_in_one_process(tmp_path, monkeypatch):
    # tracemalloc sees only its own process: with one CPU it sees every block formatted
    set_cpus(monkeypatch, 1)
    assert _dump_peak(tmp_path, 4096) <= 1.25 * _dump_peak(tmp_path, 1024)


# --- the blocks dealt out over worker processes ---

def _table(rows, inner):
    """A 1-D and a broadcast grid table of ``rows`` rows, with repeats and distinct values."""
    rng = np.random.default_rng(rows)
    t = np.round(rng.normal(size=rows), 2)
    flat = (["i", "t", "u"], ["%d", "%.10g", "%.17g"], [np.arange(rows), t, rng.normal(size=rows)])
    grid = (["t", "x", "z"], ["%.10g", "%.10g", "%.17g"],
            [t[:, None], np.linspace(0, 1, inner), rng.normal(size=(rows, inner))])
    return flat, grid


#: (rows, inner) with BLOCK = 8: one block; 2 full blocks, fewer than 3 CPUs; a short last
#: block; many blocks; a zero-row table.  A grid table's block is 8 // inner rows.
SHAPES = [(5, 1), (16, 1), (17, 1), (203, 1), (0, 1), (1, 4), (9, 2), (100, 3), (0, 3)]


@pytest.mark.parametrize("rows, inner", SHAPES)
def test_write_table_is_the_same_for_any_number_of_workers(tmp_path, monkeypatch, rows, inner):
    monkeypatch.setattr(_csv, "BLOCK", 8)
    flat, grid = _table(rows, inner)
    for table, step in ((flat, 8), (grid, 8 // inner)):
        written = set()
        for n_cpus in (1, 2, 3):
            set_cpus(monkeypatch, n_cpus)
            pids = count_forks(monkeypatch)
            out = tmp_path / f"w{n_cpus}"
            out.mkdir(exist_ok=True)
            with time_limit(60):
                _csv.write_table(out / "t.csv", *table, header_comment=HEADER)
            # a part for each full block, at most
            assert len(pids) == min(n_cpus, max(1, rows // step)) - 1
            assert_reaped(pids)
            assert [p.name for p in out.iterdir()] == ["t.csv"]
            written.add((out / "t.csv").read_bytes())
        assert len(written) == 1
    if not rows:
        assert written == {f"# {HEADER}\nt,x,z\r\n".encode()}


def test_the_bundled_tables_are_the_same_for_any_number_of_workers(tmp_path, monkeypatch):
    g = build_grid("compact", 16, 0.01, 2000)
    v = Field.from_function(g, lambda t, x: 2.0 * np.sin(np.pi * x) * np.minimum(t, 0.004))
    sol = solve_projected(v)
    written = []
    for n_cpus in (1, 2, 3):
        set_cpus(monkeypatch, n_cpus)
        pids = count_forks(monkeypatch)
        dump_csv(sol, v, tmp_path / f"obstacle{n_cpus}.csv", header_comment=HEADER)
        # 2001 time rows of 17 nodes, 240 rows a block: 8 full blocks
        assert len(pids) == n_cpus - 1
        written.append((tmp_path / f"obstacle{n_cpus}.csv").read_bytes())
    assert written[0] == written[1] == written[2]
    _ref_obstacle(sol, v, tmp_path / "reference.csv", header_comment=HEADER)
    assert written[0] == (tmp_path / "reference.csv").read_bytes()


def _fails_at(blocks, step):
    """``_csv._text`` that raises in the blocks (of ``step`` rows) given, named by block."""
    text = _csv._text

    def failing(col, fmt):
        if fmt == "%d" and col.size and int(col.flat[0]) // step in blocks:
            raise ValueError(f"block {int(col.flat[0]) // step}")
        return text(col, fmt)
    return failing


@pytest.mark.parametrize("blocks, message", [
    ({0, 4}, "block 0"),            # in part 0, which runs here, and in part 1
    ({5, 4}, "block 4"),            # block 5 comes first in part 2, but part 1 is lower
    ({8}, "block 8"),               # in part 2 alone
])
def test_a_failing_part_raises_the_lowest_part_s_error(tmp_path, monkeypatch, blocks, message):
    monkeypatch.setattr(_csv, "BLOCK", 8)
    monkeypatch.setattr(_csv, "_text", _fails_at(blocks, 8))
    set_cpus(monkeypatch, 3)
    pids = count_forks(monkeypatch)
    flat, _ = _table(80, 1)
    with pytest.raises(ValueError, match=f"^{message}$"), time_limit(60):
        _csv.write_table(tmp_path / "t.csv", *flat)
    assert len(pids) == 2
    assert_reaped(pids)
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_a_part_that_sends_nothing_is_named(tmp_path, monkeypatch):
    text = _csv._text

    def dies(col, fmt):
        if os.getpid() != parent:
            os._exit(1)
        return text(col, fmt)
    parent = os.getpid()
    monkeypatch.setattr(_csv, "BLOCK", 8)
    monkeypatch.setattr(_csv, "_text", dies)
    set_cpus(monkeypatch, 2)
    pids = count_forks(monkeypatch)
    flat, _ = _table(80, 1)
    path = tmp_path / "t.csv"
    message = f"the worker formatting blocks 1, 3, ... of {path} ended without a result"
    with pytest.raises(StefansimError, match=f"^{re.escape(message)}$"), time_limit(60):
        _csv.write_table(path, *flat)
    assert_reaped(pids)
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
