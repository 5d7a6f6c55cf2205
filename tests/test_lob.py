import io

import numpy as np
import pytest

from helpers import synthetic_lob_rows
from stefansim.boundary import exp_imbalance, zero_boundary
from stefansim.errors import FormatError, NonMonotoneTime
from stefansim.grids import build_grid
from stefansim.lob import (FitResult, fit_coefficients, parse_events,
                           price_series_to_csv, simulate_price)


def _stream_from_rows(rows, **kw):
    text = "time,side,event_type,relative_price,size\n" + "\n".join(rows) + "\n"
    return parse_events(io.StringIO(text), **kw)


def test_empty_input():
    stream = parse_events(io.StringIO(""))
    assert stream.n_events == 0
    assert stream.malformed_count == 0


def test_input_that_keeps_no_event_returns_its_explicit_horizon_as_floats():
    # a header and one event outside [0, 1]: nothing is kept
    text = "time,side,event_type,relative_price,size\n0.1,bid,limit,1.5,10\n"
    stream = parse_events(io.StringIO(text), horizon=[np.int64(0), np.float32(2.5)])
    assert stream.n_events == 0 and stream.filtered_count == 1
    assert stream.horizon == (0.0, 2.5)
    assert [type(t) for t in stream.horizon] == [float, float]


def test_single_row_identity_parse():
    stream = _stream_from_rows(["0.5,bid,limit,0.03,100"])
    assert stream.n_events == 1
    assert stream.sides[0] == "bid"
    assert stream.event_types[0] == "limit"
    assert stream.rel_prices[0] == pytest.approx(0.03)
    assert stream.sizes[0] == 100.0


def test_out_of_window_events_filtered():
    stream = _stream_from_rows(["0.1,bid,limit,0.5,10", "0.2,ask,limit,1.5,10"])
    assert stream.n_events == 1
    assert stream.filtered_count == 1


def test_malformed_rows_counted_and_thresholded():
    rows = ["0.1,bid,limit,0.5,10", "junk,row,here,x,y"]
    stream = _stream_from_rows(rows, malformed_threshold=0.6)
    assert stream.n_events == 1 and stream.malformed_count == 1
    with pytest.raises(FormatError):
        _stream_from_rows(rows, malformed_threshold=0.1)


def test_nonmonotone_time_rejected():
    with pytest.raises(NonMonotoneTime):
        _stream_from_rows(["1.0,bid,limit,0.5,10", "0.5,bid,limit,0.5,10"])


def test_message_file_type_codes_and_ticks():
    # 6 columns: time, type, order_id, size, price(1e-4 dollars), direction
    touch = [(0.0, 1_000_000, 1_000_100)]
    text = "\n".join([
        "0.1,1,11,100,999700,1",    # new limit order, bid side, $0.03 deep
        "0.2,2,12,50,999700,1",     # partial cancel -> cancel
        "0.3,3,13,50,999700,1",     # delete -> cancel
        "0.4,4,14,30,1000400,-1",   # visible execution -> market, ask side
        "0.5,5,15,20,1000400,-1",   # hidden execution -> market
        "0.6,6,16,10,1000000,1",    # auction code: skipped
    ])
    stream = parse_events(io.StringIO(text), fmt="lobster",
                          book_reference_prices=touch)
    assert stream.n_events == 5
    assert list(stream.event_types) == ["limit", "cancel", "cancel", "market", "market"]
    assert list(stream.sides) == ["bid", "bid", "bid", "ask", "ask"]
    assert stream.rel_prices[0] == pytest.approx(0.03)
    assert stream.rel_prices[3] == pytest.approx(0.03)


def test_touch_series_of_one_flat_row():
    # one (time, bid, ask) row, as np.loadtxt returns it for a one-line file
    one = parse_events(io.StringIO("0.1,1,11,100,999700,1"), fmt="lobster",
                       book_reference_prices=np.array([0.0, 1_000_000, 1_000_100]))
    assert one.n_events == 1 and one.rel_prices[0] == pytest.approx(0.03)


def test_message_file_requires_touch_series():
    with pytest.raises(FormatError):
        parse_events(io.StringIO("0.1,1,11,100,999700,1"), fmt="lobster")


def test_poisson_limit_rate_recovered():
    # single bin fed at rate mu with unit sizes: f -> mu * size / width
    rng = np.random.default_rng(4)
    mu, horizon, n_bins = 40.0, 200.0, 4
    times = np.cumsum(rng.exponential(1.0 / mu, int(mu * horizon * 1.2)))
    times = times[times < horizon]
    assert len(times) >= 1000
    rows = [f"{t},bid,limit,0.125,1.0" for t in times]
    stream = _stream_from_rows(rows, horizon=(0.0, horizon))
    fit = fit_coefficients(stream, n_bins=n_bins)
    assert fit.f[0] == pytest.approx(mu * 1.0 / 0.25, rel=0.15)
    assert np.all(fit.f[1:] == 0.0)
    assert fit.flagged[1] and not fit.flagged[0]


def test_balanced_limit_cancel_nets_to_zero():
    rng = np.random.default_rng(9)
    rows = []
    for i in range(2000):
        t = i * 0.05
        x = 0.3 + 0.2 * rng.random()
        rows.append(f"{t},bid,limit,{x},5.0")
        rows.append(f"{t},bid,cancel,{x},5.0")
    stream = _stream_from_rows(rows, horizon=(0.0, 100.0))
    fit = fit_coefficients(stream, n_bins=4, agg_interval=1.0)
    populated = fit.counts > 0
    assert np.max(np.abs(fit.f[populated])) <= 1e-9
    # balanced pairs cancel interval by interval as well
    assert np.all(fit.sigma[populated] == 0.0)


def test_round_trip_recovery():
    f_true = np.array([2.0, 1.0, -0.5, 0.25])
    s_true = np.array([0.4, 0.3, 0.2, 0.1])
    rows = synthetic_lob_rows(f_true, s_true, horizon=1200.0, seed=11)
    stream = _stream_from_rows(rows, horizon=(0.0, 1200.0))
    fit = fit_coefficients(stream, n_bins=4, agg_interval=1.0)
    assert np.all(fit.counts >= 1000)
    for b in range(4):
        assert fit.f[b] == pytest.approx(f_true[b], rel=0.15, abs=0.02)
        assert fit.sigma[b] == pytest.approx(s_true[b], rel=0.25)


def test_pooled_fit_is_average_of_sides_on_mirrored_data():
    f_true = np.array([1.5, 0.5, -0.25, 0.1])
    s_true = np.array([0.3, 0.2, 0.15, 0.1])
    rows = synthetic_lob_rows(f_true, s_true, horizon=300.0, seed=13,
                              sides=("bid", "ask"))
    stream = _stream_from_rows(rows, horizon=(0.0, 300.0))
    pooled = fit_coefficients(stream, n_bins=4)
    bid = fit_coefficients(stream, n_bins=4, side="bid")
    ask = fit_coefficients(stream, n_bins=4, side="ask")
    assert np.allclose(pooled.f, 0.5 * (bid.f + ask.f), atol=1e-9)
    # mirrored data make the per-side sigmas equal, so RMS pooling = average
    rms = np.sqrt(0.5 * (bid.sigma**2 + ask.sigma**2))
    assert np.allclose(pooled.sigma, rms, atol=1e-9)


def test_a_side_other_than_bid_ask_or_pooled_is_refused():
    rows = synthetic_lob_rows([1.0, 0.5, 0.25, 0.1], [0.2, 0.1, 0.1, 0.05], 60.0, 3)
    with pytest.raises(ValueError, match="side"):
        fit_coefficients(_stream_from_rows(rows), n_bins=4, side="mid")


def test_fit_csv_round_trip(tmp_path):
    fit = FitResult(x_centers=np.array([0.25, 0.75]), f=np.array([1.0, -2.0]),
                    sigma=np.array([0.5, 0.25]), counts=np.array([10, 20]))
    path = tmp_path / "fit.csv"
    fit.to_csv(path, header_comment="config_sha256=x seed=0")
    back = FitResult.from_csv(path)
    assert np.allclose(back.f, fit.f)
    assert np.allclose(back.sigma, fit.sigma)
    assert np.array_equal(back.counts, fit.counts)


def test_simulate_price_constant_without_noise():
    g = build_grid("compact", 16, 0.01, 256)
    fit = FitResult(x_centers=np.array([0.25, 0.5, 0.75, 1.0]),
                    f=np.zeros(4), sigma=np.zeros(4),
                    counts=np.full(4, 10))
    traj = simulate_price(fit, exp_imbalance(), g, seed=1, lap_scale=0.2, p0=50.0)
    assert np.all(traj.p == 50.0)


def test_simulate_price_deterministic():
    g = build_grid("compact", 16, 0.01, 256)
    fit = FitResult(x_centers=np.array([0.25, 0.5, 0.75, 1.0]),
                    f=np.array([2.0, 1.0, 0.5, 0.2]),
                    sigma=np.array([0.4, 0.3, 0.2, 0.1]),
                    counts=np.full(4, 10))
    fn = exp_imbalance(alpha=5.0, lam=100.0)
    a = simulate_price(fit, fn, g, seed=3, lap_scale=0.2)
    b = simulate_price(fit, fn, g, seed=3, lap_scale=0.2)
    assert a.p.tobytes() == b.p.tobytes()


def test_simulate_price_invariant_under_redundant_bins():
    g = build_grid("compact", 16, 0.01, 256)
    # dyadic values keep the refined interpolant bitwise identical
    base = FitResult(x_centers=np.array([0.25, 0.75]),
                     f=np.array([1.0, 3.0]), sigma=np.array([0.25, 0.75]),
                     counts=np.full(2, 10))
    refined = FitResult(x_centers=np.array([0.25, 0.5, 0.75]),
                        f=np.array([1.0, 2.0, 3.0]),
                        sigma=np.array([0.25, 0.5, 0.75]),
                        counts=np.full(3, 10))
    fn = zero_boundary()
    a = simulate_price(base, fn, g, seed=5)
    b = simulate_price(refined, fn, g, seed=5)
    assert np.array_equal(a.norm1, b.norm1)


def test_price_csv(tmp_path):
    g = build_grid("compact", 16, 0.005, 128)
    fit = FitResult(x_centers=np.array([0.25, 0.5, 0.75, 1.0]),
                    f=np.ones(4), sigma=0.1 * np.ones(4),
                    counts=np.full(4, 5))
    traj = simulate_price(fit, exp_imbalance(), g, seed=2)
    path = tmp_path / "price.csv"
    price_series_to_csv(traj, path, header_comment="config_sha256=h seed=2")
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "t,p"
    assert len(lines) == 2 + len(traj.times)


def test_empty_bin_flagged_with_placeholders():
    stream = _stream_from_rows(["1.0,bid,limit,0.1,5.0"], horizon=(0.0, 10.0))
    fit = fit_coefficients(stream, n_bins=4)
    assert fit.flagged[2] and fit.flagged[3]
    assert fit.f[2] == 0.0 and fit.sigma[2] == 0.0
