"""Seeded generator of normalized order-book events with a known truth.

Per price bin, per side and per aggregation interval the net volume is
``f * D * dt + sigma * sqrt(D * dt) * Z`` with bin width ``D``; it is
booked as one limit event (positive) or one cancel event (negative) at
the bin centre.  That is exactly the quantity ``stefansim.lob`` fits, so
the fitted (f, sigma) must come back within sampling error.  Every true
drift is bounded away from zero, which keeps the relative drift error
defined in every bin.
"""
from __future__ import annotations

import numpy as np

HEADER = "time,side,event_type,relative_price,size"
SIDES = ("bid", "ask")


def true_coefficients(n_bins: int):
    """Bin centres and the generator's true drift and volatility per bin."""
    x = (np.arange(n_bins) + 0.5) / n_bins
    f = 0.6 + 1.4 * np.exp(-3.0 * x)        # 1.88 near the touch, 0.67 deep in the book
    sigma = 0.2 + 0.3 * np.exp(-2.0 * x)
    return x, f, sigma


def write_events(path, seed: int, n_bins: int = 16, horizon: float = 3600.0,
                 interval: float = 1.0) -> dict:
    """Write the event CSV and return the truth it was drawn from."""
    x, f, sigma = true_coefficients(n_bins)
    width = 1.0 / n_bins
    n_int = int(round(horizon / interval))
    rng = np.random.default_rng([seed, 0x10B])
    z = rng.standard_normal((n_int, n_bins, len(SIDES)))
    net = (f[None, :, None] * width * interval
           + sigma[None, :, None] * np.sqrt(width * interval) * z)
    times = [repr((i + 0.5) * interval) for i in range(n_int)]
    centres = [repr(float(c)) for c in x]
    lines = [HEADER]
    for i, t in enumerate(times):
        for b, xc in enumerate(centres):
            for s, side in enumerate(SIDES):
                v = float(net[i, b, s])
                kind = "limit" if v > 0 else "cancel"
                lines.append(f"{t},{side},{kind},{xc},{abs(v)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return {"x_centers": x.tolist(), "f": f.tolist(), "sigma": sigma.tolist(),
            "rows": len(lines) - 1}
