"""The benchmark workloads' outputs, pinned to their digests.

Each case builds a workload of ``perfbench/workloads.py`` as
``WORKLOADS[name](ROOT, tmp_path, seed)``, runs its ``setup`` and then its
commands through ``cli.main`` in this process, and compares ``digest()``,
the SHA-256 of its numeric outputs, with the constant below.  So "the
same bytes" is checked on every run of the suite, not by hand.

Policy: a change that moves a digest on purpose replaces the constant
and states the old digest, the new one and the reason in ``CHANGES.md``.
A digest that moves with no change in ``src/`` (say, a numpy or BLAS
change on the host) is a finding to report, not a constant to refresh in
passing.

Time gate: the module runs in under 10 s (about 4 s on 2 CPUs).
"""
import importlib
from pathlib import Path

import pytest

from stefansim import cli

ROOT = Path(__file__).resolve().parents[1]

DIGESTS = {
    ("ensemble", 1): "294c77b926bd2c29fb8a67702b2ff3089c520624b73a5b3291194c105bc7eda4",
    ("mild", 1): "8f3321b7ddb3e42eec7ca5304c0a4c02fd240ad545974dcef1876e86298c26f8",
    ("pipeline", 1): "0137719a30902e09c77204a996ed7c980df6aa5d17cdfa9c5422e670484e22ac",
    ("ensemble", 2): "9fffd36c85bec1d1bcc20aac86b8548ccc0d3dc5e1bfe843240c234c17562a2f",
    ("mild", 2): "177498b2d07f785c6817049dff99c22ccdbd48e79a0389b65e5d88886b60d309",
    ("pipeline", 2): "29a7f6513bcb620de9036da1a28c8ae5a03197252415ecdf6a8c2d7f6ff1a4f5",
}


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its neighbour events.py by bare name
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))
        yield importlib.import_module("workloads").WORKLOADS


@pytest.mark.parametrize("name, seed", list(DIGESTS), ids=[f"{n}-{s}" for n, s in DIGESTS])
def test_workload_digest_is_pinned(workloads, name, seed, tmp_path):
    workload = workloads[name](ROOT, tmp_path, seed)
    workload.setup()
    codes = {sub: cli.main(argv) for sub, argv in workload.commands()}
    assert codes == dict.fromkeys(codes, 0)
    assert workload.digest() == DIGESTS[name, seed]
