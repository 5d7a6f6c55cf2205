"""``_workers.split``: contiguous parts, one per process, with a link pipe between neighbours."""
import os
import re
import time
from pathlib import Path

import pytest

from helpers import assert_reaped, count_forks, set_cpus, time_limit
from stefansim import _workers
from stefansim._workers import cuts, split
from stefansim.errors import StefansimError


def _name(lo, hi):
    return f"of items {lo} to {hi - 1}"


def _where(lo, hi, upstream, downstream):
    return lo, hi, os.getpid(), upstream is None, downstream is None


@pytest.mark.parametrize("n_cpus", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_parts_come_back_in_order(n_cpus, n, monkeypatch):
    # W = min(n_cpus, n), so n = 1, 2 and 3 give more CPUs than parts
    set_cpus(monkeypatch, n_cpus)
    pids = count_forks(monkeypatch)
    got = split(n, _where, _name)
    W = min(n_cpus, n)
    cuts = [n * w // W for w in range(W + 1)]
    assert [(lo, hi) for lo, hi, *_ in got] == list(zip(cuts, cuts[1:]))
    # part 0 runs here, every other part in a child of its own
    assert [pid for _, _, pid, _, _ in got] == [os.getpid()] + pids
    assert [(first, last) for *_, first, last in got] == \
        [(w == 0, w == W - 1) for w in range(W)]
    assert len(pids) == W - 1
    assert_reaped(pids)


@pytest.mark.parametrize("lead", [0, 1, 2, 5])
@pytest.mark.parametrize("n_cpus", [1, 2, 3, 4])
def test_a_lead_cuts_a_lighter_first_part(n_cpus, lead, monkeypatch):
    # part 0 has lead units of other work; every part is still nonempty, in
    # order and on a CPU of its own, and lead 0 keeps the even cuts
    set_cpus(monkeypatch, n_cpus)
    pinned = []
    monkeypatch.setattr(_workers, "_pin", pinned.append)
    for n in range(1, 14):
        pinned.clear()
        pids = count_forks(monkeypatch)
        got = split(n, lambda lo, hi, *links: (lo, hi, pinned[-1] if pinned else None),
                    _name, lead=lead)
        W = min(n_cpus, n)
        cut = [lo for lo, _, _ in got] + [n]
        assert cut == cuts(n, lead) and [hi for _, hi, _ in got] == cut[1:]
        assert all(lo < hi for lo, hi in zip(cut, cut[1:])) and cut[0] == 0, (n, cut)
        if lead == 0:
            assert cut == [n * w // W for w in range(W + 1)]
        assert cut[1:-1] == [max(w, (n + lead) * w // W - lead) for w in range(1, W)]
        assert [cpu for _, _, cpu in got] == (list(range(W)) if W > 1 else [None])
        assert len(pids) == W - 1
        assert_reaped(pids)


def test_the_picard_cuts(monkeypatch):
    # 12 iterates on 2 CPUs split 5/7; 3 on 3 CPUs stay one apiece
    set_cpus(monkeypatch, 2)
    assert cuts(12, 2) == [0, 5, 12]
    set_cpus(monkeypatch, 3)
    assert cuts(3, 2) == [0, 1, 2, 3]


def test_one_part_makes_no_pipe_and_forks_nothing(monkeypatch):
    set_cpus(monkeypatch, 1)
    pids = count_forks(monkeypatch)

    def no_pipe():
        raise AssertionError("a pipe was made")
    monkeypatch.setattr(os, "pipe", no_pipe)
    assert split(5, _where, _name) == [(0, 5, os.getpid(), True, True)]
    assert pids == []


def _relay(lo, hi, upstream, downstream):
    # each part reads what the part before sent, up to its end of file,
    # adds its own bytes and sends the lot on; the last part returns it
    data = (upstream.read() if upstream else b"") + bytes(range(lo, hi)) * 3000
    if downstream is None:
        return data
    while data:
        data = data[downstream.write(data):]
    return None


def test_bytes_pass_down_a_three_part_chain(monkeypatch):
    # 18 kB from 6 items: more than one write and one read may take
    set_cpus(monkeypatch, 3)
    pids = count_forks(monkeypatch)
    with time_limit(60):
        got = split(6, _relay, _name)
    assert got == [None, None, b"".join(bytes(range(lo, lo + 2)) * 3000 for lo in (0, 2, 4))]
    assert len(pids) == 2
    assert_reaped(pids)


def _fails_in(part):
    def work(lo, hi, upstream, downstream):
        if lo == part:
            raise ValueError(f"failed at {lo}")
        return lo
    return work


@pytest.mark.parametrize("part", [0, 1, 2])
def test_an_exception_takes_its_part_s_place(part, monkeypatch):
    set_cpus(monkeypatch, 3)
    pids = count_forks(monkeypatch)
    got = split(3, _fails_in(part), _name)
    assert [type(r) for r in got] == [ValueError if w == part else int for w in range(3)]
    assert str(got[part]) == f"failed at {part}"
    assert [r for r in got if isinstance(r, int)] == [w for w in range(3) if w != part]
    assert_reaped(pids)


def test_a_child_that_sends_no_result_is_named(monkeypatch):
    def work(lo, hi, upstream, downstream):
        if lo:
            os._exit(1)
        return lo
    set_cpus(monkeypatch, 3)
    pids = count_forks(monkeypatch)
    got = split(6, work, _name)
    assert got[0] == 0
    for r, message in zip(got[1:], ["of items 2 to 3", "of items 4 to 5"]):
        assert isinstance(r, StefansimError)
        assert str(r) == f"the worker {message} ended without a result"
    assert_reaped(pids)


def test_a_failing_first_part_does_not_hang_the_chain(monkeypatch):
    # part 1 reads to its end of file, which comes only once part 0 and
    # part 2 have both closed their ends of link 0
    def work(lo, hi, upstream, downstream):
        if lo == 0:
            raise RuntimeError("failed in part 0")
        return upstream.read() if hi < 3 else "last"
    set_cpus(monkeypatch, 3)
    pids = count_forks(monkeypatch)
    with time_limit(60):
        got = split(3, work, _name)
    assert isinstance(got[0], RuntimeError) and got[1:] == [b"", "last"]
    assert_reaped(pids)


def test_a_failing_later_part_breaks_the_pipe_before_it(monkeypatch):
    # part 0 writes far more than a pipe holds to a part that has ended
    def work(lo, hi, upstream, downstream):
        if lo:
            raise ValueError("failed in part 1")
        block = bytes(1 << 20)
        for _ in range(64):
            downstream.write(block)
        return "sent"
    set_cpus(monkeypatch, 2)
    pids = count_forks(monkeypatch)
    with time_limit(60):
        got = split(2, work, _name)
    assert isinstance(got[0], BrokenPipeError) and isinstance(got[1], ValueError)
    assert_reaped(pids)


class _Stop(BaseException):
    pass


def test_children_are_killed_and_reaped_when_the_parent_s_part_escapes(monkeypatch):
    # a BaseException is not a part's result: it leaves split, which first
    # kills the children that would otherwise sleep for a minute
    def work(lo, hi, upstream, downstream):
        if lo == 0:
            raise _Stop()
        time.sleep(60)
    set_cpus(monkeypatch, 4)
    pids = count_forks(monkeypatch)
    with pytest.raises(_Stop), time_limit(30):
        split(4, work, _name)
    assert len(pids) == 3
    assert_reaped(pids)


def test_only_workers_forks_makes_pipes_or_pickles():
    # every process the package starts goes through split, its one fork-join
    src = Path(__file__).resolve().parent.parent / "src" / "stefansim"
    found = [f"{path.name}:{number}: {line.strip()}"
             for path in sorted(src.glob("*.py")) if path.name != "_workers.py"
             for number, line in enumerate(path.read_text().splitlines(), start=1)
             if re.search(r"\bos\.fork\b|\bos\.pipe\b|\bpickle\b", line)]
    assert found == []


def test_each_part_runs_on_a_cpu_of_its_own():
    # the kernel need not spread forked children over the CPUs, so split places them
    mask = os.sched_getaffinity(0)
    got = split(len(mask), lambda lo, hi, *links: os.sched_getaffinity(0), _name)
    assert got == ([{cpu} for cpu in sorted(mask)] if len(mask) > 1 else [mask])
    assert os.sched_getaffinity(0) == mask
