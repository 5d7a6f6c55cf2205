"""One fork-join: work on contiguous parts of ``range(n)``, one part per process.

``split`` cuts ``range(n)`` into W = min(CPUs in the affinity mask, n)
contiguous parts, evenly unless part 0 also has ``lead`` units of other
work, and runs part 0 in the calling process and every other
part in a forked child, which pickles its result, or the exception it
raised, into its own pipe and ends in ``os._exit``.  Parts next to each
other share a link pipe, down which a part may stream bytes to the next.
Every child has ended and been reaped when ``split`` returns or raises.

Its users: ``spde.run_forked`` steps a slice of a path batch per part;
``picard_iterate`` sweeps a group of iterates per part, chained by the
links, with the direct run as part 0's lead; ``lob.parse_events`` reads
and converts a run of chunks of an event file per part, and checks the
joined rows itself;
``_csv.write_table`` splits ``range(W)``, W = ``count(blocks)``, so that
each part is one index and formats every W-th write block into a spill
file opened, one per part, before the fork.
"""
from __future__ import annotations

import os
import pickle
import signal

from .errors import StefansimError


def count(n: int) -> int:
    """W = min(CPUs in the affinity mask, n): how many parts ``split`` cuts ``range(n)`` into."""
    return min(len(os.sched_getaffinity(0)), n)


def cuts(n: int, lead: int = 0) -> list:
    """Where ``split`` cuts ``range(n)``: W + 1 points from 0 to n, W = ``count(n)``.

    The n units and part 0's ``lead`` units of other work are shared
    evenly: the inner cuts are max(w, (n + lead) w // W - lead) for
    0 < w < W.  They rise strictly, since n >= W, so no part is empty;
    ``lead`` 0 gives the even cuts n w // W.
    """
    n_parts = count(n)
    return [0] + [max(w, (n + lead) * w // n_parts - lead) for w in range(1, n_parts)] + [n]


def split(n: int, work, name, lead: int = 0) -> list:
    """``work(lo, hi, upstream, downstream)`` for each contiguous part of ``range(n)``, n >= 1.

    The parts are cut at ``cuts(n, lead)``.  ``upstream`` is the
    read end of the link from the part before (a buffered binary file)
    and ``downstream`` the unbuffered write end of the link to the part
    after, each None at the ends of the chain: W = 1 makes no pipe and
    forks nothing.  A process keeps open only its own two link ends and
    closes them when its part ends, so a part that ends early shows as an
    end of file upstream and a broken pipe downstream.

    Part w runs on the w-th CPU of the affinity mask, the caller's thread
    until ``split`` returns, when its mask is set back: where the kernel
    does not balance load across CPUs (a cpuset with
    ``sched_load_balance`` 0) a forked child may stay on its parent's
    CPU, and the parts would take turns on one CPU.

    Returns each part's result, or the exception it raised, in part
    order.  A child that sends no whole result gives a StefansimError
    naming ``name(lo, hi)``.
    """
    cut = cuts(n, lead)
    n_parts = len(cut) - 1
    links = [(open(read, "rb"), open(write, "wb", buffering=0))
             for read, write in (os.pipe() for _ in range(n_parts - 1))]
    ends = [end for link in links for end in link]
    chain = [(links[w - 1][0] if w else None, links[w][1] if w < len(links) else None)
             for w in range(n_parts)]
    children = []                       # (pid, result pipe, lo, hi), each until reaped
    mask = os.sched_getaffinity(0)
    cpus = sorted(mask)
    try:
        if n_parts > 1:
            _pin(cpus[0])
        for w in range(1, n_parts):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    _pin(cpus[w])
                    os.close(read)
                    for end in ends + [pipe for _, pipe, _, _ in children]:
                        if end not in chain[w]:
                            end.close()
                    with open(write, "wb") as pipe:
                        pickle.dump(_part(work, cut[w], cut[w + 1], *chain[w]), pipe,
                                    pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children.append((pid, open(read, "rb"), cut[w], cut[w + 1]))
        for end in ends:
            if end not in chain[0]:
                end.close()
        results = [_part(work, 0, cut[1], *chain[0])]
        while children:
            pid, pipe, lo, hi = children[0]
            with pipe:
                data = pipe.read()
            os.waitpid(pid, 0)
            children.pop(0)
            try:
                results.append(pickle.loads(data))
            except Exception:  # a truncated or empty stream, however pickle words it
                results.append(StefansimError(f"the worker {name(lo, hi)} ended without a result"))
        return results
    finally:
        if n_parts > 1:
            os.sched_setaffinity(0, mask)
        for end in ends:
            end.close()
        for pid, pipe, _, _ in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _pin(cpu: int) -> None:
    """Keep this process on ``cpu``, if the machine has it."""
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:             # a CPU not online: the kernel places the process
        pass


def _part(work, lo: int, hi: int, upstream, downstream):
    """``work(lo, hi, upstream, downstream)``, or the exception it raised; closes both link ends."""
    try:
        return work(lo, hi, upstream, downstream)
    except Exception as exc:
        return exc
    finally:
        for end in (upstream, downstream):
            if end is not None:
                end.close()
