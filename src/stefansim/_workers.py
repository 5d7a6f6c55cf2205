"""Forked worker processes, each sending one pickled result back over a pipe.

``spde.run_forked`` and ``picard.picard_iterate`` split their work into
W = ``worker_count(n)`` contiguous parts: the parent does the first part
itself and forks one child for each other part.  A child pickles its
result, or the exception it raised, into its own pipe and ends in
``os._exit``.  The parent runs the children inside ``reaping``, so every
child has ended and been reaped when it returns or raises.
"""
from __future__ import annotations

import os
import pickle
import signal
from contextlib import contextmanager

from .errors import StefansimError


def worker_count(n_parts: int) -> int:
    """W = min(CPUs in this process's affinity mask, n_parts)."""
    return min(len(os.sched_getaffinity(0)), n_parts)


def attempt(work, *args):
    """``work(*args)``, or the exception it raised."""
    try:
        return work(*args)
    except Exception as exc:
        return exc


def fork(work, *args):
    """A child that pickles ``attempt(work, *args)`` into a pipe and ends.

    Returns the child's pid and the pipe's read end.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read)
            with os.fdopen(write, "wb") as pipe:
                pickle.dump(attempt(work, *args), pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, os.fdopen(read, "rb")


@contextmanager
def reaping():
    """A list for ``(pid, pipe, task)`` children; any still in it on exit is killed and reaped."""
    children = []
    try:
        yield children
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def outcomes(children: list) -> list:
    """What each child sent, in order, once it has ended; each leaves ``children`` when reaped.

    A child that did not send a whole result gives a StefansimError
    naming its task.
    """
    sent = []
    while children:
        pid, pipe, task = children[0]
        with pipe:
            data = pipe.read()
        os.waitpid(pid, 0)
        children.pop(0)
        try:
            sent.append(pickle.loads(data))
        except Exception:  # a truncated or empty stream, however pickle words it
            sent.append(StefansimError(f"the worker {task} ended without a result"))
    return sent
