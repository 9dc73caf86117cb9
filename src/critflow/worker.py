"""One forked worker process beside the calling one.

:func:`forked` runs a function in a forked child while the parent goes on
with independent work, and hands its result back through a pipe in one
piece. No exception crosses the pipe: the child sends its result or
nothing (its work raised, or it ended before it had sent all of it), and
on nothing the caller reads None and does the work again itself, so an
error is raised by the caller's own call with all its attributes.
``run_verification`` and a point search of a map with three or more
inputs run part of their Newton seeds there, taken from one queue
(:mod:`critflow.points`); ``portrait`` renders its grid there while it
integrates and writes the trajectories.

A worker is used where ``os.fork`` and ``os.sched_getaffinity`` exist, at
least two CPUs are usable, the calling process runs a single thread and
no worker is running: the flag ``_busy`` is set in a forked child and in
its parent until the child is reaped, so code that runs beside a worker
or in it forks no second one.
Elsewhere the function runs in the calling process, when its result is
read. Either way it runs the same code on the same inputs, so its result
and the files it writes are the same.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import threading
from functools import partial
from typing import Callable


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


#: True in a forked child, and in its parent until the child is reaped:
#: the two CPUs are taken, so a nested :func:`forked` works in place
_busy = False


def _worker_usable() -> bool:
    # a forked child holds only the forking thread: a lock another thread
    # held at the fork would stay locked in the child forever
    return (not _busy and hasattr(os, "fork") and _usable_cpus() >= 2
            and threading.active_count() == 1)


def _received(stream):
    """The result the worker wrote to ``stream``, or None where it wrote
    none. A result larger than the pipe's buffer is written in pieces, so
    a worker that ends between two leaves a truncated pickle: that too is
    no result."""
    try:
        return pickle.load(stream)
    except (EOFError, pickle.UnpicklingError):
        return None


@contextlib.contextmanager
def forked(work: Callable):
    """Run ``work()`` in a forked child process. Yields a function that
    returns its result, read from a pipe in one piece, or None where the
    child sent none, so ``work`` must not return None itself; or yields
    ``work`` itself where no worker is usable or no process can be forked.
    The child leaves only through ``os._exit``; the parent kills and reaps
    it when the block exits, however it exits.

    A fork, not a spawned interpreter: the child starts with the parent's
    imports and objects, whose compiled kernels do not pickle."""
    global _busy
    if not _worker_usable():
        yield work
        return
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: work here
        os.close(read_fd)
        os.close(write_fd)
        yield work
        return
    _busy = True  # in both processes
    if pid == 0:
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as out:
                out.write(pickle.dumps(work()))
        finally:  # an exception of work() ends the child with nothing sent
            os._exit(0)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as stream:
            yield partial(_received, stream)
    finally:
        _busy = False
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):  # reaped already (SIGCHLD ignored)
            pass
