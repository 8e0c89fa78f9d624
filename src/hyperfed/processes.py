"""Forked processes that serve jobs from a pipe, for the round loop
(federation.Workers) and the sweep (cli.run_cells): the memory they
share, and how many can run at once."""

from __future__ import annotations

import mmap
import os
import signal
import threading
import traceback
from multiprocessing.connection import Pipe

import numpy as np


class ProtocolError(RuntimeError):
    pass


class Forked:
    """Processes forked from this one that each serve jobs from a pipe.

    A job is the arguments of the function a process was forked with, and
    the process replies with its result or with the exception it raised.
    Leaving the context reaps every process: an idle one exits when its
    pipe closes; on an error they may still be busy and are killed.
    """

    def __init__(self):
        self.conns, self.pids = [], []

    def fork(self, handle):
        """Fork a process that serves handle(*job); returns its pipe."""
        mine, theirs = Pipe()
        pid = os.fork()
        if pid == 0:  # worker: serve until the pipe closes, never return
            status = 1
            try:
                for conn in self.conns + [mine]:
                    conn.close()
                _serve(theirs, handle)
                status = 0
            finally:
                os._exit(status)
        theirs.close()
        self.conns.append(mine)
        self.pids.append(pid)
        return mine

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        for conn in self.conns:
            conn.close()
        for pid in self.pids:
            if exc_type is not None:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        self.conns, self.pids = [], []

    def replies(self):
        """Each process's reply to its last job, in fork order. A worker's
        exception is raised again here, with its traceback as the cause."""
        out = []
        for conn, pid in zip(self.conns, self.pids):
            try:
                status, payload = conn.recv()
            except (EOFError, OSError) as exc:
                raise ProtocolError(f"worker {pid} is gone") from exc
            if status == "error":
                exc, trace = payload
                raise exc from RuntimeError(f"in worker {pid}:\n{trace}")
            out.append(payload)
        return out


def _serve(conn, handle):
    while True:
        try:
            job = conn.recv()
        except EOFError:
            return
        try:
            reply = ("ok", handle(*job))
        except Exception as exc:  # noqa: BLE001 - re-raised by replies
            reply = ("error", (exc, traceback.format_exc()))
        try:
            conn.send(reply)
        except BrokenPipeError:
            return
        except Exception:  # noqa: BLE001 - an exception pickle cannot take
            exc, trace = reply[1]
            conn.send(("error", (RuntimeError(
                f"{type(exc).__name__}: {exc}"), trace)))


def shared_copy(array):
    """A copy of array in an anonymous shared memory map of its own: a
    process forked after this call and the process that forked it write
    the same pages, where a private map or the heap would be copied on
    the first write."""
    buf = mmap.mmap(-1, max(array.nbytes, 1))  # MAP_SHARED by default
    out = np.frombuffer(buf, array.dtype, count=array.size)
    out = out.reshape(array.shape)
    out[...] = array
    return out


def blas_threads(cpus):
    """Threads one BLAS call may use, read as OpenBLAS reads them:
    OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else every usable CPU."""
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            n = int(os.environ.get(key, ""))
        except ValueError:
            continue
        if n > 0:
            return min(n, cpus)
    return cpus


def process_slots():
    """Processes that can run at once, one per BLAS call's worth of usable
    CPUs.

    So one while BLAS may use every CPU (its default): two processes
    with a full BLAS thread pool each oversubscribe the CPUs and made a
    run slower than one process. One where the platform lacks os.fork or
    os.sched_getaffinity (a fork is unsafe with the macOS system
    frameworks, and Windows has none), and one in a process that already
    runs other threads, because a fork copies only the calling thread and
    a lock another thread holds would stay locked in the worker."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0))
    return cpus // blas_threads(cpus)
