import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or not
    reaped (a forked worker that outlived its experiment)."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no children at all
    state = "still running" if pid == 0 else f"pid {pid} exited, not reaped"
    pytest.fail(f"test left a child process ({state})")


def fake_cpus(monkeypatch, n, blas="1"):
    """Make CPUs 0..n-1 usable as far as the program can tell, with BLAS on
    `blas` threads (its default, every CPU, when None). A process pins
    itself to a subset with os.sched_setaffinity, and a forked process
    inherits the pin. Returns a one-item list that holds this process's
    CPU set."""
    mask = [set(range(n))]

    def setaffinity(pid, cpus):
        cpus = set(cpus)
        if pid != 0 or not cpus or not cpus <= set(range(n)):
            raise OSError(22, "Invalid argument")
        mask[0] = cpus

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(mask[0]))
    monkeypatch.setattr(os, "sched_setaffinity", setaffinity)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(key, raising=False)
    if blas is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)
    return mask
