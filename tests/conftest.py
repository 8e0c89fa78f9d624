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
