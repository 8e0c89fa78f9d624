import os
import threading
import time

import numpy as np
import pytest
from conftest import fake_cpus

from hyperfed.config import ConfigError
from hyperfed.data import CsvFormatError
from hyperfed.numcore import LinearSolveError
from hyperfed.processes import (Forked, ProtocolError, process_slots,
                                shared_copy)


def test_shared_copy_sees_a_forked_childs_writes():
    a = np.arange(6, dtype=np.int64).reshape(2, 3)
    s = shared_copy(a)
    assert s.dtype == a.dtype and s.shape == a.shape
    assert np.array_equal(s, a) and not np.shares_memory(s, a)
    pid = os.fork()
    if pid == 0:  # the child writes the parent's pages
        status = 1
        try:
            s[1] = -1
            status = 0
        finally:
            os._exit(status)
    _, status = os.waitpid(pid, 0)
    assert status == 0
    assert np.array_equal(s, [[0, 1, 2], [-1, -1, -1]])
    assert np.array_equal(a, np.arange(6).reshape(2, 3))
    assert shared_copy(np.zeros(0)).shape == (0,)


def reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class Unpicklable(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None  # pickle cannot take a lambda


class TestForked:
    def test_replies_come_back_in_fork_order(self):
        def slow_echo(i, delay):
            time.sleep(delay)
            return i, os.getpid()

        with Forked() as workers:
            for i in range(3):
                workers.fork(slow_echo)
            pids = list(workers.pids)
            for job in range(2):  # each process serves job after job
                for i, conn in enumerate(workers.conns):
                    conn.send((i + job, 0.05 * (2 - i)))  # the first, last
                assert workers.replies() == [(i + job, pid)
                                             for i, pid in enumerate(pids)]
        assert all(reaped(pid) for pid in pids)

    @pytest.mark.parametrize("error", [ConfigError, CsvFormatError,
                                       LinearSolveError, ProtocolError])
    def test_error_comes_back_with_type_message_and_trace(self, error):
        def handle():
            raise error("raised in the worker")

        with Forked() as workers:
            workers.fork(handle).send(())
            pid, = workers.pids
            with pytest.raises(error) as info:
                workers.replies()
        assert type(info.value) is error
        assert str(info.value) == "raised in the worker"
        cause = str(info.value.__cause__)
        assert cause.startswith(f"in worker {pid}:\nTraceback")
        assert "in handle\n" in cause

    def test_error_pickle_cannot_take_names_its_type(self):
        def handle():
            raise Unpicklable("cannot pickle me")

        with Forked() as workers:
            workers.fork(handle).send(())
            with pytest.raises(RuntimeError) as info:
                workers.replies()
        assert type(info.value) is RuntimeError
        assert str(info.value) == "Unpicklable: cannot pickle me"
        assert "raise Unpicklable" in str(info.value.__cause__)

    def test_worker_that_exits_is_gone(self):
        with Forked() as workers:
            workers.fork(os._exit).send((3,))
            pid, = workers.pids
            with pytest.raises(ProtocolError, match=f"^worker {pid} is gone$"):
                workers.replies()
        assert reaped(pid)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_error_in_the_body_kills_and_reaps_busy_workers(self, error):
        start = time.monotonic()
        with pytest.raises(error):
            with Forked() as workers:
                for _ in range(2):
                    workers.fork(time.sleep).send((60,))
                pids = list(workers.pids)
                raise error
        assert time.monotonic() - start < 30
        assert all(reaped(pid) for pid in pids)


class TestProcessSlots:
    def test_one_slot_per_blas_pool(self, monkeypatch):
        """Usable CPUs over the threads one BLAS call may use:
        OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else every CPU."""
        for cpus, env, want in [
            (2, {}, 1),
            (4, {}, 1),
            (2, {"OPENBLAS_NUM_THREADS": "x"}, 1),
            (1, {"OPENBLAS_NUM_THREADS": "1"}, 1),
            (3, {"OPENBLAS_NUM_THREADS": "1"}, 3),
            (3, {"OMP_NUM_THREADS": "1"}, 3),
            (4, {"OPENBLAS_NUM_THREADS": "2"}, 2),
            (5, {"OPENBLAS_NUM_THREADS": "2"}, 2),
            (4, {"OPENBLAS_NUM_THREADS": "3"}, 1),
            (2, {"OPENBLAS_NUM_THREADS": "8"}, 1),
            (2, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2),
            (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
        ]:
            fake_cpus(monkeypatch, cpus, blas=None)
            for key, value in env.items():
                monkeypatch.setenv(key, value)
            assert process_slots() == want, (cpus, env)

    def test_one_slot_beside_other_threads(self, monkeypatch):
        fake_cpus(monkeypatch, 2)
        assert process_slots() == 2
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert process_slots() == 1
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_one_slot_where_the_platform_lacks_it(self, monkeypatch,
                                                  missing):
        fake_cpus(monkeypatch, 2)
        monkeypatch.delattr(os, missing)
        assert process_slots() == 1
