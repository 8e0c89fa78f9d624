import os

import numpy as np

from hyperfed.processes import shared_copy


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
