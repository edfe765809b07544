"""Tests for shared-memory arrays."""

import multiprocessing as mp

import numpy as np
import pytest

from repro.parallel import SharedArray, fork_available


class TestSharedArray:
    def test_round_trip(self):
        with SharedArray((4, 3), np.float64) as shared:
            shared.array[:] = np.arange(12.0).reshape(4, 3)
            np.testing.assert_array_equal(
                shared.array, np.arange(12.0).reshape(4, 3))

    def test_zero_initialized(self):
        with SharedArray((5,), np.float32) as shared:
            assert not shared.array.any()

    def test_close_idempotent(self):
        shared = SharedArray((2,), np.float64)
        shared.close()
        shared.close()

    def test_writes_visible_across_fork(self):
        if not fork_available():
            pytest.skip("fork unavailable")
        with SharedArray((4,), np.float64) as shared:
            if not shared.is_shared:
                pytest.skip("no shared memory on this platform")
            array = shared.array

            def worker(tasks):
                for index, value in tasks:
                    array[index] = value  # child writes into the inherited map

            ctx = mp.get_context("fork")
            children = [ctx.Process(target=worker, args=(tasks,))
                        for tasks in ([(0, 1.5), (2, 3.5)],
                                      [(1, 2.5), (3, 4.5)])]
            for child in children:
                child.start()
            for child in children:
                child.join(timeout=30)
                assert child.exitcode == 0
            np.testing.assert_array_equal(array, [1.5, 2.5, 3.5, 4.5])
