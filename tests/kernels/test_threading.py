"""Kernel thread budget: resolution order and result invariance."""

import numpy as np
import pytest

from repro.kernels.distance import kneighbors, pairwise_distances
from repro.runtime import (
    RunContext,
    configure,
    map_blocks,
    resolve_num_threads,
)


@pytest.fixture(autouse=True)
def restore_threads():
    yield
    configure(num_threads=None)


class TestThreadControl:
    def test_set_get_round_trip(self):
        configure(num_threads=3)
        assert resolve_num_threads() == 3
        with RunContext(num_threads=2):
            assert resolve_num_threads() == 2
        assert resolve_num_threads() == 3
        configure(num_threads=None)
        assert resolve_num_threads() >= 1

    def test_env_var_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "5")
        assert resolve_num_threads() == 5
        monkeypatch.setenv("REPRO_NUM_THREADS", "not-a-number")
        assert resolve_num_threads() >= 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RunContext(num_threads=0)
        with pytest.raises(ValueError):
            configure(num_threads=0)


class TestThreadInvariance:
    """Any thread count must return bit-identical results."""

    def test_pairwise_identical_across_thread_counts(self, rng):
        A = rng.normal(size=(300, 6))
        B = rng.normal(size=(120, 6))
        with RunContext(num_threads=1):
            serial = pairwise_distances(A, B, chunk_size=64)
        for n in (2, 4):
            with RunContext(num_threads=n):
                np.testing.assert_array_equal(
                    pairwise_distances(A, B, chunk_size=64), serial)

    def test_kneighbors_identical_across_thread_counts(self, rng):
        X = rng.normal(size=(250, 5))
        with RunContext(num_threads=1):
            d1, i1 = kneighbors(X, X, 7, exclude_self=True, chunk_size=32)
        for n in (2, 4):
            with RunContext(num_threads=n):
                d_n, i_n = kneighbors(X, X, 7, exclude_self=True,
                                      chunk_size=32)
            np.testing.assert_array_equal(d_n, d1)
            np.testing.assert_array_equal(i_n, i1)

    def test_worker_exception_propagates(self):
        def boom(block):
            raise RuntimeError(f"boom on {block}")

        with RunContext(num_threads=2), pytest.raises(RuntimeError,
                                                      match="boom"):
            map_blocks(boom, [(0, 1), (1, 2), (2, 3)])
