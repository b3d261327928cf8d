"""Executor contract: deterministic ordering, budgets, workers."""

import threading
import time

import pytest

from repro.runtime import (
    BACKENDS,
    Executor,
    RunContext,
    resolve_num_threads,
    start_worker,
)

# Module-level so the process backend can pickle them.


def _square(x):
    return x * x


def _probe_threads(_):
    return resolve_num_threads()


def _jittered_identity(x):
    # Later submissions finish first: exposes completion-order bugs.
    time.sleep(0.02 * (3 - x % 4))
    return x


def _boom(x):
    if x == 2:
        raise RuntimeError(f"boom on {x}")
    return x


class TestOrdering:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_results_keyed_by_submission_index(self, backend):
        items = list(range(8))
        out = Executor(backend, max_workers=4).map(_jittered_identity, items)
        assert out == items

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_items(self, backend):
        assert Executor(backend, max_workers=2).map(_square, []) == []

    def test_on_result_sees_every_index_once(self):
        seen = {}
        Executor("thread", max_workers=3).map(
            _jittered_identity, list(range(6)),
            on_result=lambda i, r: seen.setdefault(i, r))
        assert seen == {i: i for i in range(6)}


class TestBudgets:
    def test_thread_budget_split_across_workers(self):
        with RunContext(num_threads=4):
            out = Executor("thread", max_workers=2).map(
                _probe_threads, [0, 1, 2, 3])
        assert out == [2, 2, 2, 2]

    def test_process_workers_receive_the_context(self):
        with RunContext(num_threads=4):
            out = Executor("process", max_workers=2).map(
                _probe_threads, [0, 1])
        assert out == [2, 2]

    def test_nested_executor_splits_the_shrunken_budget(self):
        def outer(_):
            return Executor("thread", max_workers=2).map(
                _probe_threads, [0, 1])

        with RunContext(num_threads=8):
            out = Executor("thread", max_workers=2).map(outer, [0, 1])
        # 8 // 2 workers -> 4 per worker; 4 // 2 nested workers -> 2.
        assert out == [[2, 2], [2, 2]]

    def test_explicit_worker_threads_wins(self):
        with RunContext(num_threads=8):
            out = Executor("thread", max_workers=2, worker_threads=3).map(
                _probe_threads, [0, 1])
        assert out == [3, 3]

    def test_budget_never_below_one(self):
        with RunContext(num_threads=2):
            out = Executor("thread", max_workers=2).map(
                lambda _: resolve_num_threads(), range(8))
        assert set(out) == {1}


class TestFailuresAndValidation:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_task_exception_propagates(self, backend):
        with pytest.raises(RuntimeError, match="boom"):
            Executor(backend, max_workers=2).map(_boom, [0, 1, 2, 3])

    def test_exception_leaves_context_clean(self):
        before = resolve_num_threads()
        with pytest.raises(RuntimeError):
            Executor("thread", max_workers=2,
                     worker_threads=7).map(_boom, [0, 1, 2, 3])
        assert resolve_num_threads() == before

    def test_invalid_backend(self):
        with pytest.raises(ValueError, match="backend"):
            Executor("greenlet")

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            Executor("thread", max_workers=0)
        with pytest.raises(ValueError):
            Executor("thread", max_workers=2, worker_threads=0)


class TestStartWorker:
    def test_unscoped_worker_follows_the_live_base(self):
        """Regression: a worker whose creator had no scoped context must
        honour configure() calls made after it started (the
        pre-runtime ScoringService behaviour)."""
        from repro.runtime import configure

        probes = []
        step = threading.Event()
        done = threading.Event()

        def loop():
            probes.append(resolve_num_threads())
            step.wait(5.0)
            probes.append(resolve_num_threads())
            done.set()

        try:
            worker = start_worker(loop, name="base-probe")
            configure(num_threads=3)
            step.set()
            assert done.wait(5.0)
            worker.join(5.0)
            assert probes[1] == 3
        finally:
            configure(num_threads=None)

    def test_worker_carries_the_callers_context(self):
        seen = []
        done = threading.Event()

        def loop():
            seen.append(resolve_num_threads())
            done.set()

        with RunContext(num_threads=6):
            worker = start_worker(loop, name="ctx-probe")
        assert done.wait(5.0)
        worker.join(5.0)
        assert seen == [6]
