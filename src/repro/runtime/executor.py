"""Pluggable executors with deterministic ordering and budget splitting.

:class:`Executor` is the single fan-out primitive of the repo: the
experiment grid, the chunked distance kernels, and the scoring service
all execute through it instead of constructing their own
``concurrent.futures`` pools.  Three backends share one contract:

* ``serial`` — the plain loop (also the reference semantics);
* ``thread`` — a :class:`~concurrent.futures.ThreadPoolExecutor`; right
  for GIL-releasing work (BLAS blocks) and cheap fan-out;
* ``process`` — a :class:`~concurrent.futures.ProcessPoolExecutor`;
  right for independent, picklable cells (experiment grids).

Two invariants make backends interchangeable:

**Deterministic ordering** — :meth:`Executor.map` returns results keyed
by *submission index*, never completion order, so any backend (and any
worker count) produces the identical result list.

**Cooperative budgeting** — each mapped task runs inside a derived
:class:`~repro.runtime.context.RunContext` whose thread budget is the
parent's split across the workers (``max(1, budget // workers)``): an
``n_jobs=4`` grid on 8 cores automatically gives each worker 2 kernel
threads instead of oversubscribing ``4 x 8`` GEMM threads, and a nested
executor inside a worker sees the shrunken budget and splits *that*.
The context is pushed/popped around every task (``finally``-guarded), so
worker failures can never leak configuration; process workers receive
the serialized context and activate it before running the task.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import (
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)

from repro.runtime.context import (
    RunContext,
    _tls_stack,
    current_context,
    resolve_num_threads,
    scoped_context,
)

__all__ = ["BACKENDS", "Executor", "map_blocks", "start_process",
           "start_worker"]

BACKENDS = ("serial", "thread", "process")


def _process_task(ctx_fields: dict, fn, item):
    """Run one task in a pool worker under the shipped context."""
    with RunContext(**ctx_fields):
        return fn(item)


class Executor:
    """Backend-pluggable deterministic ``map`` over independent tasks.

    Parameters
    ----------
    backend : {'serial', 'thread', 'process'}
    max_workers : int or None
        Worker budget; ``None`` resolves the active context's thread
        budget (``thread``), job budget (``process``), or 1 (``serial``).
    worker_threads : int or None
        Explicit per-worker kernel-thread budget.  ``None`` (default)
        splits the parent budget cooperatively: each worker gets
        ``max(1, resolve_num_threads() // workers)``.
    """

    def __init__(self, backend: str = "serial", max_workers=None,
                 worker_threads=None):
        if backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {backend!r}")
        if max_workers is None:
            if backend == "thread":
                max_workers = resolve_num_threads()
            elif backend == "process":
                from repro.runtime.context import resolve_n_jobs

                max_workers = resolve_n_jobs()
            else:
                max_workers = 1
        max_workers = int(max_workers)
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if worker_threads is not None:
            worker_threads = int(worker_threads)
            if worker_threads < 1:
                raise ValueError(
                    f"worker_threads must be >= 1, got {worker_threads}")
        self.backend = backend
        self.max_workers = max_workers
        self.worker_threads = worker_threads

    def _worker_context(self, n_workers: int) -> RunContext:
        """The context every task runs under: the caller's context with
        the thread budget split across (or pinned per) workers.

        Thread/serial workers carry only the caller's *scoped* fields —
        the process-global base stays a live fallback, so configure()
        calls keep working under them.  Process workers get the fully
        merged context baked in (the child process has no base).  The
        budget is split only when workers actually run concurrently:
        serial (and single-worker) execution keeps the full budget, one
        task at a time.
        """
        if self.backend == "process":
            ctx = current_context()
        else:
            ctx = scoped_context() or RunContext()
        if self.worker_threads is not None:
            return ctx.derive(num_threads=self.worker_threads)
        if self.backend == "serial" or n_workers <= 1:
            return ctx
        budget = resolve_num_threads()
        return ctx.derive(num_threads=max(1, budget // n_workers))

    def map(self, fn, items, on_result=None) -> list:
        """``[fn(item) for item in items]``, possibly in parallel.

        Results are keyed by submission index — identical to the serial
        loop for every backend and worker count.  ``on_result(index,
        result)`` fires from the coordinating thread as each task
        finishes (completion order — the hook for progress reporting and
        incremental cache writes).  The first task exception propagates
        after the pool drains; remaining results are discarded.
        """
        items = list(items)
        if not items:
            return []
        workers = min(self.max_workers, len(items))
        ctx = self._worker_context(workers)

        if self.backend == "serial" or workers == 1:
            results = []
            for index, item in enumerate(items):
                with ctx:
                    result = fn(item)
                results.append(result)
                if on_result is not None:
                    on_result(index, result)
            return results

        results = [None] * len(items)
        if self.backend == "thread":
            def run(item):
                with ctx:
                    return fn(item)

            with ThreadPoolExecutor(
                    max_workers=workers,
                    thread_name_prefix="repro-exec") as pool:
                futures = {pool.submit(run, item): index
                           for index, item in enumerate(items)}
                for future in as_completed(futures):
                    index = futures[future]
                    results[index] = future.result()
                    if on_result is not None:
                        on_result(index, results[index])
            return results

        # process backend: ship the derived context; workers activate it
        # before running the (picklable, module-level) task function.
        ctx_fields = ctx.to_dict()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_process_task, ctx_fields, fn, item): index
                for index, item in enumerate(items)
            }
            for future in as_completed(futures):
                index = futures[future]
                results[index] = future.result()
                if on_result is not None:
                    on_result(index, results[index])
        return results


def map_blocks(fn, blocks) -> None:
    """Run ``fn(block)`` for every block, threading when it can pay off.

    The kernel-side fan-out primitive (chunked distance blocks).  ``fn``
    must write results into preallocated disjoint output slices, so
    completion order is irrelevant and any thread count is bit-identical
    to the serial loop.  Each worker's context carries the split thread
    budget, so a nested ``map_blocks`` inside a block sees budget 1 (or
    its fair share) instead of re-fanning out — cooperative budgeting
    replaces the old re-entrancy guard.

    The pool is per-call: construction costs microseconds against the
    tens-of-milliseconds blocks that justify threading at all, and every
    call observes the current resolved budget exactly.
    """
    blocks = list(blocks)
    if not blocks:
        return
    n_threads = min(resolve_num_threads(), len(blocks))
    if n_threads <= 1 or len(blocks) <= 1:
        for block in blocks:
            fn(block)
        return
    Executor("thread", max_workers=n_threads).map(fn, blocks)


def _process_worker_main(ctx_fields: dict, fn, args, kwargs):
    """Entry point of a spawned worker process: activate the shipped
    context, then run ``fn`` under it for the process's whole lifetime."""
    with RunContext(**ctx_fields):
        fn(*args, **kwargs)


def start_process(fn, *args, name: str | None = None,
                  daemon: bool = True, **kwargs) -> multiprocessing.Process:
    """A long-lived worker process carrying the caller's context.

    The process-side twin of :func:`start_worker` — the sanctioned way to
    spawn a standalone worker process (e.g. a scoring-fleet shard owner)
    instead of constructing one by hand: the caller's fully merged
    :class:`RunContext` (scoped fields over the process-global base — the
    child has no base of its own) is serialized, shipped, and activated
    around ``fn``, exactly like :class:`Executor`'s process backend does
    for its pool workers.  ``fn`` must be a picklable module-level
    callable; the started :class:`multiprocessing.Process` is returned
    for lifecycle management (join / terminate / liveness checks).
    """
    ctx_fields = current_context().to_dict()
    process = multiprocessing.Process(
        target=_process_worker_main, args=(ctx_fields, fn, args, kwargs),
        name=name, daemon=daemon)
    process.start()
    return process


def start_worker(fn, *, name: str | None = None,
                 daemon: bool = True) -> threading.Thread:
    """A long-lived worker thread carrying the caller's context.

    Raw threads do not inherit scoped contexts; this is the sanctioned
    way to start one that does (e.g. the scoring service's micro-batch
    scorer): the creating thread's *scoped* context is captured and
    activated inside the worker for its whole lifetime.  The process-
    global base is deliberately not baked in — it stays a live fallback,
    so a later ``configure()`` still reaches a
    worker whose creator had no scoped override.
    """
    ctx = scoped_context()

    def run():
        if ctx is not None:
            _tls_stack().append(ctx)
        fn()

    thread = threading.Thread(target=run, name=name, daemon=daemon)
    thread.start()
    return thread
