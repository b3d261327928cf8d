"""In-memory spans recorded from outside the program.

The benchmark never edits ``src/``: it replaces public entry points of
each layer with thin wrappers that open a span around the original call.
A span is ``[name, start, end, parent, tag]`` — ``parent`` indexes the
span that was open on the same thread when it began, ``tag`` carries a
detector class, a request id, or a marker such as ``"ragged"``.  Spans
stay in a list until the run ends; nothing is written while timing.

``install_*`` functions are idempotent per process and are called before
the timed region (the sweep's fork-started workers inherit them).
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
import types
from contextlib import contextmanager

from stats import self_times


class Tracer:
    """Span recorder; ``enabled=False`` makes every wrapper a pass-through."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pid = os.getpid()

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        if self._pid != os.getpid():  # forked child: start its own record
            self.clear()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def clear(self) -> None:
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pid = os.getpid()

    def begin(self, name: str, tag=None) -> int:
        stack = self._stack()
        if tag is None:
            tag = getattr(self._local, "request_id", None)
        record = [name, time.perf_counter(), None,
                  stack[-1] if stack else None, tag]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def record(self, name: str, start: float, end: float, tag=None) -> None:
        """A finished span measured elsewhere (no parent)."""
        self._stack()
        with self._lock:
            self.spans.append([name, start, end, None, tag])

    @contextmanager
    def span(self, name: str, tag=None):
        if not self.enabled:
            yield
            return
        index = self.begin(name, tag)
        try:
            yield
        finally:
            self.end(index)

    def set_request_id(self, request_id) -> None:
        self._local.request_id = request_id

    def drain(self) -> list:
        spans, self.spans = self.spans, []
        return spans

    # -- wrapping --------------------------------------------------------
    def wrapper(self, fn, name: str, tag_fn=None):
        """``fn`` timed under span ``name`` (``tag_fn(*args)`` -> tag)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer.begin(
                name, tag_fn(*args, **kwargs) if tag_fn else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)

        traced.__wrapped_by_perfbench__ = True
        return traced

    def wrap(self, owner, attr: str, name: str, tag_fn=None) -> None:
        """Replace ``owner.attr`` (a class or module attribute)."""
        fn = getattr(owner, attr)
        if getattr(fn, "__wrapped_by_perfbench__", False):
            return
        setattr(owner, attr, self.wrapper(fn, name, tag_fn))

    def wrap_everywhere(self, fn, name: str) -> None:
        """Rebind every ``repro.*`` module global that is ``fn``."""
        traced = self.wrapper(fn, name)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, traced)


# ---------------------------------------------------------------------------
# Layer installers
# ---------------------------------------------------------------------------

def _cls_tag(self, *args, **kwargs):
    return type(self).__name__


def _ragged_tag(self, active=None):
    return "ragged" if active is not None else "full"


def install_training(tracer: Tracer) -> None:
    """repro.nn + repro.core: the booster's distillation loop."""
    from repro.core import booster, ensemble
    from repro.core.labels import variance_update
    from repro.core.variance import variance_history
    from repro.nn.batched import BatchedAdam, BatchedMLP
    from repro.nn.network import Sequential

    # BatchedMLP inherits forward/backward; wrap it before Sequential so
    # its wrappers hold the raw functions, not the per-fold ones.
    tracer.wrap(BatchedMLP, "forward", "nn.batched_forward")
    tracer.wrap(BatchedMLP, "backward", "nn.batched_backward")
    tracer.wrap(Sequential, "forward", "nn.seq_forward")
    tracer.wrap(Sequential, "backward", "nn.seq_backward")
    tracer.wrap(BatchedAdam, "step", "nn.adam_step", _ragged_tag)
    tracer.wrap(ensemble.FoldEnsemble, "train_round", "core.train_round")
    tracer.wrap(ensemble.FoldEnsemble, "predict_per_fold",
                "core.predict_per_fold")
    tracer.wrap(booster.UADBooster, "fit", "core.fit")
    tracer.wrap_everywhere(variance_history, "core.variance")
    tracer.wrap_everywhere(variance_update, "core.variance")


def install_detectors(tracer: Tracer) -> None:
    """repro.detectors + repro.kernels."""
    from repro.detectors.base import BaseDetector
    from repro.kernels import distance

    tracer.wrap(BaseDetector, "fit", "detectors.fit", _cls_tag)
    tracer.wrap(BaseDetector, "score_samples", "detectors.score_samples",
                _cls_tag)
    tracer.wrap_everywhere(distance.kneighbors, "kernels.kneighbors")
    tracer.wrap_everywhere(distance.pairwise_distances, "kernels.pairwise")


def install_experiments(tracer: Tracer) -> None:
    """repro.experiments: the cell body and its metric calls.

    ``_execute_cell`` is the picklable task the runner fans out; the
    replacement keeps its module and qualified name so the process
    backend still pickles it by reference, and fork-started workers
    inherit it.  It always times the cell (the sweep's own latency
    samples); with tracing on it also ships the worker's spans back on
    the result object.
    """
    from repro.experiments import harness

    original = harness._execute_cell
    if getattr(original, "__wrapped_by_perfbench__", False):
        return
    tracer.wrap_everywhere(harness.auc_roc, "experiments.metrics")
    tracer.wrap_everywhere(harness.average_precision, "experiments.metrics")

    def _execute_cell(spec):
        if tracer.enabled:
            tracer._stack()  # resets the record in a fresh fork
            tracer.drain()
        cpu0 = time.process_time()
        start = time.perf_counter()
        with tracer.span("experiments.cell"):
            result = original(spec)
        end = time.perf_counter()
        result._perfbench = {
            "start": start, "end": end, "pid": os.getpid(),
            "cpu_s": time.process_time() - cpu0,
            "blas_threads": blas_threads(),
            "spans": tracer.drain() if tracer.enabled else [],
        }
        return result

    _execute_cell.__module__ = original.__module__
    _execute_cell.__qualname__ = original.__qualname__
    _execute_cell.__wrapped_by_perfbench__ = True
    harness._execute_cell = _execute_cell


def install_serving(tracer: Tracer) -> None:
    """repro.serving, server side (called by the server launcher)."""
    import json

    from repro.serving import artifacts, server, service

    handler = server._ServingHandler
    do_post = handler.__dict__["do_POST"]

    def traced_post(self):
        if not tracer.enabled:
            return do_post(self)
        tracer.set_request_id(self.headers.get("X-Request-ID"))
        try:
            with tracer.span("serving.handler"):
                return do_post(self)
        finally:
            tracer.set_request_id(None)

    handler.do_POST = traced_post
    server.json = types.SimpleNamespace(
        loads=tracer.wrapper(json.loads, "serving.json.decode"),
        dumps=tracer.wrapper(json.dumps, "serving.json.encode"),
        JSONDecodeError=json.JSONDecodeError)

    svc = service.ScoringService
    tracer.wrap(svc, "score", "serving.service.score")
    submitted: dict = {}
    submit = svc.__dict__["_submit_request"]
    take = svc.__dict__["_take_batch"]

    def traced_submit(self, model_id, X, callback=None):
        request = submit(self, model_id, X, callback)
        if tracer.enabled:
            submitted[id(request)] = (time.perf_counter(),
                                      getattr(tracer._local, "request_id",
                                              None))
        return request

    def traced_take(self):
        batch = take(self)
        if tracer.enabled:
            now = time.perf_counter()
            ids = []
            for request in batch:
                start, rid = submitted.pop(id(request), (now, None))
                tracer.record("serving.queue_wait", start, now, rid)
                ids.append(rid)
            tracer.set_request_id(tuple(ids))
        return batch

    svc._submit_request = traced_submit
    svc._take_batch = traced_take
    score_fn = service._score_fn

    def traced_score_fn(model):
        return tracer.wrapper(score_fn(model), "serving.model.score")

    service._score_fn = traced_score_fn
    tracer.wrap(artifacts.ModelStore, "load", "serving.artifacts.load")


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def extend(spans: list, batch) -> None:
    """Append a drained batch to ``spans``, re-basing parent indices."""
    offset = len(spans)
    spans.extend([name, start, end, None if parent is None
                  else parent + offset, tag]
                 for name, start, end, parent, tag in batch)


def outermost(spans, name: str, tag_pred=None) -> list:
    """Indices of ``name`` spans with no ``name`` ancestor."""
    picked = []
    for i, (span_name, _, _, parent, tag) in enumerate(spans):
        if span_name != name or (tag_pred and not tag_pred(tag)):
            continue
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            picked.append(i)
    return picked


def has_ancestor(spans, index: int, name: str) -> bool:
    p = spans[index][3]
    while p is not None:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def busy(spans, name: str, tag_pred=None, under: str | None = None) -> float:
    """Total duration of the outermost ``name`` spans (optionally only
    those below an ``under`` span)."""
    total = 0.0
    for i in outermost(spans, name, tag_pred):
        if under is None or has_ancestor(spans, i, under):
            total += spans[i][2] - spans[i][1]
    return total


def count(spans, name: str, tag_pred=None) -> int:
    return sum(1 for s in spans
               if s[0] == name and (tag_pred is None or tag_pred(s[4])))


def self_time(spans, name: str) -> float:
    own = self_times([(s[1], s[2], s[3]) for s in spans])
    return sum(own[i] for i in outermost(spans, name))


# ---------------------------------------------------------------------------
# BLAS thread count through numpy's bundled OpenBLAS
# ---------------------------------------------------------------------------

_BLAS = {}


def _openblas():
    if "lib" not in _BLAS:
        import ctypes

        import numpy  # noqa: F401 - maps the bundled library

        lib = None
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line and line.split()[-1].startswith("/")}
        for path in sorted(paths):
            handle = ctypes.CDLL(path)
            for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
                get = getattr(handle, f"{prefix}openblas_get_num_threads"
                                      f"{suffix}", None)
                cfg = getattr(handle, f"{prefix}openblas_get_config"
                                      f"{suffix}", None)
                if get is not None:
                    get.restype, get.argtypes = ctypes.c_int, []
                    if cfg is not None:
                        cfg.restype, cfg.argtypes = ctypes.c_char_p, []
                    lib = (get, cfg)
                    break
            if lib:
                break
        _BLAS["lib"] = lib
    return _BLAS["lib"]


def blas_threads() -> int | None:
    """OpenBLAS threads in effect in this process (``None`` if unknown)."""
    lib = _openblas()
    return None if lib is None else int(lib[0]())


def blas_config() -> str | None:
    lib = _openblas()
    if lib is None or lib[1] is None:
        return None
    return lib[1]().decode(errors="replace").strip()
