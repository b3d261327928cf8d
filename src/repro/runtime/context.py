"""RunContext: one scoped, immutable execution configuration.

Before this module, run configuration was three mechanisms that could not
see each other: a process-global kernel thread count, an ``n_jobs``
argument threaded by hand through the experiment harness, and environment
variables read mid-computation wherever a consumer happened to need them.
A
:class:`RunContext` replaces all of that with a single first-class value
holding the run's **seed policy, thread budget, job budget, cache
enablement, and dtype default** — scoped with a context manager,
serialisable into artifact manifests and cache metadata, and resolved
everywhere through one order:

    explicit argument  >  active context  >  environment variable  >  default

Environment variables (``REPRO_NUM_THREADS``, ``REPRO_BENCH_JOBS``,
``REPRO_BENCH_CACHE``, ``REPRO_FAULTS``) are read **only** inside
:meth:`RunContext.from_env` — one audited construction site instead of
ad-hoc reads scattered through consumers.  A constructed context freezes
the values it was built from; fully-unconfigured resolution consults the
environment (through a fresh ``from_env``) at each resolution point.

Scoping rules
-------------
``with RunContext(num_threads=2):`` pushes a context for the current
thread; on exit (normal or exceptional) the previous configuration is
restored exactly.  Nested scoped contexts merge: fields left ``None``
inherit from the enclosing scoped context.  :func:`configure` maintains a
process-global base context underneath every scope: fields a scoped
context leaves ``None`` fall through to the **live** base at resolution
time, so entering a scope never freezes unrelated global configuration.
Contexts do **not** leak into raw threads — they propagate through
:class:`repro.runtime.Executor` and :func:`repro.runtime.start_worker`,
which capture the creating thread's scoped context and re-activate it in
their workers (splitting the thread budget cooperatively).

None of these knobs ever changes results — only wall-clock time and
provenance metadata.  The ``seed`` field is the one exception by design:
it supplies the *default* seed for components whose ``random_state`` was
left unset, pinning otherwise-entropy-seeded runs.
"""

from __future__ import annotations

import os
import threading

from repro.api.params import ParamsMixin

__all__ = [
    "RunContext",
    "active_context",
    "configure",
    "configured_context",
    "current_context",
    "describe",
    "resolve_cache_dir",
    "resolve_cache_enabled",
    "resolve_dtype",
    "resolve_faults",
    "resolve_n_jobs",
    "resolve_num_threads",
    "resolve_seed",
    "resolved",
    "snapshot",
]

_FIELDS = ("seed", "num_threads", "n_jobs", "cache", "cache_dir", "dtype",
           "faults")
_DTYPES = ("float32", "float64")

_lock = threading.Lock()
_base: "RunContext | None" = None  # process-global configured base
_tls = threading.local()  # per-thread stack of entered contexts


def _tls_stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def _parse_positive_int(raw) -> int | None:
    """``None`` for missing/blank/unparseable values (resolution falls
    through to the next source); parseable values clamp to >= 1 — a
    user pinning ``REPRO_NUM_THREADS=0`` means "as little as possible",
    which must resolve to 1, never fall through to the CPU count."""
    if raw is None:
        return None
    raw = str(raw).strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return max(1, value)


class RunContext(ParamsMixin):
    """Immutable, scoped execution configuration.

    Parameters
    ----------
    seed : int or None
        Default seed for components whose ``random_state`` is unset
        (``None`` keeps today's fresh-entropy behaviour).  The one field
        that *does* affect results — that is its purpose.
    num_threads : int or None
        Thread budget for the shared distance kernels (and anything else
        consulting :func:`resolve_num_threads`).  An executor splits this
        budget across its workers.  Never changes results.
    n_jobs : int or None
        Worker budget for fan-out work (``ExperimentRunner`` grids).
        Never changes results.
    cache : bool or None
        Neighbor-kernel cache enablement (``None`` -> enabled).  Never
        changes results (cached graphs are bit-equal to direct queries).
    cache_dir : str or None
        Default directory for the on-disk experiment result cache
        (``REPRO_BENCH_CACHE`` is the environment equivalent).
    dtype : {'float32', 'float64'} or None
        Default training precision for components whose ``dtype`` is
        unset (``None`` -> float32, the historical default).
    faults : str or None
        Fault-injection plan for chaos testing (``REPRO_FAULTS`` is the
        environment equivalent; see :mod:`repro.resilience.faults` for
        the grammar).  ``None`` — the production default — means no
        injection: every hook is a no-op.  Like ``seed``, this field
        deliberately changes *behaviour* (it injects failures), but the
        standing bar still holds: scores that survive the injected
        faults are exactly equal to fault-free scores.

    All fields default to ``None`` — "inherit from the enclosing
    context, then the environment, then the built-in default".  The
    instance is immutable after construction; build variants with
    :meth:`derive`.
    """

    def __init__(self, seed=None, num_threads=None, n_jobs=None,
                 cache=None, cache_dir=None, dtype=None, faults=None):
        object.__setattr__(self, "_building", True)
        try:
            if seed is not None:
                seed = int(seed)
            if num_threads is not None:
                num_threads = int(num_threads)
                if num_threads < 1:
                    raise ValueError(
                        f"num_threads must be >= 1, got {num_threads}")
            if n_jobs is not None:
                n_jobs = int(n_jobs)
                if n_jobs < 1:
                    raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
            if cache is not None:
                cache = bool(cache)
            if cache_dir is not None:
                cache_dir = os.fspath(cache_dir)
            if dtype is not None:
                dtype = str(dtype)
                if dtype not in _DTYPES:
                    raise ValueError(
                        f"dtype must be one of {_DTYPES}, got {dtype!r}")
            if faults is not None:
                faults = str(faults)
                if not faults.strip():
                    faults = None
            self.seed = seed
            self.num_threads = num_threads
            self.n_jobs = n_jobs
            self.cache = cache
            self.cache_dir = cache_dir
            self.dtype = dtype
            self.faults = faults
        finally:
            object.__setattr__(self, "_building", False)

    # -- immutability ------------------------------------------------------
    def __setattr__(self, name, value):
        if name.startswith("_") or getattr(self, "_building", False):
            object.__setattr__(self, name, value)
            return
        raise AttributeError(
            f"RunContext is immutable; use derive({name}=...) to build a "
            f"modified copy"
        )

    def set_params(self, **params) -> "RunContext":
        """Refused: the ParamsMixin re-init path would mutate in place,
        silently changing resolution for every scope holding this
        instance (and breaking its value-based hash).  Build a modified
        copy with :meth:`derive` instead."""
        raise TypeError(
            "RunContext is immutable; use derive(...) to build a "
            "modified copy"
        )

    def __eq__(self, other):
        if not isinstance(other, RunContext):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self):
        return hash(tuple(getattr(self, f) for f in _FIELDS))

    # -- construction ------------------------------------------------------
    @classmethod
    def from_env(cls, environ=None) -> "RunContext":
        """The context described by the environment.

        The **only** place the runtime reads ``os.environ``: invalid or
        blank values resolve to ``None`` (the next source in the
        resolution order decides, rather than an error mid-run).
        """
        env = os.environ if environ is None else environ
        return cls(
            num_threads=_parse_positive_int(env.get("REPRO_NUM_THREADS")),
            n_jobs=_parse_positive_int(env.get("REPRO_BENCH_JOBS")),
            cache_dir=(env.get("REPRO_BENCH_CACHE") or None),
            faults=(env.get("REPRO_FAULTS") or None),
        )

    @classmethod
    def from_dict(cls, fields: dict) -> "RunContext":
        """Inverse of :meth:`to_dict` (unknown keys rejected)."""
        unknown = set(fields) - set(_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown RunContext field(s) {sorted(unknown)}; "
                f"valid: {list(_FIELDS)}"
            )
        return cls(**fields)

    def derive(self, **overrides) -> "RunContext":
        """A copy with ``overrides`` applied (explicit ``None`` clears)."""
        fields = self.to_dict()
        unknown = set(overrides) - set(_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown RunContext field(s) {sorted(unknown)}; "
                f"valid: {list(_FIELDS)}"
            )
        fields.update(overrides)
        return RunContext(**fields)

    def to_dict(self) -> dict:
        """The configured fields as plain JSON-able values."""
        return {name: getattr(self, name) for name in _FIELDS}

    # -- scoping -----------------------------------------------------------
    def __enter__(self) -> "RunContext":
        # Merge over the enclosing *scoped* context only — the global
        # base is consulted live at resolution time, so configure()
        # calls made while a scope is active still take effect for
        # fields the scope leaves None.
        merged = _merge(scoped_context(), self)
        _tls_stack().append(merged)
        return merged

    def __exit__(self, exc_type, exc, tb) -> bool:
        stack = _tls_stack()
        if stack:
            stack.pop()
        return False


def _merge(outer: RunContext | None, inner: RunContext) -> RunContext:
    """``inner`` fields win where set; ``None`` fields inherit ``outer``."""
    if outer is None:
        return inner
    fields = {}
    for name in _FIELDS:
        value = getattr(inner, name)
        fields[name] = value if value is not None else getattr(outer, name)
    return RunContext(**fields)


# -- active context ---------------------------------------------------------

def scoped_context() -> RunContext | None:
    """The innermost entered context of this thread (no base merged)."""
    stack = _tls_stack()
    return stack[-1] if stack else None


def active_context() -> RunContext | None:
    """The effective context: this thread's innermost scope over the
    **live** global base, else whichever of the two exists, else
    ``None``."""
    top = scoped_context()
    if top is None:
        return _base
    if _base is None:
        return top
    return _merge(_base, top)


def current_context() -> RunContext:
    """Like :func:`active_context` but never ``None`` (an empty context
    stands in when nothing is configured)."""
    ctx = active_context()
    return ctx if ctx is not None else RunContext()


def configure(**fields) -> RunContext | None:
    """Merge ``fields`` into the process-global base context.

    The programmatic equivalent of exporting an environment variable:
    every thread inherits it unless a scoped context overrides.  A field
    explicitly passed as ``None`` is cleared.
    """
    global _base
    unknown = set(fields) - set(_FIELDS)
    if unknown:
        raise ValueError(
            f"unknown RunContext field(s) {sorted(unknown)}; "
            f"valid: {list(_FIELDS)}"
        )
    with _lock:
        merged = _base.to_dict() if _base is not None else \
            {name: None for name in _FIELDS}
        merged.update(fields)
        if all(value is None for value in merged.values()):
            _base = None
        else:
            _base = RunContext(**merged)
        return _base


def configured_context() -> RunContext | None:
    """The process-global base context set via :func:`configure`."""
    return _base


# -- resolution -------------------------------------------------------------
# One order everywhere: explicit arg > active context > env var > default.

def resolve_num_threads(explicit=None) -> int:
    """Kernel worker-thread budget."""
    if explicit is not None:
        explicit = int(explicit)
        if explicit < 1:
            raise ValueError(f"num_threads must be >= 1, got {explicit}")
        return explicit
    ctx = active_context()
    if ctx is not None and ctx.num_threads is not None:
        return ctx.num_threads
    env = RunContext.from_env().num_threads
    if env is not None:
        return env
    return max(1, os.cpu_count() or 1)


def resolve_n_jobs(explicit=None) -> int:
    """Worker-process budget for fan-out grids."""
    if explicit is not None:
        explicit = int(explicit)
        if explicit < 1:
            raise ValueError(f"n_jobs must be >= 1, got {explicit}")
        return explicit
    ctx = active_context()
    if ctx is not None and ctx.n_jobs is not None:
        return ctx.n_jobs
    env = RunContext.from_env().n_jobs
    if env is not None:
        return env
    return 1


def resolve_seed(explicit=None):
    """Default seed for unseeded components (``None`` = fresh entropy)."""
    if explicit is not None:
        return explicit
    ctx = active_context()
    if ctx is not None:
        return ctx.seed
    return None


def resolve_cache_enabled(explicit=None) -> bool:
    """Neighbor-kernel cache enablement (default: enabled)."""
    if explicit is not None:
        return bool(explicit)
    ctx = active_context()
    if ctx is not None and ctx.cache is not None:
        return ctx.cache
    return True


def resolve_cache_dir(explicit=None):
    """Experiment result-cache directory (``None`` = caching off)."""
    if explicit is not None:
        return explicit
    ctx = active_context()
    if ctx is not None and ctx.cache_dir is not None:
        return ctx.cache_dir
    return RunContext.from_env().cache_dir


def resolve_faults(explicit=None):
    """Fault-injection plan spec (``None`` = no injection).

    Unlike the other knobs this one is consulted on hot paths (every
    request hook), so consumers should go through
    :func:`repro.resilience.faults.active_injector`, which caches the
    compiled plan per spec string.
    """
    if explicit is not None:
        explicit = str(explicit)
        return explicit if explicit.strip() else None
    ctx = active_context()
    if ctx is not None and ctx.faults is not None:
        return ctx.faults
    return RunContext.from_env().faults


def resolve_dtype(explicit=None) -> str:
    """Default training precision (historical default: float32)."""
    if explicit is not None:
        explicit = str(explicit)
        if explicit not in _DTYPES:
            raise ValueError(
                f"dtype must be one of {_DTYPES}, got {explicit!r}")
        return explicit
    ctx = active_context()
    if ctx is not None and ctx.dtype is not None:
        return ctx.dtype
    return "float32"


# -- introspection ----------------------------------------------------------

def resolved() -> dict:
    """Every field fully resolved (context + environment + defaults)."""
    return {
        "seed": resolve_seed(),
        "num_threads": resolve_num_threads(),
        "n_jobs": resolve_n_jobs(),
        "cache": resolve_cache_enabled(),
        "cache_dir": resolve_cache_dir(),
        "dtype": resolve_dtype(),
        "faults": resolve_faults(),
    }


def snapshot() -> dict:
    """The configured context plus its resolution, for manifests and
    cache metadata: a saved model or cached sweep cell states exactly
    how it was produced."""
    return {"context": current_context().to_dict(), "resolved": resolved()}


_DEFAULTS = {"seed": None, "num_threads": "cpu count", "n_jobs": 1,
             "cache": True, "cache_dir": None, "dtype": "float32",
             "faults": None}


def describe() -> list:
    """Per-field ``{field, value, source}`` rows for ``repro
    runtime-info``: which layer of the resolution order decided each
    value."""
    ctx = current_context()
    env = RunContext.from_env()
    values = resolved()
    rows = []
    for name in _FIELDS:
        if getattr(ctx, name) is not None:
            source = "context"
        elif getattr(env, name, None) is not None:
            source = "env"
        else:
            source = "default"
        rows.append({"field": name, "value": values[name], "source": source})
    return rows
