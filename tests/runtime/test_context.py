"""RunContext: resolution order, scoping, immutability, serialisation."""

import pytest

from repro.runtime import (
    RunContext,
    configure,
    configured_context,
    current_context,
    describe,
    resolve_cache_dir,
    resolve_cache_enabled,
    resolve_dtype,
    resolve_n_jobs,
    resolve_num_threads,
    resolve_seed,
    resolved,
    snapshot,
)


@pytest.fixture(autouse=True)
def clean_runtime(monkeypatch):
    """Each test starts from an unconfigured runtime and leaves none."""
    for var in ("REPRO_NUM_THREADS", "REPRO_BENCH_JOBS",
                "REPRO_BENCH_CACHE"):
        monkeypatch.delenv(var, raising=False)
    configure(**{f: None for f in ("seed", "num_threads", "n_jobs",
                                   "cache", "cache_dir", "dtype")})
    yield
    configure(**{f: None for f in ("seed", "num_threads", "n_jobs",
                                   "cache", "cache_dir", "dtype")})


class TestResolutionOrder:
    """explicit arg > active context > env var > default, every field."""

    def test_default_when_nothing_configured(self):
        assert resolve_num_threads() >= 1
        assert resolve_n_jobs() == 1
        assert resolve_seed() is None
        assert resolve_cache_enabled() is True
        assert resolve_cache_dir() is None
        assert resolve_dtype() == "float32"

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "5")
        monkeypatch.setenv("REPRO_BENCH_JOBS", "3")
        monkeypatch.setenv("REPRO_BENCH_CACHE", "/tmp/bench-cache")
        assert resolve_num_threads() == 5
        assert resolve_n_jobs() == 3
        assert resolve_cache_dir() == "/tmp/bench-cache"

    def test_context_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "5")
        with RunContext(num_threads=2):
            assert resolve_num_threads() == 2
        assert resolve_num_threads() == 5

    def test_explicit_beats_context(self):
        with RunContext(num_threads=2, n_jobs=2):
            assert resolve_num_threads(7) == 7
            assert resolve_n_jobs(7) == 7

    def test_invalid_env_falls_through(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "not-a-number")
        assert resolve_num_threads() >= 1
        monkeypatch.setenv("REPRO_BENCH_JOBS", "0")
        assert resolve_n_jobs() == 1

    def test_env_zero_clamps_to_one_not_cpu_count(self, monkeypatch):
        """REPRO_NUM_THREADS=0 means 'as little as possible' (the pre-
        runtime clamp); it must resolve to 1, never fall through to the
        CPU count."""
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setenv("REPRO_NUM_THREADS", "0")
        assert resolve_num_threads() == 1
        monkeypatch.setenv("REPRO_NUM_THREADS", "-3")
        assert resolve_num_threads() == 1

    def test_env_read_at_construction_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "4")
        ctx = RunContext.from_env()
        monkeypatch.setenv("REPRO_NUM_THREADS", "9")
        # The constructed context froze the value it was built from.
        assert ctx.num_threads == 4


class TestScoping:
    def test_nested_contexts_merge(self):
        with RunContext(seed=5):
            with RunContext(num_threads=2) as inner:
                assert inner.seed == 5  # inherited from the outer scope
                assert resolve_seed() == 5
                assert resolve_num_threads() == 2
            assert resolve_seed() == 5

    def test_restored_on_exception(self):
        with RunContext(num_threads=3):
            with pytest.raises(RuntimeError, match="boom"):
                with RunContext(num_threads=7):
                    assert resolve_num_threads() == 7
                    raise RuntimeError("boom")
            assert resolve_num_threads() == 3

    def test_configure_is_the_global_base(self):
        configure(num_threads=2)
        assert configured_context().num_threads == 2
        assert resolve_num_threads() == 2
        with RunContext(num_threads=6):
            assert resolve_num_threads() == 6
        assert resolve_num_threads() == 2
        configure(num_threads=None)
        assert configured_context() is None

    def test_base_stays_live_under_a_scope(self):
        """Regression: entering a scope must not freeze the global base
        — configure() calls made inside the scope still take effect for
        fields the scope leaves None (the CLI wraps every command in a
        RunContext, so a frozen base would make configure() a no-op
        there)."""
        with RunContext(seed=0):
            configure(num_threads=2)
            assert resolve_num_threads() == 2
            assert resolve_seed() == 0
            configure(num_threads=4)
            assert resolve_num_threads() == 4
        assert resolve_num_threads() == 4

    def test_scope_overrides_survive_base_changes(self):
        with RunContext(num_threads=6):
            configure(num_threads=2)
            assert resolve_num_threads() == 6  # scoped field wins
        assert resolve_num_threads() == 2

    def test_contexts_do_not_leak_across_threads(self):
        import threading

        from repro.runtime import active_context

        seen = []
        with RunContext(num_threads=5):
            thread = threading.Thread(
                target=lambda: seen.append(active_context()))
            thread.start()
            thread.join()
        # A raw thread does not inherit the scoped context (executors
        # and start_worker are the propagation mechanisms).
        assert seen[0] is None


class TestImmutability:
    def test_field_assignment_raises(self):
        ctx = RunContext(num_threads=2)
        with pytest.raises(AttributeError, match="immutable"):
            ctx.num_threads = 4

    def test_derive_builds_a_copy(self):
        ctx = RunContext(num_threads=2, seed=1)
        child = ctx.derive(num_threads=8)
        assert (ctx.num_threads, child.num_threads) == (2, 8)
        assert child.seed == 1
        assert child.derive(seed=None).seed is None  # explicit clear

    def test_set_params_refused(self):
        # ParamsMixin.set_params would re-run __init__ in place, quietly
        # defeating the immutability guarantee.
        with pytest.raises(TypeError, match="immutable"):
            RunContext(num_threads=2).set_params(seed=1)

    def test_derive_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown RunContext field"):
            RunContext().derive(cores=4)

    def test_validation(self):
        with pytest.raises(ValueError):
            RunContext(num_threads=0)
        with pytest.raises(ValueError):
            RunContext(n_jobs=0)
        with pytest.raises(ValueError):
            RunContext(dtype="float16")


class TestSerialisation:
    def test_dict_round_trip(self):
        ctx = RunContext(seed=3, num_threads=2, cache=False,
                         dtype="float64")
        assert RunContext.from_dict(ctx.to_dict()) == ctx

    def test_spec_round_trip(self):
        from repro.api import build_spec, to_spec

        ctx = RunContext(num_threads=4, n_jobs=2)
        spec = to_spec(ctx)
        assert spec["type"] == "RunContext"
        assert build_spec(spec) == ctx

    def test_snapshot_shape(self):
        with RunContext(num_threads=2):
            snap = snapshot()
        assert snap["context"]["num_threads"] == 2
        assert snap["resolved"]["num_threads"] == 2
        assert set(snap["resolved"]) == {"seed", "num_threads", "n_jobs",
                                         "cache", "cache_dir", "dtype",
                                         "faults"}

    def test_describe_sources(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "5")
        with RunContext(n_jobs=2):
            rows = {row["field"]: row for row in describe()}
        assert rows["num_threads"]["source"] == "env"
        assert rows["n_jobs"]["source"] == "context"
        assert rows["dtype"] == {"field": "dtype", "value": "float32",
                                 "source": "default"}
        assert resolved()["cache"] is True
