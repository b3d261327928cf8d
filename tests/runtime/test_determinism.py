"""Cross-backend / cross-budget determinism: the hard acceptance bar.

Scores from the same spec + seed must be exactly ``np.array_equal``
across the ``serial`` / ``thread`` / ``process`` executor backends and
across thread budgets 1 / 2 / 4 — execution configuration is provenance,
never arithmetic.
"""

import numpy as np
import pytest

from repro.data.preprocessing import StandardScaler
from repro.data.synthetic import make_anomaly_dataset
from repro.detectors.registry import make_detector
from repro.experiments.harness import ExperimentRunner, run_grid
from repro.runtime import (
    BACKENDS,
    Executor,
    RunContext,
    configure,
    configured_context,
)

FAST = {"n_iterations": 2,
        "booster_kwargs": {"hidden": 16, "epochs_per_iteration": 2}}

# Neighbor detectors exercise the threaded kernels + shared graph cache;
# IForest/HBOS cover the rng-heavy and deterministic families.
BANK = ("KNN", "LOF", "ABOD", "IForest", "HBOS")


@pytest.fixture(scope="module")
def data():
    ds = make_anomaly_dataset("local", n_inliers=220, n_anomalies=30,
                              n_features=6, random_state=0)
    return StandardScaler().fit_transform(ds.X)


def _fit_scores(arg):
    """(detector name, standardized X) -> fitted training scores."""
    name, X = arg
    return make_detector(name, random_state=0).fit(X).decision_scores_


@pytest.fixture(scope="module")
def grid_datasets():
    return tuple(
        make_anomaly_dataset("global", n_inliers=110, n_anomalies=12,
                             n_features=4, random_state=seed)
        for seed in (2, 5)
    )


class TestDetectorBank:
    def test_scores_identical_across_backends(self, data):
        tasks = [(name, data) for name in BANK]
        per_backend = {
            backend: Executor(backend, max_workers=2).map(_fit_scores,
                                                          tasks)
            for backend in BACKENDS
        }
        for backend in ("thread", "process"):
            for ref, got in zip(per_backend["serial"], per_backend[backend]):
                assert np.array_equal(ref, got), backend

    def test_scores_identical_across_thread_budgets(self, data):
        per_budget = {}
        for budget in (1, 2, 4):
            with RunContext(num_threads=budget):
                per_budget[budget] = [
                    _fit_scores((name, data)) for name in BANK]
        for budget in (2, 4):
            for ref, got in zip(per_budget[1], per_budget[budget]):
                assert np.array_equal(ref, got), budget


class TestGrid:
    def test_grid_identical_across_backends(self, grid_datasets):
        grid = dict(detectors=("IForest", "KNN"), datasets=grid_datasets,
                    seeds=(0,), **FAST)
        reference = run_grid(backend="serial", **grid)
        for backend in ("thread", "process"):
            assert run_grid(n_jobs=2, backend=backend, **grid) == reference

    def test_grid_identical_across_budgets(self, grid_datasets):
        grid = dict(detectors=("KNN",), datasets=grid_datasets[:1],
                    seeds=(0,), **FAST)
        reference = run_grid(num_threads=1, **grid)
        for budget in (2, 4):
            assert run_grid(num_threads=budget, **grid) == reference
        with RunContext(num_threads=2, n_jobs=2):
            assert run_grid(**grid) == reference

    def test_runner_restores_threads_when_a_cell_raises(self, grid_datasets):
        """Regression: a raising worker must not leak the grid's thread
        configuration into the caller's."""
        # The invalid n_bins only surfaces when the cell builds the
        # spec, i.e. mid-grid, after the runner set up worker contexts.
        bad = {"type": "HBOS", "params": {"n_bins": -1}}
        try:
            configure(num_threads=2)
            with pytest.raises(ValueError):
                run_grid(detectors=("IForest", bad),
                         datasets=grid_datasets[:1], seeds=(0,),
                         num_threads=1, **FAST)
            assert configured_context().num_threads == 2
        finally:
            configure(num_threads=None)

    def test_cache_records_runtime_snapshot(self, grid_datasets, tmp_path):
        run_grid(detectors=("HBOS",), datasets=grid_datasets[:1],
                 seeds=(0,), cache_dir=tmp_path, num_threads=2, **FAST)
        import json

        (entry,) = tmp_path.glob("*.json")
        doc = json.loads(entry.read_text())
        assert doc["runtime"]["executor"]["worker_threads"] == 2
        assert set(doc["runtime"]["resolved"]) >= {"num_threads", "seed"}
        assert set(doc["result"]) >= {"detector", "dataset", "seed"}
        # And the wrapped entry round-trips as a cache hit.
        messages = []
        again = run_grid(detectors=("HBOS",), datasets=grid_datasets[:1],
                         seeds=(0,), cache_dir=tmp_path,
                         progress=messages.append, **FAST)
        assert "[cached]" in messages[0]
        assert again[0].detector == "HBOS"


class TestSeedPolicy:
    def test_context_seed_pins_unseeded_boosters(self, grid_datasets):
        from repro.core import UADBooster

        ds = grid_datasets[0]
        X = StandardScaler().fit_transform(ds.X)
        source = make_detector("HBOS").fit(X).fit_scores()

        def boost(**kwargs):
            booster = UADBooster(n_iterations=2, hidden=16,
                                 epochs_per_iteration=2, **kwargs)
            return booster.fit(X, source).scores_

        with RunContext(seed=7):
            a = boost()
            b = boost()
        assert np.array_equal(a, b)  # pinned by the context seed
        # The context seed is exactly a default random_state.
        assert np.array_equal(a, boost(random_state=7))

    def test_context_dtype_default(self, grid_datasets):
        from repro.core.ensemble import FoldEnsemble

        ds = grid_datasets[0]
        with RunContext(dtype="float64"):
            ens = FoldEnsemble(random_state=0).initialize(ds.X)
        assert ens._dtype == np.dtype("float64")
        # Pinned at initialize: later contexts cannot re-interpret it.
        with RunContext(dtype="float32"):
            assert ens._dtype == np.dtype("float64")
        # Explicit construction wins over the context.
        with RunContext(dtype="float64"):
            explicit = FoldEnsemble(dtype="float32", random_state=0)
            explicit.initialize(ds.X)
        assert explicit._dtype == np.dtype("float32")
