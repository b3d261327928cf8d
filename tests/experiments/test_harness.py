"""Tests for the experiment harness (small, fast configurations)."""

import pytest

from repro.data.synthetic import make_anomaly_dataset
from repro.experiments.harness import (
    DEFAULT_BENCH_DATASETS,
    ExperimentRunner,
    run_grid,
    run_single,
    run_variant,
    spec_label,
)

FAST = {"n_iterations": 2,
        "booster_kwargs": {"hidden": 16, "epochs_per_iteration": 2}}


@pytest.fixture(scope="module")
def tiny_dataset():
    return make_anomaly_dataset("global", n_inliers=130, n_anomalies=14,
                                n_features=4, random_state=2)


class TestRunSingle:
    def test_result_fields(self, tiny_dataset):
        result = run_single(tiny_dataset, "IForest", seed=0, **FAST)
        assert result.detector == "IForest"
        assert result.dataset == tiny_dataset.name
        assert 0.0 <= result.source_auc <= 1.0
        assert 0.0 <= result.booster_ap <= 1.0
        assert len(result.iteration_auc) == 2

    def test_improvement_properties(self, tiny_dataset):
        result = run_single(tiny_dataset, "HBOS", seed=0, **FAST)
        assert result.auc_improvement == pytest.approx(
            result.booster_auc - result.source_auc)
        assert result.ap_improvement == pytest.approx(
            result.booster_ap - result.source_ap)

    def test_seed_changes_result(self, tiny_dataset):
        a = run_single(tiny_dataset, "IForest", seed=0, **FAST)
        b = run_single(tiny_dataset, "IForest", seed=1, **FAST)
        assert a.booster_auc != b.booster_auc

    def test_history_disabled_skips_iterations(self, tiny_dataset):
        result = run_single(
            tiny_dataset, "IForest", seed=0, n_iterations=2,
            booster_kwargs={"hidden": 16, "epochs_per_iteration": 2,
                            "record_history": False})
        assert result.iteration_auc == []


class TestRunVariant:
    @pytest.mark.parametrize("variant", ["naive", "self"])
    def test_variant_metrics(self, tiny_dataset, variant):
        out = run_variant(tiny_dataset, "HBOS", variant, n_iterations=2,
                          seed=0,
                          variant_kwargs={"hidden": 16,
                                          "epochs_per_iteration": 2})
        assert out["variant"] == variant
        assert 0.0 <= out["auc"] <= 1.0
        assert 0.0 <= out["source_ap"] <= 1.0


class TestRunGrid:
    def test_grid_size(self, tiny_dataset):
        results = run_grid(detectors=("IForest", "HBOS"),
                           datasets=(tiny_dataset,), seeds=(0, 1), **FAST)
        assert len(results) == 4

    def test_named_datasets_loaded(self):
        results = run_grid(detectors=("HBOS",), datasets=("glass",),
                           seeds=(0,), max_samples=150, max_features=6,
                           **FAST)
        assert results[0].dataset == "glass"

    def test_progress_callback(self, tiny_dataset):
        messages = []
        run_grid(detectors=("HBOS",), datasets=(tiny_dataset,), seeds=(0,),
                 progress=messages.append, **FAST)
        assert len(messages) == 1
        assert "HBOS" in messages[0]
        assert "[1/1]" in messages[0]

    def test_default_bench_datasets_are_registered(self):
        from repro.data.registry import DATASET_NAMES
        for name in DEFAULT_BENCH_DATASETS:
            assert name in DATASET_NAMES


@pytest.fixture(scope="module")
def second_dataset():
    return make_anomaly_dataset("local", n_inliers=120, n_anomalies=12,
                                n_features=4, random_state=5)


class TestExperimentRunner:
    GRID = {"detectors": ("IForest", "HBOS"), "seeds": (0,)}

    def test_parallel_matches_serial(self, tiny_dataset, second_dataset):
        datasets = (tiny_dataset, second_dataset)
        serial = run_grid(datasets=datasets, **self.GRID, **FAST)
        parallel = run_grid(datasets=datasets, n_jobs=2, **self.GRID, **FAST)
        assert parallel == serial

    def test_cache_roundtrip_exact(self, tiny_dataset, second_dataset,
                                   tmp_path):
        datasets = (tiny_dataset, second_dataset)
        first = run_grid(datasets=datasets, cache_dir=tmp_path,
                         **self.GRID, **FAST)
        assert len(list(tmp_path.glob("*.json"))) == 4
        messages = []
        second = run_grid(datasets=datasets, cache_dir=tmp_path,
                          progress=messages.append, **self.GRID, **FAST)
        assert second == first
        assert all("[cached]" in msg for msg in messages)

    def test_cache_keyed_on_config(self, tiny_dataset, tmp_path):
        run_grid(detectors=("HBOS",), datasets=(tiny_dataset,), seeds=(0,),
                 cache_dir=tmp_path, **FAST)
        run_grid(detectors=("HBOS",), datasets=(tiny_dataset,), seeds=(1,),
                 cache_dir=tmp_path, **FAST)
        run_grid(detectors=("HBOS",), datasets=(tiny_dataset,), seeds=(0,),
                 cache_dir=tmp_path, n_iterations=3,
                 booster_kwargs=FAST["booster_kwargs"])
        assert len(list(tmp_path.glob("*.json"))) == 3

    def test_corrupt_cache_entry_is_recomputed(self, tiny_dataset, tmp_path):
        first = run_grid(detectors=("HBOS",), datasets=(tiny_dataset,),
                         seeds=(0,), cache_dir=tmp_path, **FAST)
        (entry,) = tmp_path.glob("*.json")
        entry.write_text("{not json")
        again = run_grid(detectors=("HBOS",), datasets=(tiny_dataset,),
                         seeds=(0,), cache_dir=tmp_path, **FAST)
        assert again == first

    def test_invalid_n_jobs(self):
        with pytest.raises(ValueError):
            ExperimentRunner(n_jobs=0)


class TestSpecCells:
    def test_name_and_equivalent_spec_match_exactly(self, tiny_dataset):
        by_name = run_single(tiny_dataset, "IForest", seed=0, **FAST)
        by_spec = run_single(tiny_dataset,
                             {"type": "IForest", "params": {}},
                             seed=0, **FAST)
        assert by_spec == by_name  # including the bare-name label

    def test_live_default_estimator_labels_as_bare_name(self, tiny_dataset):
        from repro.detectors import HBOS

        by_name = run_single(tiny_dataset, "HBOS", seed=0, **FAST)
        by_instance = run_single(tiny_dataset, HBOS(), seed=0, **FAST)
        assert by_instance == by_name

    def test_parameterised_spec_gets_hash_label(self, tiny_dataset):
        spec = {"type": "HBOS", "params": {"n_bins": 4}}
        result = run_single(tiny_dataset, spec, seed=0, **FAST)
        assert result.detector.startswith("HBOS@")
        assert spec_label(spec) == result.detector

    def test_pipeline_spec_as_source(self, tiny_dataset):
        spec = {"type": "Pipeline", "params": {"steps": [
            ["scaler", {"type": "MinMaxScaler", "params": {}}],
            ["det", {"type": "HBOS", "params": {}}],
        ]}}
        result = run_single(tiny_dataset, spec, seed=0, **FAST)
        assert result.detector.startswith("Pipeline@")
        assert 0.0 <= result.booster_auc <= 1.0

    def test_grid_mixes_names_and_specs(self, tiny_dataset):
        results = run_grid(
            detectors=("HBOS", {"type": "HBOS", "params": {"n_bins": 4}}),
            datasets=(tiny_dataset,), seeds=(0,), **FAST)
        assert [r.detector for r in results][0] == "HBOS"
        assert results[1].detector.startswith("HBOS@")

    def test_cache_key_is_canonical_spec(self, tiny_dataset, tmp_path):
        # A name and its explicit-spec twin share one cache entry; a
        # parameter change is a miss.
        run_grid(detectors=("HBOS",), datasets=(tiny_dataset,), seeds=(0,),
                 cache_dir=tmp_path, **FAST)
        messages = []
        run_grid(detectors=({"type": "HBOS", "params": {}},),
                 datasets=(tiny_dataset,), seeds=(0,), cache_dir=tmp_path,
                 progress=messages.append, **FAST)
        assert len(list(tmp_path.glob("*.json"))) == 1
        assert "[cached]" in messages[0]
        run_grid(detectors=({"type": "HBOS", "params": {"n_bins": 4}},),
                 datasets=(tiny_dataset,), seeds=(0,), cache_dir=tmp_path,
                 **FAST)
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_unknown_spec_type_raises(self, tiny_dataset):
        with pytest.raises(KeyError):
            run_grid(detectors=("NotAModel",), datasets=(tiny_dataset,),
                     seeds=(0,), **FAST)


class TestSharedNeighborKernel:
    def test_one_knn_build_per_dataset_fingerprint(self):
        """The acceptance bar for the shared kernel backend: a grid over
        the 5 neighbor-based detectors builds each dataset's k-NN graph
        exactly once (every cell standardizes the same dataset to the
        same bytes, so later cells hit the process-wide cache)."""
        import repro.kernels as kernels

        datasets = [
            make_anomaly_dataset("local", n_inliers=120, n_anomalies=15,
                                 n_features=5, random_state=seed)
            for seed in (0, 1)
        ]
        kernels.clear_cache()
        runner = ExperimentRunner(n_jobs=1)
        results = runner.run_grid(
            detectors=("KNN", "LOF", "COF", "SOD", "ABOD"),
            datasets=datasets, seeds=(0,), **FAST)
        assert len(results) == 10
        stats = kernels.cache_stats()
        assert stats["graph_builds"] == len(datasets)
        assert stats["builds"] == len(datasets)
        assert stats["hits"] >= 4 * len(datasets)
        kernels.clear_cache()

    def test_num_threads_does_not_change_results(self, tiny_dataset):
        from repro.runtime import configure

        try:
            a = run_grid(detectors=("KNN",), datasets=(tiny_dataset,),
                         seeds=(0,), num_threads=1, **FAST)
            b = run_grid(detectors=("KNN",), datasets=(tiny_dataset,),
                         seeds=(0,), num_threads=4, **FAST)
        finally:
            configure(num_threads=None)
        assert a[0] == b[0]

    def test_num_threads_validation(self):
        with pytest.raises(ValueError):
            ExperimentRunner(num_threads=0)

    def test_worker_threads_split_cooperatively(self, monkeypatch):
        """Grid workers get the parent thread budget split across the
        job budget (n_jobs=4 on 8 cores -> 2 kernel threads each)
        instead of oversubscribing n_jobs x cpu_count GEMM threads; an
        explicit per-worker count wins."""
        import os

        from repro.runtime import Executor, RunContext, resolve_num_threads

        monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        probe = lambda _: resolve_num_threads()  # noqa: E731
        items = list(range(4))
        ex = Executor("thread", max_workers=4)
        assert ex.map(probe, items) == [2, 2, 2, 2]
        # Serial execution never runs tasks concurrently, so each task
        # keeps the full budget — splitting would just idle cores.
        assert Executor("serial", max_workers=4).map(probe, items) \
            == [8, 8, 8, 8]
        with RunContext(num_threads=3):
            assert ex.map(probe, items) == [1, 1, 1, 1]  # 3 // 4 -> floor 1
        explicit = Executor("serial", max_workers=4, worker_threads=5)
        assert explicit.map(probe, items) == [5, 5, 5, 5]

    def test_num_threads_restored_after_grid(self, tiny_dataset):
        """The grid-scoped thread count must not leak into the caller's
        process-global kernel configuration."""
        from repro.runtime import configure, configured_context

        try:
            configure(num_threads=2)
            run_grid(detectors=("KNN",), datasets=(tiny_dataset,),
                     seeds=(0,), num_threads=1, **FAST)
            assert configured_context().num_threads == 2
            configure(num_threads=None)
            run_grid(detectors=("KNN",), datasets=(tiny_dataset,),
                     seeds=(0,), num_threads=3, **FAST)
            assert getattr(configured_context(), "num_threads", None) \
                is None
        finally:
            configure(num_threads=None)
