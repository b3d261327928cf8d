"""Save/load round-trip parity and artifact-format validation."""

import json

import numpy as np
import pytest

import repro
from repro.core import UADBooster
from repro.core.ensemble import FoldEnsemble
from repro.detectors.registry import ALL_DETECTOR_NAMES, make_detector
from repro.serving import (
    ArtifactError,
    ModelStore,
    load_model,
    read_manifest,
    save_model,
)
from repro.serving.artifacts import data_fingerprint
from repro.serving.state import decode, encode
from tests.conftest import FAST_BOOSTER, FAST_ENSEMBLE
from tests.oracles import SequentialFoldEnsemble


@pytest.fixture(scope="module")
def X(small_dataset):
    return small_dataset[0]


class TestDetectorRoundTrip:
    """Every registry detector must score identically after save/load."""

    @pytest.mark.parametrize("name", ALL_DETECTOR_NAMES)
    def test_scores_exact(self, name, X, tmp_path):
        detector = make_detector(name, random_state=0)
        detector.fit(X)
        path = save_model(detector, tmp_path / name, data=X)
        loaded = load_model(path)
        assert type(loaded) is type(detector)
        assert np.array_equal(loaded.decision_scores_,
                              detector.decision_scores_)
        assert np.array_equal(loaded.score_samples(X),
                              detector.score_samples(X))
        assert np.array_equal(loaded.predict(X), detector.predict(X))


class TestEnsembleRoundTrip:
    def test_predict_exact(self, X, tmp_path):
        ens = FoldEnsemble(**FAST_ENSEMBLE, random_state=0)
        ens.initialize(X)
        y = np.random.default_rng(1).uniform(size=X.shape[0])
        ens.train_round(X, y)
        path = save_model(ens, tmp_path / "ens")
        loaded = load_model(path)
        assert np.array_equal(loaded.predict(X.copy()), ens.predict(X))
        assert np.array_equal(loaded.predict_per_fold(X.copy()),
                              ens.predict_per_fold(X))

    def test_training_continues_bit_identically(self, X, tmp_path):
        """Optimizer moments + rng survive, so resumed training matches."""
        y = np.random.default_rng(1).uniform(size=X.shape[0])
        reference = FoldEnsemble(**FAST_ENSEMBLE,
                                 random_state=0).initialize(X)
        reference.train_round(X, y)
        saved = load_model(save_model(reference, tmp_path / "ens"))
        reference.train_round(X, y)
        saved.train_round(X.copy(), y)
        assert np.array_equal(saved.predict(X.copy()), reference.predict(X))

    def test_legacy_sequential_state_continues_bit_identically(self, X):
        """States saved by repro <= 1.6 under ``engine="sequential"`` hold
        per-fold Adam states; loading stacks them, so training resumes
        exactly where the per-fold loop left off."""
        y = np.random.default_rng(1).uniform(size=X.shape[0])
        oracle = SequentialFoldEnsemble(**FAST_ENSEMBLE,
                                        random_state=0).initialize(X)
        oracle.train_round(X, y)
        state = oracle.get_state()
        state["config"]["engine"] = "sequential"
        state["optimizers"] = [opt.get_state() for opt in oracle._optimizers]
        state["batched_opt"] = None
        # The codec round trip copies every array, as loading from disk
        # would, so the restored ensemble shares no buffers with the oracle.
        arrays = {}
        tree = encode(state, arrays)
        loaded = FoldEnsemble.__new__(FoldEnsemble).set_state(
            decode(tree, arrays))
        assert "engine" not in loaded.get_params()
        oracle.train_round(X, y)
        loaded.train_round(X.copy(), y)
        assert np.array_equal(loaded.predict_per_fold(X.copy()),
                              oracle.predict_per_fold(X))


class TestBoosterRoundTrip:
    def test_scores_exact_on_new_data(self, X, tmp_path, rng):
        source = make_detector("HBOS").fit(X)
        booster = UADBooster(**FAST_BOOSTER, random_state=0)
        booster.fit(X, source)
        path = save_model(booster, tmp_path / "booster", data=X)
        loaded = load_model(path)
        assert np.array_equal(loaded.scores_, booster.scores_)
        assert np.array_equal(loaded.pseudo_labels_, booster.pseudo_labels_)
        X_new = rng.normal(size=(37, X.shape[1]))
        assert np.array_equal(loaded.score_samples(X_new),
                              booster.score_samples(X_new))
        assert loaded.history_.n_iterations == booster.history_.n_iterations

    def test_history_roundtrip(self, X, tmp_path):
        booster = UADBooster(**FAST_BOOSTER, random_state=0)
        booster.fit(X, make_detector("HBOS").fit(X))
        loaded = load_model(save_model(booster, tmp_path / "b"))
        assert np.array_equal(loaded.history_.pseudo_label_matrix(),
                              booster.history_.pseudo_label_matrix())

    def test_legacy_engine_config_dropped(self, X, rng):
        """Booster states saved by repro <= 1.6 carry an ``engine`` key."""
        booster = UADBooster(**FAST_BOOSTER, random_state=0)
        booster.fit(X, make_detector("HBOS").fit(X))
        state = booster.get_state()
        state["config"]["engine"] = "batched"
        loaded = UADBooster.__new__(UADBooster).set_state(state)
        assert "engine" not in loaded.get_params()
        X_new = rng.normal(size=(11, X.shape[1]))
        assert np.array_equal(loaded.score_samples(X_new),
                              booster.score_samples(X_new))


class TestManifest:
    def test_contents(self, X, tmp_path):
        detector = make_detector("HBOS").fit(X)
        path = save_model(detector, tmp_path / "m", data=X,
                          extra={"dataset": "unit-test"})
        manifest = read_manifest(path)
        assert manifest["format"] == "repro-model"
        assert manifest["format_version"] == 1
        assert manifest["repro_version"] == repro.__version__
        assert manifest["kind"] == "HBOS"
        assert manifest["config"]["n_bins"] == 10
        assert manifest["extra"] == {"dataset": "unit-test"}
        fp = manifest["data_fingerprint"]
        assert fp == data_fingerprint(X)
        assert fp["shape"] == list(X.shape)

    def test_manifest_is_plain_json(self, X, tmp_path):
        path = save_model(make_detector("IForest",
                                        random_state=0).fit(X),
                          tmp_path / "m")
        with open(path / "manifest.json", encoding="utf-8") as handle:
            assert isinstance(json.load(handle), dict)


class TestArtifactErrors:
    def test_missing_dir(self, tmp_path):
        with pytest.raises(ArtifactError, match="no model artifact"):
            load_model(tmp_path / "nowhere")

    def test_corrupt_manifest_json(self, X, tmp_path):
        path = save_model(make_detector("HBOS").fit(X), tmp_path / "m")
        (path / "manifest.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(ArtifactError, match="corrupt manifest"):
            load_model(path)

    def test_wrong_format_marker(self, X, tmp_path):
        path = save_model(make_detector("HBOS").fit(X), tmp_path / "m")
        (path / "manifest.json").write_text(json.dumps({"format": "other"}),
                                            encoding="utf-8")
        with pytest.raises(ArtifactError, match="not a repro-model"):
            load_model(path)

    def test_forward_incompatible_version(self, X, tmp_path):
        path = save_model(make_detector("HBOS").fit(X), tmp_path / "m")
        manifest = read_manifest(path)
        manifest["format_version"] = 99
        (path / "manifest.json").write_text(json.dumps(manifest),
                                            encoding="utf-8")
        with pytest.raises(ArtifactError, match="newer"):
            load_model(path)

    def test_missing_payload(self, X, tmp_path):
        path = save_model(make_detector("HBOS").fit(X), tmp_path / "m")
        (path / "payload.npz").unlink()
        with pytest.raises(ArtifactError, match="missing payload"):
            load_model(path)

    def test_truncated_payload(self, X, tmp_path):
        path = save_model(make_detector("HBOS").fit(X), tmp_path / "m")
        payload = path / "payload.npz"
        payload.write_bytes(payload.read_bytes()[:40])
        with pytest.raises(ArtifactError):
            load_model(path)

    def test_kind_mismatch(self, X, tmp_path):
        path = save_model(make_detector("HBOS").fit(X), tmp_path / "m")
        with pytest.raises(ArtifactError, match="expected"):
            load_model(path, expected_kind="UADBooster")

    def test_unregistered_model_rejected_on_save(self, tmp_path):
        with pytest.raises(ArtifactError, match="unregistered"):
            save_model(object(), tmp_path / "m")

    def test_unserialisable_state_rejected(self, tmp_path):
        detector = make_detector("FeatureBagging", random_state=0,
                                 base_factory=lambda: None)
        with pytest.raises(ArtifactError, match="not serialisable"):
            save_model(detector, tmp_path / "m")


class TestModelStore:
    def test_multi_model_store(self, X, tmp_path):
        store = ModelStore(tmp_path)
        store.save(make_detector("HBOS").fit(X), "hbos")
        store.save(make_detector("IForest", random_state=0).fit(X),
                   "iforest")
        assert store.ids() == ["hbos", "iforest"]
        assert store.manifest("hbos")["kind"] == "HBOS"
        assert type(store.load("iforest")).__name__ == "IForest"

    def test_single_artifact_store(self, X, tmp_path):
        save_model(make_detector("HBOS").fit(X), tmp_path / "solo")
        store = ModelStore(tmp_path / "solo")
        assert store.is_single_model
        assert store.ids() == ["solo"]
        assert type(store.load("solo")).__name__ == "HBOS"

    def test_unknown_and_invalid_ids(self, X, tmp_path):
        store = ModelStore(tmp_path)
        with pytest.raises(KeyError):
            store.path_for("ghost")
        with pytest.raises(KeyError):
            store.path_for("../escape")
        with pytest.raises(ArtifactError):
            store.save(make_detector("HBOS").fit(X), "a/b")

    def test_missing_root(self, tmp_path):
        with pytest.raises(ArtifactError):
            ModelStore(tmp_path / "nope")


class TestPayloadChecksum:
    def test_manifest_records_payload_sha(self, X, tmp_path):
        path = save_model(make_detector("HBOS").fit(X), tmp_path / "m")
        assert len(read_manifest(path)["payload_sha256"]) == 64

    def test_mismatched_payload_rejected(self, X, tmp_path):
        """A torn save (old manifest + new payload) must not load."""
        a = save_model(make_detector("HBOS").fit(X), tmp_path / "a")
        b = save_model(make_detector("HBOS", n_bins=7).fit(X),
                       tmp_path / "b")
        (a / "payload.npz").write_bytes((b / "payload.npz").read_bytes())
        with pytest.raises(ArtifactError, match="checksum"):
            load_model(a)

    def test_no_temp_files_left_behind(self, X, tmp_path):
        path = save_model(make_detector("HBOS").fit(X), tmp_path / "m")
        assert sorted(p.name for p in path.iterdir()) == [
            "manifest.json", "payload.npz"]
