"""Stacked fold training vs the per-fold oracle.

The stacked fold ensemble's contract (see ``repro.nn.batched``) is
*bit-for-bit* equality with training the folds one network at a time
under a shared random stream, so every comparison here uses exact
equality, not approx.  The per-fold loop lives in
``tests/oracles/ensemble.py``; boosters and Table VI variants are pointed
at it by swapping the ``FoldEnsemble`` name they build.
"""

import numpy as np
import pytest

import repro.core.booster as booster_module
import repro.core.variants as variants_module
from repro.core.booster import UADBooster
from repro.core.ensemble import FoldEnsemble
from repro.core.variants import VARIANT_CLASSES, make_variant
from tests.conftest import FAST_BOOSTER, FAST_ENSEMBLE
from tests.oracles import SequentialFoldEnsemble


def _ensemble_pair(**overrides):
    kwargs = dict(FAST_ENSEMBLE)
    kwargs.update(overrides)
    return (SequentialFoldEnsemble(random_state=11, **kwargs),
            FoldEnsemble(random_state=11, **kwargs))


@pytest.fixture
def oracle_booster(monkeypatch):
    """Fit a UADBooster on the per-fold oracle ensemble."""
    def fit(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(booster_module, "FoldEnsemble",
                          SequentialFoldEnsemble)
            return UADBooster(**kwargs).fit(*args)
    return fit


@pytest.fixture
def source(small_dataset):
    return np.random.default_rng(5).uniform(size=small_dataset[0].shape[0])


class TestBoosterParity:
    def test_scores_bit_identical(self, small_dataset, source,
                                  oracle_booster):
        X, _ = small_dataset
        seq = oracle_booster(X, source, random_state=3, **FAST_BOOSTER)
        bat = UADBooster(random_state=3, **FAST_BOOSTER).fit(X, source)
        assert isinstance(seq._ensemble, SequentialFoldEnsemble)
        assert np.array_equal(seq.scores_, bat.scores_)
        assert np.array_equal(seq.pseudo_labels_, bat.pseudo_labels_)

    def test_iteration_traces_bit_identical(self, small_dataset, source,
                                            oracle_booster):
        X, _ = small_dataset
        seq = oracle_booster(X, source, random_state=3, **FAST_BOOSTER)
        bat = UADBooster(random_state=3, **FAST_BOOSTER).fit(X, source)
        for a, b in zip(seq.history_.booster_scores,
                        bat.history_.booster_scores):
            assert np.array_equal(a, b)

    def test_float64_parity(self, small_dataset, source, oracle_booster):
        X, _ = small_dataset
        seq = oracle_booster(X, source, dtype="float64", random_state=3,
                             **FAST_BOOSTER)
        bat = UADBooster(dtype="float64", random_state=3,
                         **FAST_BOOSTER).fit(X, source)
        assert seq.scores_.dtype == np.float64
        assert np.array_equal(seq.scores_, bat.scores_)

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            FoldEnsemble(dtype="float16")


@pytest.mark.parametrize("name", sorted(VARIANT_CLASSES))
def test_variant_parity(name, small_dataset, source, monkeypatch):
    """Every Table VI variant trains the same student either way."""
    X, _ = small_dataset
    bat = make_variant(name, random_state=3, **FAST_BOOSTER).fit(X, source)
    monkeypatch.setattr(variants_module, "FoldEnsemble",
                        SequentialFoldEnsemble)
    seq = make_variant(name, random_state=3, **FAST_BOOSTER).fit(X, source)
    assert isinstance(seq._ensemble, SequentialFoldEnsemble)
    assert np.array_equal(seq.scores_, bat.scores_)
    assert np.array_equal(seq.score_samples(X), bat.score_samples(X))


class TestEnsembleParity:
    def test_ragged_batches_parity(self, small_dataset):
        # 240 samples, 3 folds -> 160-row splits; batch 64 leaves a ragged
        # 32-row tail every epoch, exercising the per-fold fallback path.
        X, _ = small_dataset
        y = np.random.default_rng(9).uniform(size=X.shape[0])
        seq, bat = _ensemble_pair(batch_size=64)
        for ens in (seq, bat):
            ens.initialize(X)
            ens.train_round(X, y)
            ens.train_round(X, y)
        assert np.array_equal(seq.predict_per_fold(X),
                              bat.predict_per_fold(X))

    def test_histories_match(self, small_dataset):
        X, _ = small_dataset
        y = np.random.default_rng(9).uniform(size=X.shape[0])
        seq, bat = _ensemble_pair()
        h_seq = seq.initialize(X).train_round(X, y)
        h_bat = bat.initialize(X).train_round(X, y)
        assert len(h_seq) == len(h_bat) == 3
        for a, b in zip(h_seq, h_bat):
            assert a.epoch_losses == pytest.approx(b.epoch_losses, abs=0.0)

    def test_mse_loss_parity(self, small_dataset):
        X, _ = small_dataset
        y = np.random.default_rng(9).uniform(size=X.shape[0])
        seq, bat = _ensemble_pair(loss="mse")
        seq.initialize(X).train_round(X, y)
        bat.initialize(X).train_round(X, y)
        assert np.array_equal(seq.predict(X), bat.predict(X))

    def test_predict_on_fresh_data(self, small_dataset):
        # A new array object misses the identity cache and must still be
        # standardised and scored identically by both loops.
        X, _ = small_dataset
        y = np.random.default_rng(9).uniform(size=X.shape[0])
        seq, bat = _ensemble_pair()
        seq.initialize(X).train_round(X, y)
        bat.initialize(X).train_round(X, y)
        X_new = np.random.default_rng(13).normal(size=(17, X.shape[1]))
        assert np.array_equal(seq.predict(X_new), bat.predict(X_new))
        assert seq.predict_per_fold(X_new).shape == (17, 3)


# Both classes, under the ids the removed ``engine`` option used to carry.
BOTH = pytest.mark.parametrize(
    "cls", [FoldEnsemble, SequentialFoldEnsemble],
    ids=["batched", "sequential"])


class TestShapeEdgeCases:
    @BOTH
    def test_fewer_samples_than_folds(self, cls):
        # n=2 with n_folds=3 collapses to 2 folds; n_folds=min(n_folds, n).
        X = np.random.default_rng(0).normal(size=(2, 3))
        ens = cls(n_folds=3, hidden=4, epochs=1, batch_size=4,
                  min_steps_per_round=2, first_round_steps=2,
                  random_state=0).initialize(X)
        ens.train_round(X, np.array([0.1, 0.9]))
        assert ens.predict_per_fold(X).shape == (2, 2)

    def test_fewer_samples_than_folds_parity(self):
        X = np.random.default_rng(0).normal(size=(2, 3))
        y = np.array([0.1, 0.9])
        scores = []
        for cls in (FoldEnsemble, SequentialFoldEnsemble):
            ens = cls(n_folds=3, hidden=4, epochs=1, batch_size=4,
                      min_steps_per_round=2, first_round_steps=2,
                      random_state=0).initialize(X)
            ens.train_round(X, y)
            scores.append(ens.predict(X))
        assert np.array_equal(scores[0], scores[1])

    @BOTH
    def test_single_fold(self, cls, small_dataset):
        X, _ = small_dataset
        y = np.random.default_rng(9).uniform(size=X.shape[0])
        ens = cls(n_folds=1, random_state=0, **FAST_ENSEMBLE).initialize(X)
        ens.train_round(X, y)
        per_fold = ens.predict_per_fold(X)
        assert per_fold.shape == (X.shape[0], 1)
        assert np.array_equal(ens.predict(X), per_fold[:, 0])

    def test_single_fold_parity(self, small_dataset):
        X, _ = small_dataset
        y = np.random.default_rng(9).uniform(size=X.shape[0])
        scores = []
        for cls in (FoldEnsemble, SequentialFoldEnsemble):
            ens = cls(n_folds=1, random_state=0,
                      **FAST_ENSEMBLE).initialize(X)
            ens.train_round(X, y)
            scores.append(ens.predict(X))
        assert np.array_equal(scores[0], scores[1])


class TestStandardizedCache:
    def test_same_object_skips_rescaling(self, small_dataset):
        X, _ = small_dataset
        ens = FoldEnsemble(random_state=0, **FAST_ENSEMBLE).initialize(X)
        Z1 = ens._standardized(X)
        assert ens._standardized(X) is Z1  # identity hit, no recompute

    def test_fresh_equal_array_rescales_consistently(self, small_dataset):
        X, _ = small_dataset
        ens = FoldEnsemble(random_state=0, **FAST_ENSEMBLE).initialize(X)
        Z1 = ens._standardized(X).copy()
        Z2 = ens._standardized(X.copy())
        assert np.array_equal(Z1, Z2)
