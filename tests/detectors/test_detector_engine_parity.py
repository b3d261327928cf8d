"""Vectorized ABOD / COF / SOD vs their per-row oracles.

The acceptance bar is exact equality (``np.array_equal``), not allclose:
the vectorized scoring is engineered to perform the same floating-point
operations in the same order as the per-row loops in
``tests/oracles/detectors.py`` (same GEMM shapes, contiguous reductions,
count-grouped masked sums).
"""

import numpy as np
import pytest

import repro.kernels as kernels
from repro.data.preprocessing import StandardScaler
from repro.data.synthetic import make_anomaly_dataset
from repro.detectors import ABOD, COF, SOD
from tests.oracles import ReferenceABOD, ReferenceCOF, ReferenceSOD

ORACLES = {ABOD: ReferenceABOD, COF: ReferenceCOF, SOD: ReferenceSOD}
DETECTORS = list(ORACLES)


def _conformance_datasets():
    """Heterogeneous fixtures: every synthetic anomaly type + duplicates."""
    cases = []
    for kind in ("local", "global", "clustered", "dependency"):
        ds = make_anomaly_dataset(kind, n_inliers=140, n_anomalies=20,
                                  n_features=8, random_state=11)
        cases.append((kind, StandardScaler().fit_transform(ds.X)))
    rng = np.random.default_rng(5)
    base = rng.normal(size=(60, 5))
    cases.append(("duplicates", np.vstack([base, base[:30]])))
    return cases


DATASETS = _conformance_datasets()


@pytest.fixture(autouse=True)
def fresh_cache():
    kernels.clear_cache()
    yield
    kernels.clear_cache()


@pytest.mark.parametrize("cls", DETECTORS)
@pytest.mark.parametrize("name,X", DATASETS, ids=[n for n, _ in DATASETS])
class TestEngineParity:
    def test_fit_scores_exactly_equal(self, cls, name, X):
        vec = cls().fit(X)
        ref = ORACLES[cls]().fit(X)
        np.testing.assert_array_equal(vec.decision_scores_,
                                      ref.decision_scores_)

    def test_decision_function_exactly_equal(self, cls, name, X):
        vec = cls().fit(X)
        ref = ORACLES[cls]().fit(X)
        queries = np.vstack([X[:25] * 1.01, X[:5]])  # shifted + exact hits
        np.testing.assert_array_equal(vec.decision_function(queries),
                                      ref.decision_function(queries))


@pytest.mark.parametrize("cls", DETECTORS)
def test_legacy_state_without_engine_restores(cls):
    """Artifacts saved by repro <= 1.2 hold SOD's neighbor sets instead
    of ndarray lists; set_state must upgrade them."""
    X = DATASETS[0][1]
    fitted = cls().fit(X)
    state = fitted.get_state()
    if cls is SOD:
        state["_train_knn"] = [set(row.tolist())
                               for row in state["_train_knn"]]
    restored = cls.__new__(cls).set_state(state)
    queries = X[:20] * 1.01
    np.testing.assert_array_equal(restored.decision_function(queries),
                                  fitted.decision_function(queries))


@pytest.mark.parametrize("cls", DETECTORS)
def test_legacy_state_with_engine_restores(cls):
    """Artifacts saved by repro 1.3 to 1.6 carry an ``engine`` attribute,
    which set_state drops."""
    X = DATASETS[0][1]
    fitted = cls().fit(X)
    state = fitted.get_state()
    state["engine"] = "reference"
    restored = cls.__new__(cls).set_state(state)
    assert "engine" not in vars(restored)
    queries = X[:20] * 1.01
    np.testing.assert_array_equal(restored.decision_function(queries),
                                  fitted.decision_function(queries))


def test_parity_independent_of_cache_state():
    """A warm shared cache must not change SOD's scores."""
    X = StandardScaler().fit_transform(
        make_anomaly_dataset("local", n_inliers=120, n_anomalies=15,
                             n_features=6, random_state=3).X)
    kernels.clear_cache()
    cold = SOD().fit(X).decision_scores_
    warm = SOD().fit(X).decision_scores_  # second fit hits the cache
    np.testing.assert_array_equal(cold, warm)
    assert kernels.cache_stats()["hits"] >= 1


@pytest.mark.parametrize("cls", DETECTORS)
def test_multi_block_parity(cls, monkeypatch):
    """The vectorized detectors process rows in memory-bounded blocks; a
    tiny element budget forces many blocks, which must not change a
    single score (rows are independent)."""
    import sys

    module = sys.modules[cls.__module__]
    monkeypatch.setattr(module, "_BLOCK_ELEMENTS", 1)
    X = DATASETS[0][1]
    kernels.clear_cache()
    blocked = cls().fit(X).decision_scores_
    monkeypatch.setattr(module, "_BLOCK_ELEMENTS", 2**22)
    single = cls().fit(X).decision_scores_
    ref = ORACLES[cls]().fit(X).decision_scores_
    np.testing.assert_array_equal(blocked, single)
    np.testing.assert_array_equal(blocked, ref)


class TestTinyNeighborhoods:
    def test_abod_single_neighbor_matches_reference(self):
        """Effective k=1 forms no angle pairs; the vectorized path must
        agree with the per-row kernel's k<2 guard (score 0.0) instead of
        the batched variance yielding NaN."""
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        vec = ABOD().fit(X)
        ref = ReferenceABOD().fit(X)
        np.testing.assert_array_equal(vec.decision_scores_,
                                      ref.decision_scores_)
        assert np.all(np.isfinite(vec.decision_scores_))

    @pytest.mark.parametrize("cls", DETECTORS)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_tiny_n_parity(self, cls, n):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(n, 3))
        vec = cls().fit(X)
        ref = ORACLES[cls]().fit(X)
        np.testing.assert_array_equal(vec.decision_scores_,
                                      ref.decision_scores_)


def test_kde_large_matrix_not_pinned_in_cache(monkeypatch):
    """KDE must not park self-distance matrices above the byte gate in
    the process-wide cache (memory stays transient for big fits)."""
    import repro.detectors.kde as kde_mod
    from repro.detectors import KDE

    X = np.random.default_rng(1).normal(size=(80, 4))
    kernels.clear_cache()
    monkeypatch.setattr(kde_mod, "_CACHE_MATRIX_MAX_BYTES", 1)
    gated = KDE(random_state=0).fit(X).decision_scores_
    assert kernels.cache_stats()["matrices"] == 0
    monkeypatch.undo()
    kernels.clear_cache()
    cached = KDE(random_state=0).fit(X).decision_scores_
    assert kernels.cache_stats()["matrices"] == 1
    np.testing.assert_array_equal(gated, cached)
