"""Algorithm-specific behaviour tests for individual detectors.

Each detector family is checked against the defining property of its
assumption: density methods must respond to density, neighbour methods to
neighbour distances, subspace methods to subspace deviations, and so on.
"""

import numpy as np
import pytest

from repro.data.preprocessing import StandardScaler
from repro.data.synthetic import (
    make_clustered_anomalies,
    make_dependency_anomalies,
    make_local_anomalies,
)
from repro.detectors import (
    CBLOF,
    COF,
    COPOD,
    ECOD,
    GMM,
    HBOS,
    KNN,
    LODA,
    LOF,
    OCSVM,
    PCA,
    SOD,
    DeepSVDD,
    IForest,
)
from repro.detectors.iforest import average_path_length
from repro.metrics.ranking import auc_roc


def _single_blob(rng, n=150, d=3):
    return rng.normal(size=(n, d))


class TestIForest:
    def test_average_path_length_values(self):
        # c(1)=0, c(2)=1, c(n) grows ~ 2 ln(n).
        out = average_path_length(np.array([1, 2, 256]))
        assert out[0] == 0.0
        assert out[1] == 1.0
        assert 10.0 < out[2] < 13.0

    def test_isolated_point_scores_high(self, rng):
        X = np.vstack([_single_blob(rng), [[25.0, 25.0, 25.0]]])
        det = IForest(random_state=0).fit(X)
        assert det.decision_scores_[-1] == det.decision_scores_.max()

    def test_scores_in_iforest_range(self, rng):
        det = IForest(random_state=0).fit(_single_blob(rng))
        # s(x) = 2^{-E[h]/c} lies in (0, 1).
        assert np.all(det.decision_scores_ > 0)
        assert np.all(det.decision_scores_ < 1)

    def test_subsample_cap(self, rng):
        det = IForest(max_samples=32, n_estimators=10, random_state=0)
        det.fit(_single_blob(rng, n=100))
        assert det._psi == 32

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            IForest(n_estimators=0)
        with pytest.raises(ValueError):
            IForest(max_samples=1)


class TestHBOS:
    def test_univariate_tail_scores_high(self, rng):
        X = np.concatenate([rng.normal(0, 1, 200), [8.0]]).reshape(-1, 1)
        det = HBOS().fit(X)
        assert det.decision_scores_[-1] == det.decision_scores_.max()

    def test_additive_across_dimensions(self, rng):
        """Score of a 2-d point equals sum of per-dim histogram scores."""
        X = rng.normal(size=(100, 2))
        det = HBOS(n_bins=5).fit(X)
        det1 = HBOS(n_bins=5).fit(X[:, :1])
        det2 = HBOS(n_bins=5).fit(X[:, 1:])
        lhs = det.decision_function(X[:3])
        rhs = (det1.decision_function(X[:3, :1])
               + det2.decision_function(X[:3, 1:]))
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestKNN:
    def test_largest_equals_kth_distance(self, rng):
        X = rng.normal(size=(30, 2))
        det = KNN(n_neighbors=3, method="largest").fit(X)
        from repro.detectors.neighbors import kneighbors
        dist, _ = kneighbors(X, X, 3, exclude_self=True)
        np.testing.assert_allclose(det.decision_scores_, dist[:, -1])

    @pytest.mark.parametrize("method", ["largest", "mean", "median"])
    def test_methods_run(self, rng, method):
        det = KNN(n_neighbors=3, method=method).fit(rng.normal(size=(20, 2)))
        assert det.decision_scores_.shape == (20,)

    def test_method_ordering(self, rng):
        """kth distance >= mean of first k distances."""
        X = rng.normal(size=(40, 2))
        largest = KNN(n_neighbors=5, method="largest").fit(X)
        mean = KNN(n_neighbors=5, method="mean").fit(X)
        assert np.all(largest.decision_scores_ >= mean.decision_scores_ - 1e-12)

    def test_tiny_dataset_degrades_k(self):
        X = np.array([[0.0], [1.0], [2.0]])
        det = KNN(n_neighbors=10).fit(X)
        assert det.decision_scores_.shape == (3,)

    def test_invalid_method(self):
        with pytest.raises(ValueError):
            KNN(method="sum")


class TestLOF:
    def test_local_anomalies_detected(self):
        ds = make_local_anomalies(n_inliers=300, n_anomalies=30, scale=5.0,
                                  random_state=0)
        X = StandardScaler().fit_transform(ds.X)
        det = LOF(n_neighbors=20).fit(X)
        assert auc_roc(ds.y, det.decision_scores_) > 0.8

    def test_uniform_data_scores_near_one(self, rng):
        """On homogeneous data every LOF score hovers around 1."""
        X = rng.uniform(size=(300, 2))
        det = LOF(n_neighbors=20).fit(X)
        inner = det.decision_scores_[50:250]
        assert np.median(inner) == pytest.approx(1.0, abs=0.15)

    def test_beats_knn_on_varying_density(self, rng):
        """The classic LOF motivation: anomalies near a dense cluster."""
        dense = rng.normal(0, 0.1, size=(200, 2))
        sparse = rng.normal(6, 1.5, size=(100, 2))
        anomalies = rng.normal(0, 0.5, size=(10, 2)) + [0.8, 0.8]
        X = np.vstack([dense, sparse, anomalies])
        y = np.array([0] * 300 + [1] * 10)
        lof_auc = auc_roc(y, LOF(20).fit(X).decision_scores_)
        knn_auc = auc_roc(y, KNN(5).fit(X).decision_scores_)
        assert lof_auc > knn_auc


class TestPCA:
    def test_detects_off_subspace_points(self, rng):
        """Inliers on a line, anomaly off the line at the same scale."""
        t = rng.normal(size=200)
        X = np.column_stack([t, 2 * t + rng.normal(0, 0.05, 200)])
        X = np.vstack([X, [[0.0, 3.0]]])  # off-line point
        det = PCA().fit(X)
        assert det.decision_scores_[-1] > np.percentile(
            det.decision_scores_[:-1], 99)

    def test_n_components_cap(self, rng):
        det = PCA(n_components=2).fit(rng.normal(size=(50, 5)))
        assert det._components.shape[0] == 2

    def test_invalid_components(self):
        with pytest.raises(ValueError):
            PCA(n_components=0)


class TestOCSVM:
    def test_boundary_points_score_higher(self, rng):
        X = rng.normal(size=(150, 2))
        det = OCSVM(random_state=0).fit(X)
        radii = np.linalg.norm(X, axis=1)
        inner = det.decision_scores_[radii < 0.5]
        outer = det.decision_scores_[radii > 2.0]
        if inner.size and outer.size:
            assert outer.mean() > inner.mean()

    def test_dual_constraints_satisfied(self, rng):
        X = rng.normal(size=(100, 2))
        det = OCSVM(nu=0.5, random_state=0).fit(X)
        alpha = det._alpha
        assert alpha.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.all(alpha >= -1e-9)
        assert np.all(alpha <= 1.0 / (0.5 * 100) + 1e-9)

    def test_subsampling_cap(self, rng):
        det = OCSVM(max_train=50, random_state=0).fit(
            rng.normal(size=(120, 2)))
        assert det._X_sv.shape[0] == 50

    def test_explicit_gamma(self, rng):
        det = OCSVM(gamma=0.5, random_state=0).fit(rng.normal(size=(60, 2)))
        assert det._gamma_value == 0.5

    def test_invalid_nu(self):
        with pytest.raises(ValueError):
            OCSVM(nu=0.0)


class TestCBLOF:
    def test_small_cluster_scored_anomalous(self):
        """With k matched to the true cluster count, the tight anomaly
        cluster is classified as 'small' and scored by its distance to the
        large inlier clusters.  (With k much larger than the number of real
        clusters the split can absorb the anomaly cluster into the 'large'
        set — a known sensitivity of CBLOF that we preserve.)"""
        ds = make_clustered_anomalies(n_inliers=200, n_anomalies=20,
                                      random_state=1)
        X = StandardScaler().fit_transform(ds.X)
        det = CBLOF(n_clusters=3, random_state=0).fit(X)
        assert auc_roc(ds.y, det.decision_scores_) > 0.8

    def test_large_small_split(self):
        det = CBLOF(alpha=0.9, beta=5.0)
        sizes = np.array([80, 10, 5, 5])
        assert det._split_large_small(sizes) == 1  # 80 covers 80% < 90%... ratio 80/10=8 >= 5 -> boundary after first

    def test_invalid_alpha_beta(self):
        with pytest.raises(ValueError):
            CBLOF(alpha=0.4)
        with pytest.raises(ValueError):
            CBLOF(beta=0.5)


class TestCOF:
    def test_line_pattern_detection(self, rng):
        """COF's motivating case: inliers on a line, anomaly beside it."""
        t = np.linspace(0, 10, 120)
        line = np.column_stack([t, t]) + rng.normal(0, 0.02, (120, 2))
        X = np.vstack([line, [[5.0, 6.5]]])
        det = COF(n_neighbors=10).fit(X)
        assert det.decision_scores_[-1] > np.percentile(
            det.decision_scores_[:-1], 99)

    def test_chaining_distance_zero_for_single(self):
        from repro.detectors.cof import _batched_chaining_distances
        assert _batched_chaining_distances(np.zeros((1, 1, 2)))[0] == 0.0

    def test_chaining_distance_two_points(self):
        from repro.detectors.cof import _batched_chaining_distances
        pts = np.array([[[0.0, 0.0], [3.0, 4.0]]])
        assert _batched_chaining_distances(pts)[0] == pytest.approx(5.0)


class TestSOD:
    def test_subspace_anomaly_detected(self, rng):
        """Anomaly deviates in 2 informative dims; 8 noise dims mask it
        from full-space distances."""
        n = 150
        informative = rng.normal(0, 0.2, size=(n, 2))
        noise = rng.normal(0, 2.0, size=(n, 8))
        X = np.hstack([informative, noise])
        outlier = np.concatenate([[3.0, 3.0], rng.normal(0, 2.0, 8)])
        X = np.vstack([X, outlier])
        det = SOD(n_neighbors=25, ref_set=12).fit(X)
        assert det.decision_scores_[-1] > np.percentile(
            det.decision_scores_[:-1], 95)

    def test_invalid_ref_set(self):
        with pytest.raises(ValueError):
            SOD(n_neighbors=10, ref_set=15)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            SOD(alpha=1.5)


class TestECOD:
    def test_both_tails_detected(self, rng):
        X = np.concatenate([rng.normal(0, 1, 300), [-7.0, 7.0]]).reshape(-1, 1)
        det = ECOD().fit(X)
        assert det.decision_scores_[-1] > np.percentile(
            det.decision_scores_[:-2], 99)
        assert det.decision_scores_[-2] > np.percentile(
            det.decision_scores_[:-2], 99)

    def test_parameter_free(self):
        # Only contamination is configurable.
        det = ECOD(contamination=0.05)
        assert det.contamination == 0.05


class TestCOPOD:
    def test_multivariate_tail(self, rng):
        X = rng.normal(size=(300, 3))
        X = np.vstack([X, [[5.0, 5.0, 5.0]]])
        det = COPOD().fit(X)
        assert det.decision_scores_[-1] == det.decision_scores_.max()

    def test_close_to_ecod_on_symmetric_data(self, rng):
        """On symmetric data the two ECDF methods rank nearly alike."""
        X = rng.normal(size=(400, 4))
        a = ECOD().fit(X).decision_scores_
        b = COPOD().fit(X).decision_scores_
        assert np.corrcoef(a, b)[0, 1] > 0.95


class TestGMM:
    def test_likelihood_ranking(self, rng):
        X = np.vstack([rng.normal(size=(200, 2)), [[6.0, 6.0]]])
        det = GMM(random_state=0).fit(X)
        assert det.decision_scores_[-1] == det.decision_scores_.max()

    def test_multimodal_needs_components(self, rng):
        """A 2-component GMM fits a bimodal distribution better."""
        X = np.vstack([rng.normal(-4, 0.5, size=(150, 1)),
                       rng.normal(4, 0.5, size=(150, 1))])
        from repro.detectors.gmm import GaussianMixture
        single = GaussianMixture(1, random_state=0).fit(X)
        double = GaussianMixture(2, random_state=0).fit(X)
        assert double.score_samples(X).mean() > single.score_samples(X).mean()

    def test_em_converges(self, rng):
        from repro.detectors.gmm import GaussianMixture
        gm = GaussianMixture(2, max_iter=200, random_state=0)
        gm.fit(rng.normal(size=(100, 2)))
        assert gm.converged_

    def test_weights_sum_to_one(self, rng):
        from repro.detectors.gmm import GaussianMixture
        gm = GaussianMixture(3, random_state=0).fit(rng.normal(size=(90, 2)))
        assert gm.weights_.sum() == pytest.approx(1.0)


class TestLODA:
    def test_sparse_projections(self, rng):
        det = LODA(n_random_cuts=20, random_state=0).fit(
            rng.normal(size=(100, 16)))
        nonzero = (det._projections != 0).sum(axis=1)
        assert np.all(nonzero == 4)  # ceil(sqrt(16))

    def test_outlier_scores_high(self, rng):
        X = np.vstack([rng.normal(size=(200, 4)), [[8.0] * 4]])
        det = LODA(random_state=0).fit(X)
        assert det.decision_scores_[-1] > np.percentile(
            det.decision_scores_[:-1], 99)


class TestDeepSVDD:
    def test_center_not_near_zero(self, rng):
        det = DeepSVDD(epochs=2, random_state=0).fit(rng.normal(size=(80, 4)))
        assert np.all(np.abs(det._center) >= 0.1 - 1e-9)

    def test_training_shrinks_mean_distance(self, rng):
        X = rng.normal(size=(200, 4))
        short = DeepSVDD(epochs=1, random_state=0).fit(X)
        long = DeepSVDD(epochs=30, random_state=0).fit(X)
        assert (long.decision_scores_.mean()
                < short.decision_scores_.mean())

    def test_no_bias_in_network(self, rng):
        det = DeepSVDD(epochs=1, random_state=0).fit(rng.normal(size=(50, 3)))
        from repro.nn.layers import Dense
        for layer in det._network.layers:
            if isinstance(layer, Dense):
                assert layer.b is None

    def test_dependency_anomalies_detectable(self):
        ds = make_dependency_anomalies(n_inliers=400, n_anomalies=40,
                                       n_features=4, random_state=0)
        X = StandardScaler().fit_transform(ds.X)
        det = DeepSVDD(epochs=30, random_state=0).fit(X)
        assert auc_roc(ds.y, det.decision_scores_) > 0.55
