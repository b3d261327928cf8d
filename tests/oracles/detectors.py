"""Per-row scoring loops: the oracles for vectorized ABOD, COF and SOD."""

import numpy as np

from repro.detectors import ABOD, COF, SOD
from repro.kernels import pairwise_distances


class ReferenceABOD(ABOD):
    """ABOD scoring each row with the per-row ``_abof`` kernel."""

    def _scores(self, X, reference, idx):
        scores = np.empty(X.shape[0])
        for i in range(X.shape[0]):
            # Negate: low angle variance = outlier = high anomaly score.
            scores[i] = -self._abof(X[i], reference[idx[i]])
        return scores


def _average_chaining_distance(points: np.ndarray) -> float:
    """Average chaining distance of the SBN-path rooted at ``points[0]``."""
    r = points.shape[0]
    if r < 2:
        return 0.0
    dist = pairwise_distances(points, points)
    in_set = np.zeros(r, dtype=bool)
    in_set[0] = True
    best = dist[0].copy()
    best[0] = np.inf
    total = 0.0
    for i in range(1, r):
        nxt = int(np.argmin(best))
        cost = float(best[nxt])
        weight = 2.0 * (r - i) / (r * (r - 1))
        total += weight * cost
        in_set[nxt] = True
        best = np.minimum(best, dist[nxt])
        best[in_set] = np.inf
    return total


class ReferenceCOF(COF):
    """COF growing each row's SBN-path on its own."""

    def _ac_dists(self, X, reference, idx):
        ac = np.empty(X.shape[0])
        for i in range(X.shape[0]):
            path_points = np.vstack([X[i:i + 1], reference[idx[i]]])
            ac[i] = _average_chaining_distance(path_points)
        return ac


class ReferenceSOD(SOD):
    """SOD ranking shared neighbours with Python sets, one row at a time."""

    def _scores(self, X, idx, r):
        train_knn_sets = [set(row.tolist()) for row in self._train_knn]
        scores = np.empty(X.shape[0])
        for i in range(X.shape[0]):
            own = set(idx[i].tolist())
            overlaps = np.array([len(own.intersection(train_knn_sets[c]))
                                 for c in idx[i]])
            top = np.argsort(-overlaps, kind="mergesort")[:r]
            scores[i] = self._sod_score(X[i], self._X_train[idx[i][top]])
        return scores

    def _sod_score(self, x, ref_points):
        mean = ref_points.mean(axis=0)
        var = ref_points.var(axis=0)
        subspace = var < self.alpha * var.mean()
        if not subspace.any():
            return 0.0
        diff_sq = (x - mean) ** 2
        return float(np.sqrt(diff_sq[subspace].sum()) / subspace.sum())
