"""Subspace Outlier Detection (Kriegel et al., 2009).

SOD scores each point against a *reference set* chosen by shared-nearest-
neighbour similarity, in the axis-parallel subspace where the reference set
is tight: dimensions whose reference variance is below ``alpha`` times the
mean per-dimension variance.  The score is the normalised distance to the
reference mean within that subspace — catching anomalies visible only in a
projection.  PyOD defaults: ``n_neighbors=20``, ``ref_set=10``,
``alpha=0.8``.

Scoring is vectorized: shared-neighbour overlaps for all rows at once via
an equality tensor between neighbor lists (instead of ``n * k`` Python
``set`` intersections), batched mean/variance/subspace selection, and
subspace distances grouped by subspace size so each group is one exact
contiguous reduction.  The scores are bit-identical to a one-row-at-a-time
loop, kept as the test-only parity oracle ``tests/oracles/ReferenceSOD``.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import BaseDetector
from repro.kernels import cached_kneighbors

__all__ = ["SOD"]

# Element budget for the chunked SNN equality tensor (tests shrink it to
# force multi-chunk runs; chunking never changes results).
_BLOCK_ELEMENTS = 2**22


class SOD(BaseDetector):
    """Subspace outlier degree.

    Parameters
    ----------
    n_neighbors : int
        Candidate pool size for shared-nearest-neighbour ranking.
    ref_set : int
        Reference set size (must be <= n_neighbors).
    alpha : float in (0, 1)
        Variance threshold selecting the relevant subspace.
    """

    def __init__(self, n_neighbors: int = 20, ref_set: int = 10,
                 alpha: float = 0.8, contamination: float = 0.1):
        super().__init__(contamination=contamination)
        if n_neighbors < 1:
            raise ValueError(f"n_neighbors must be >= 1, got {n_neighbors}")
        if not 1 <= ref_set <= n_neighbors:
            raise ValueError(
                f"ref_set must be in [1, n_neighbors], got {ref_set}"
            )
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.n_neighbors = n_neighbors
        self.ref_set = ref_set
        self.alpha = alpha
        self._X_train = None
        self._train_knn = None

    def _effective_sizes(self):
        k = min(self.n_neighbors, self._X_train.shape[0] - 1)
        r = min(self.ref_set, k)
        return k, r

    def _scores(self, X: np.ndarray, idx: np.ndarray, r: int) -> np.ndarray:
        """SOD score of every row of ``X`` given its neighbor indices."""
        n, k = idx.shape

        # SNN overlap counts |knn(query i) ∩ knn(candidate c)| for every
        # candidate c in row i's own neighbor list, batched: an equality
        # tensor between each row's own neighbor list and its candidates'
        # lists, reduced to exact integer counts.  O(n k^3) work and
        # O(chunk k^3) memory — neighbor lists have no repeats, so
        # counting equal pairs is exactly the set-intersection size.
        overlaps = np.empty((n, k), dtype=np.int64)
        candidate_lists = self._train_knn[idx]                   # (n, k, k')
        chunk = max(1, _BLOCK_ELEMENTS
                    // (k * k * candidate_lists.shape[2] or 1))
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            eq = (idx[start:stop, None, :, None]
                  == candidate_lists[start:stop, :, None, :])
            overlaps[start:stop] = eq.sum(axis=(2, 3))

        # Stable ranking: descending overlap, candidate order preserved
        # on ties.
        top = np.argsort(-overlaps, axis=1, kind="mergesort")[:, :r]
        ref_idx = np.take_along_axis(idx, top, axis=1)

        ref_points = self._X_train[ref_idx]                      # (n, r, d)
        mean = ref_points.mean(axis=1)
        var = ref_points.var(axis=1)
        mean_var = var.mean(axis=1)
        subspace = var < self.alpha * mean_var[:, None]
        diff_sq = (X - mean) ** 2

        # Group rows by subspace size so each group's masked sum is one
        # contiguous (m, s) reduction — the same additions in the same
        # order as a per-row 1-d gathered sum.
        counts = subspace.sum(axis=1)
        scores = np.zeros(n)
        for s in np.unique(counts):
            if s == 0:
                continue
            group = counts == s
            picked = diff_sq[group][subspace[group]].reshape(-1, s)
            scores[group] = np.sqrt(picked.sum(axis=1)) / s
        return scores

    def _fit(self, X):
        self._X_train = X.copy()
        k, r = self._effective_sizes()
        _, idx = cached_kneighbors(X, X, k, exclude_self=True)
        self._train_knn = idx
        return self._scores(X, idx, r)

    def _decision_function(self, X):
        k, r = self._effective_sizes()
        _, idx = cached_kneighbors(X, self._X_train, k)
        return self._scores(X, idx, r)

    def set_state(self, state: dict) -> "SOD":
        super().set_state(state)
        # Artifacts saved by repro 1.3 to 1.6 carry an engine attribute.
        self.__dict__.pop("engine", None)
        if isinstance(self._train_knn, list):
            # Artifacts saved by repro <= 1.2 stored neighbor sets; scoring
            # consumes them order-insensitively (membership counts), so a
            # sorted ndarray is an exact stand-in.
            self._train_knn = np.array(
                [sorted(row) for row in self._train_knn], dtype=np.int64)
        return self
