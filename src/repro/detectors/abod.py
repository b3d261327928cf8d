"""Angle-Based Outlier Detection (Kriegel et al., 2008) — fast variant.

For every point, consider the angles it forms with pairs of other points:
inliers inside the data cloud see other points in all directions (high
angle variance), while outliers on the fringe see everything within a
narrow cone (low variance).  The anomaly score is the negated variance of
the distance-weighted cosine, computed over the ``n_neighbors`` nearest
points (the FastABOD approximation, PyOD's default formulation).

Scoring is vectorized over all rows at once: the neighbor-difference
Gram matrices are a single stacked batched matmul ``(n, k, d) @ (n, d, k)``
and the pair variances one reduction over the stacked upper triangles.
Rows with degenerate neighborhoods (duplicate points) fall back to the
per-row kernel so the filtering semantics match exactly.  The scores are
bit-identical to a one-row-at-a-time loop, kept as the test-only parity
oracle ``tests/oracles/ReferenceABOD``.

Not part of the paper's 14 evaluated models; included because UADB is
model-agnostic and ABOD is a standard ADBench baseline.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import BaseDetector
from repro.kernels import cached_kneighbors as kneighbors

__all__ = ["ABOD"]

# Element budget for the blocked vectorized tensors (tests shrink it to
# force multi-block runs; blocking never changes results).
_BLOCK_ELEMENTS = 2**22


class ABOD(BaseDetector):
    """Fast angle-based outlier detector.

    Parameters
    ----------
    n_neighbors : int
        Size of the neighbourhood over which angle pairs are formed.
    """

    def __init__(self, n_neighbors: int = 10, contamination: float = 0.1):
        super().__init__(contamination=contamination)
        if n_neighbors < 2:
            raise ValueError(f"n_neighbors must be >= 2, got {n_neighbors}")
        self.n_neighbors = n_neighbors
        self._X_train = None

    def _effective_k(self) -> int:
        return min(self.n_neighbors, self._X_train.shape[0] - 1)

    def _abof(self, x: np.ndarray, neighbors: np.ndarray) -> float:
        """Angle-based outlier factor of ``x`` w.r.t. its neighbours."""
        diffs = neighbors - x
        norms_sq = np.einsum("ij,ij->i", diffs, diffs)
        valid = norms_sq > 1e-24
        diffs = diffs[valid]
        norms_sq = norms_sq[valid]
        k = diffs.shape[0]
        if k < 2:
            return 0.0
        dots = diffs @ diffs.T
        weight = np.outer(norms_sq, norms_sq)
        values = dots / weight
        iu = np.triu_indices(k, 1)
        pairs = values[iu]
        return float(np.var(pairs))

    def _scores(self, X: np.ndarray, reference: np.ndarray,
                idx: np.ndarray) -> np.ndarray:
        """Negated ABOF of every row of ``X`` given its neighbor indices."""
        # Fewer than two neighbours form no angle pairs; the per-row
        # kernel's k < 2 guard (score 0.0) is the semantics, which the
        # batched variance reduction cannot express (var of zero pairs
        # is NaN) — so tiny neighborhoods always take the loop.
        if idx.shape[1] < 2:
            scores = np.empty(X.shape[0])
            for i in range(X.shape[0]):
                # Negate: low angle variance = outlier = high anomaly score.
                scores[i] = -self._abof(X[i], reference[idx[i]])
            return scores

        n, k = idx.shape
        scores = np.empty(n)
        iu = np.triu_indices(k, 1)
        # Row blocks bound the (block, k, k) Gram tensors at ~2^22
        # elements; rows are independent, so blocking cannot change any
        # row's result.
        block = max(1, _BLOCK_ELEMENTS // (k * k))
        for start in range(0, n, block):
            stop = min(start + block, n)
            diffs = reference[idx[start:stop]] - X[start:stop, None, :]
            norms_sq = np.einsum("nkd,nkd->nk", diffs, diffs)
            clean = (norms_sq > 1e-24).all(axis=1)
            out = scores[start:stop]
            if np.any(clean):
                sub = diffs[clean]
                # One batched matmul for every row's neighbor-difference
                # Gram matrix; numpy dispatches the same GEMM per (k, d)
                # slice as the per-row kernel, keeping the results
                # bit-identical.
                dots = np.matmul(sub, sub.transpose(0, 2, 1))  # (m, k, k)
                w = norms_sq[clean]
                weight = w[:, :, None] * w[:, None, :]
                values = dots / weight
                # The mixed slice/fancy gather returns an F-ordered
                # array; the variance reduction must run over contiguous
                # rows to accumulate in the same order as the per-row
                # kernel.
                pairs = np.ascontiguousarray(values[:, iu[0], iu[1]])
                out[clean] = -np.var(pairs, axis=1)
            # Degenerate neighborhoods (duplicate points) keep the
            # per-row kernel: it filters zero-length difference vectors
            # before pairing.
            for i in np.flatnonzero(~clean):
                out[i] = -self._abof(X[start + i],
                                     reference[idx[start + i]])
        return scores

    def _fit(self, X):
        self._X_train = X.copy()
        k = self._effective_k()
        _, idx = kneighbors(X, X, k, exclude_self=True)
        return self._scores(X, X, idx)

    def _decision_function(self, X):
        k = self._effective_k()
        _, idx = kneighbors(X, self._X_train, k)
        return self._scores(X, self._X_train, idx)

    def set_state(self, state: dict) -> "ABOD":
        super().set_state(state)
        # Artifacts saved by repro 1.3 to 1.6 carry an engine attribute.
        self.__dict__.pop("engine", None)
        return self
