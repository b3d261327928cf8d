"""Connectivity-based Outlier Factor (Tang et al., 2002).

COF replaces LOF's density with *connectivity*: the average chaining
distance along the set-based nearest path (SBN-path) through a point's
k-neighbourhood.  Points whose chaining distance is large relative to their
neighbours' are anomalies in low-density *patterns* (e.g. lines), which pure
density methods miss.  PyOD default: ``k=20``.

Chaining is vectorized: every row's SBN-path is grown in lockstep over the
stacked ``(n, k+1, k+1)`` neighborhood distance tensor, one batched Prim
step (argmin + relax) per path position instead of a Python loop per row.
The scores are bit-identical to a one-row-at-a-time loop, kept as the
test-only parity oracle ``tests/oracles/ReferenceCOF``.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import BaseDetector
from repro.kernels import cached_kneighbors

__all__ = ["COF"]

# Element budget for the blocked vectorized tensors (tests shrink it to
# force multi-block runs; blocking never changes results).
_BLOCK_ELEMENTS = 2**22


def _batched_chaining_distances(P: np.ndarray) -> np.ndarray:
    """Average chaining distance of every stacked path in ``P`` (n, r, d).

    The SBN-path of ``P[i]`` is rooted at ``P[i, 0]`` and greedily extends
    the connected set with the point closest to *any* already-connected
    point; edge ``i`` (1-based) gets weight ``2 * (r - i) / (r * (r - 1))``
    where ``r`` is the path length, so early edges (closest connections)
    dominate — as defined in the COF paper.

    The greedy construction is inherently sequential *along the path*, but
    independent *across rows* — so the loop runs over the ``r - 1`` path
    positions (a handful) and each step is one batched argmin/relax over
    all rows.  It mirrors a per-row kernel over
    :func:`repro.kernels.pairwise_distances` operation for operation (same
    distance expansion, same accumulation order), so the result is
    bit-identical to looping that kernel.
    """
    n, r, _ = P.shape
    if r < 2:
        return np.zeros(n)
    sq = np.einsum("nrd,nrd->nr", P, P)
    gram = np.matmul(P, P.transpose(0, 2, 1))
    dist = sq[:, :, None] + sq[:, None, :] - 2.0 * gram
    np.maximum(dist, 0.0, out=dist)
    np.sqrt(dist, out=dist)

    rows = np.arange(n)
    in_set = np.zeros((n, r), dtype=bool)
    in_set[:, 0] = True
    best = dist[:, 0, :].copy()
    best[:, 0] = np.inf
    total = np.zeros(n)
    for i in range(1, r):
        nxt = np.argmin(best, axis=1)
        cost = best[rows, nxt]
        weight = 2.0 * (r - i) / (r * (r - 1))
        total += weight * cost
        in_set[rows, nxt] = True
        np.minimum(best, dist[rows, nxt], out=best)
        best[in_set] = np.inf
    return total


class COF(BaseDetector):
    """Connectivity-based outlier factor.

    Parameters
    ----------
    n_neighbors : int
        Neighbourhood size ``k``.
    contamination : float
        See :class:`BaseDetector`.
    """

    def __init__(self, n_neighbors: int = 20, contamination: float = 0.1):
        super().__init__(contamination=contamination)
        if n_neighbors < 1:
            raise ValueError(f"n_neighbors must be >= 1, got {n_neighbors}")
        self.n_neighbors = n_neighbors
        self._X_train = None
        self._train_ac_dist = None
        self._train_neighbors = None

    def _effective_k(self) -> int:
        return min(self.n_neighbors, self._X_train.shape[0] - 1)

    def _ac_dists(self, X: np.ndarray, reference: np.ndarray,
                  idx: np.ndarray) -> np.ndarray:
        """Average chaining distance of every row's SBN-path."""
        n = X.shape[0]
        r = idx.shape[1] + 1
        ac = np.empty(n)
        # Row blocks bound the (block, r, r) neighborhood distance
        # tensors at ~2^22 elements; rows chain independently, so
        # blocking cannot change any row's result.
        block = max(1, _BLOCK_ELEMENTS // (r * r))
        for start in range(0, n, block):
            stop = min(start + block, n)
            P = np.concatenate([X[start:stop, None, :],
                                reference[idx[start:stop]]], axis=1)
            ac[start:stop] = _batched_chaining_distances(P)
        return ac

    def _fit(self, X):
        self._X_train = X.copy()
        k = self._effective_k()
        _, idx = cached_kneighbors(X, X, k, exclude_self=True)
        ac = self._ac_dists(X, X, idx)
        self._train_ac_dist = np.maximum(ac, 1e-12)
        self._train_neighbors = idx
        neighbor_ac = self._train_ac_dist[idx]
        return ac * k / neighbor_ac.sum(axis=1)

    def _decision_function(self, X):
        k = self._effective_k()
        _, idx = cached_kneighbors(X, self._X_train, k)
        ac = self._ac_dists(X, self._X_train, idx)
        neighbor_ac = self._train_ac_dist[idx].sum(axis=1)
        return ac * k / np.maximum(neighbor_ac, 1e-12)

    def set_state(self, state: dict) -> "COF":
        super().set_state(state)
        # Artifacts saved by repro 1.3 to 1.6 carry an engine attribute.
        self.__dict__.pop("engine", None)
        return self
