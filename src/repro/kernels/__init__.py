"""Shared neighbor-kernel backend.

One compute substrate behind every distance consumer in the repo
(KNN / LOF / COF / SOD / ABOD and KDE's kernel sums):

* :func:`pairwise_distances` / :func:`kneighbors` — chunked exact
  brute-force kernels, threaded over query blocks (BLAS releases the
  GIL), with an exact-recompute fallback so neighbor distances stay
  accurate on near-duplicate rows (see :mod:`repro.kernels.distance`).
* :class:`NeighborCache` / :func:`cached_kneighbors` — process-wide
  fingerprint-keyed memoization of self k-NN graphs, monotone in ``k``:
  one build serves the whole detector bank (see
  :mod:`repro.kernels.cache`).

The thread count is one field of the scoped
:class:`~repro.runtime.RunContext` (``with RunContext(num_threads=n)``,
:func:`repro.runtime.configure`, the ``REPRO_NUM_THREADS`` env var, the
``repro --threads`` CLI flag).  Thread count, chunking, and cache state
never change results — only wall-clock time.

>>> from repro import kernels
>>> from repro.runtime import RunContext
>>> with RunContext(num_threads=4):
...     dist, idx = kernels.cached_kneighbors(X, X, k=20, exclude_self=True)
>>> kernels.cache_stats()["builds"]
1
"""

from __future__ import annotations

import numpy as np

from repro.kernels.cache import NeighborCache, fingerprint
from repro.kernels.distance import kneighbors, pairwise_distances

__all__ = [
    "pairwise_distances",
    "kneighbors",
    "cached_kneighbors",
    "NeighborCache",
    "neighbor_cache",
    "fingerprint",
    "cache_stats",
    "clear_cache",
]

#: The process-wide cache shared by the detector bank, the experiment
#: harness, pipelines, and the scoring service.
neighbor_cache = NeighborCache()


def cached_kneighbors(query: np.ndarray, reference: np.ndarray, k: int,
                      exclude_self: bool = False, chunk_size: int = 1024):
    """Drop-in :func:`kneighbors` that memoizes self-graph queries.

    When the query *is* the reference — by object identity (the fit-time
    pattern of every neighbor detector) or by content (an ensemble
    scoring its own training matrix, e.g. ``FeatureBagging``) — the
    search is answered by :data:`neighbor_cache`; genuinely distinct
    query/reference pairs fall through to the direct kernel.  Results
    are identical either way by construction: cached graphs are built by
    the same kernel and neighbor selection/order is a pure deterministic
    function of the data.
    """
    if neighbor_cache.is_active():
        if query is reference:
            return neighbor_cache.kneighbors(
                reference, k, exclude_self=exclude_self,
                chunk_size=chunk_size)
        if (getattr(query, "shape", None)
                == getattr(reference, "shape", None)
                and getattr(query, "dtype", None)
                == getattr(reference, "dtype", None)
                and _rows_spot_equal(query, reference)):
            fp = fingerprint(reference)
            if fingerprint(query) == fp:
                return neighbor_cache.kneighbors(
                    reference, k, exclude_self=exclude_self,
                    chunk_size=chunk_size, _fp=fp)
    return kneighbors(query, reference, k, exclude_self=exclude_self,
                      chunk_size=chunk_size)


def _rows_spot_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """O(d) spot-check ruling out most unequal same-shape pairs before
    the full O(n d) fingerprint hashes (a false "maybe equal" just falls
    through to the hashes, which decide)."""
    n = a.shape[0] if a.ndim else 0
    if n == 0:
        return True
    for row in (0, n // 2, n - 1):
        if not np.array_equal(a[row], b[row]):
            return False
    return True


def cache_stats() -> dict:
    """Hit/miss/build/eviction counters of the process-wide cache."""
    return neighbor_cache.stats()


def clear_cache() -> None:
    """Empty the process-wide cache (e.g. between benchmark phases)."""
    neighbor_cache.clear()
