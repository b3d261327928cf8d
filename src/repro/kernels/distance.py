"""Chunked, threaded exact distance kernels.

The brute-force O(n^2) search previously lived in
:mod:`repro.detectors.neighbors`; it moved here so every distance consumer
(detectors, KDE kernel sums, the neighbor cache) shares one implementation
with two upgrades:

* **Threaded blocks** — query rows are processed in fixed-size chunks
  fanned out over :func:`repro.runtime.map_blocks`.  The block
  boundaries are deterministic, so any thread count returns bit-identical
  output.
* **Exact-recompute fallback** — the fast ``a^2 + b^2 - 2ab`` expansion
  loses up to half the significant digits for near-duplicate rows (and
  goes slightly negative before the clamp).  Neighbor *selection* keeps
  the fast expansion, but the returned distances of the ``k`` winners are
  recomputed exactly as ``sqrt(sum((q - r)^2))``, so near-duplicates
  report 0.0 rather than ~1e-8 noise.

Neighbors are selected and ordered by ``(exact distance, reference
index)`` — a pure function of each row's data, unlike a bare
``argpartition`` whose choice among boundary ties is arbitrary, and
unlike the raw expansion values, whose last ulp depends on the BLAS
block shape (so they cannot arbitrate ties consistently across chunk
sizes).  Selection stays on the fast ``argpartition``-over-expansion
path; rows with any unselected candidate within a rounding-error
tolerance of the ``k``-th value re-select among the near-boundary pool
by exact rank.  That determinism is what lets
:class:`repro.kernels.cache.NeighborCache` serve every smaller ``k``
from one ``k_build`` graph: the top-``k`` slice equals a direct
``k``-neighbor query bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.runtime import map_blocks

__all__ = ["pairwise_distances", "kneighbors"]


def _expansion_block(A: np.ndarray, sq_a: np.ndarray, B: np.ndarray,
                     sq_b: np.ndarray) -> np.ndarray:
    """Fast squared-expansion distances between row blocks (clamped)."""
    sq = sq_a[:, None] + sq_b[None, :] - 2.0 * (A @ B.T)
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq, out=sq)


def pairwise_distances(A: np.ndarray, B: np.ndarray,
                       chunk_size: int = 1024) -> np.ndarray:
    """Euclidean distance matrix between rows of ``A`` and rows of ``B``.

    Computed in ``chunk_size`` row blocks of ``A``, threaded up to the
    active :class:`~repro.runtime.RunContext`'s thread budget; chunking
    bounds the peak memory of intermediate blocks and gives the threads
    disjoint work.  Output is identical for any chunk/thread
    configuration.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ValueError(
            f"A and B must be 2-d with equal width, got {A.shape} and {B.shape}"
        )
    sq_a = np.einsum("ij,ij->i", A, A)
    sq_b = np.einsum("ij,ij->i", B, B)
    out = np.empty((A.shape[0], B.shape[0]))

    def run(bounds):
        start, stop = bounds
        out[start:stop] = _expansion_block(A[start:stop], sq_a[start:stop],
                                           B, sq_b)

    map_blocks(run, _block_bounds(A.shape[0], chunk_size))
    return out


def _block_bounds(n: int, chunk_size: int):
    return [(start, min(start + chunk_size, n))
            for start in range(0, n, chunk_size)]


def kneighbors(query: np.ndarray, reference: np.ndarray, k: int,
               exclude_self: bool = False, chunk_size: int = 1024):
    """The ``k`` nearest reference rows for every query row.

    Parameters
    ----------
    query, reference : ndarray
        Row matrices with matching widths.
    k : int
        Number of neighbours to return.
    exclude_self : bool
        When querying a set against itself, skip the zero-distance match of
        each point with itself (the standard convention for LOF/KNN training
        scores).  Implemented positionally: row ``i`` of the query ignores
        row ``i`` of the reference.
    chunk_size : int
        Number of query rows processed per distance block.  Blocks run in
        parallel under the :class:`~repro.runtime.RunContext` thread
        budget (``num_threads`` / ``REPRO_NUM_THREADS``); neither knob
        changes the result.

    Returns
    -------
    (distances, indices) : ndarrays of shape (n_query, k)
        Selected and sorted ascending by ``(exact distance, reference
        index)``.  Distances are exact (recomputed from the coordinate
        differences of the selected neighbours, immune to the
        expansion-formula cancellation on near-duplicate rows).
    """
    query = np.asarray(query, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    n_ref = reference.shape[0]
    max_k = n_ref - 1 if exclude_self else n_ref
    if not 1 <= k <= max_k:
        raise ValueError(
            f"k must be in [1, {max_k}] for {n_ref} reference rows "
            f"(exclude_self={exclude_self}), got {k}"
        )
    n_query = query.shape[0]
    n_feat = query.shape[1]
    sq_q = np.einsum("ij,ij->i", query, query)
    sq_r = np.einsum("ij,ij->i", reference, reference)
    sq_scale = float(sq_r.max()) if n_ref else 0.0
    distances = np.empty((n_query, k))
    indices = np.empty((n_query, k), dtype=np.int64)

    def run(bounds):
        start, stop = bounds
        block = _expansion_block(query[start:stop], sq_q[start:stop],
                                 reference, sq_r)
        if exclude_self:
            rows = np.arange(start, stop)
            block[np.arange(stop - start), rows] = np.inf
        if k < n_ref:
            part = np.argpartition(block, k - 1, axis=1)[:, :k]
        else:
            part = np.tile(np.arange(n_ref), (stop - start, 1))
        vals = np.take_along_axis(block, part, axis=1)
        kth = vals.max(axis=1)
        # Expansion values carry GEMM rounding whose last ulp depends on
        # the block shape, so they cannot arbitrate selection near the
        # k-th boundary: rows with any further candidate within `tol`
        # (a bound on that rounding, in distance units) of the boundary
        # re-select among the near-boundary pool by exact
        # (squared distance, index) rank — a pure function of the row
        # data, invariant to chunking and threading.
        tol = np.sqrt(64.0 * n_feat * np.finfo(np.float64).eps
                      * (sq_q[start:stop] + sq_scale + 1.0))
        loose = np.flatnonzero(
            np.count_nonzero(block <= (kth + tol)[:, None], axis=1) > k)
        for i in loose:
            cand = np.flatnonzero(block[i] <= kth[i] + tol[i])
            diff_c = query[start + i] - reference[cand]
            exact_c = np.einsum("cd,cd->c", diff_c, diff_c)
            part[i] = cand[np.argsort(exact_c, kind="stable")[:k]]
        # Exact recompute for the winners only (n_block * k * d work);
        # the final order is (exact squared distance, index), which the
        # expansion values cannot provide.
        diff = query[start:stop, None, :] - reference[part]
        exact_sq = np.einsum("mkd,mkd->mk", diff, diff)
        order = np.lexsort((part, exact_sq), axis=1)
        indices[start:stop] = np.take_along_axis(part, order, axis=1)
        distances[start:stop] = np.sqrt(
            np.take_along_axis(exact_sq, order, axis=1))

    map_blocks(run, _block_bounds(n_query, chunk_size))
    return distances, indices
