"""Pure helpers behind the benchmark's metrics: tails, ladders, digests.

Everything here is a function of its arguments (no clocks, no I/O), so
``perfbench/tests`` can pin the definitions the report relies on.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

#: The serving tail percentile of the pooled base phases, which send
#: enough small requests that it has at least ten samples beyond it.
TAIL_Q = 0.90
TAIL_MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def median(values) -> float:
    return float(np.median(np.asarray(list(values), dtype=float)))


def tail_quantile(n: int, candidates=(0.999, 0.99, 0.95, 0.90, 0.75,
                                      0.50)) -> float | None:
    """Highest candidate quantile with at least ten samples beyond it.

    ``None`` when even the median lacks ten samples beyond it.
    """
    for q in candidates:
        if n - max(1, math.ceil(q * n)) >= TAIL_MIN_BEYOND:
            return q
    return None


def tail(values, q: float | None = None) -> float:
    """Latency tail: the value at ``q`` (default: :func:`tail_quantile`).

    A fixed ``q`` must leave ten samples beyond it, else ``ValueError``.
    With too few samples for any candidate, the maximum is returned:
    the slowest of a handful of batch operations is the honest tail.
    """
    values = list(values)
    n = len(values)
    if q is None:
        q = tail_quantile(n)
        if q is None:
            return float(max(values))
    elif n - max(1, math.ceil(q * n)) < TAIL_MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has fewer than "
            f"{TAIL_MIN_BEYOND} samples beyond it")
    return percentile(values, q)


def self_times(spans) -> dict:
    """Self time per span: its duration minus what its children cover.

    ``spans`` is a sequence of ``(start, end, parent_index)`` (parent
    ``None`` for roots).  Children may overlap each other (spans from
    threads that share a parent); their union is subtracted, clipped to
    the parent's interval.  Returns ``{index: self_seconds}``.
    """
    children: dict = {}
    for i, (_, _, parent) in enumerate(spans):
        if parent is not None:
            children.setdefault(parent, []).append(i)
    result = {}
    for i, (start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted((max(spans[c][0], start), min(spans[c][1], end))
                             for c in children.get(i, ())):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[i] = max(0.0, (end - start) - covered)
    return result


def backlog_growing(lags, slack_s: float) -> bool:
    """True when the sender fell progressively further behind schedule.

    ``lags`` are per-request send lags (actual send time minus due time,
    in due order).  The backlog grows when the median lag of the last
    quarter exceeds that of the first quarter by more than ``slack_s``.
    """
    lags = list(lags)
    if len(lags) < 8:
        return False
    quarter = len(lags) // 4
    return median(lags[-quarter:]) - median(lags[:quarter]) > slack_s


def ladder_max_rate(rungs) -> dict | None:
    """The highest rung of a climbing ladder that passed, and all below.

    ``rungs`` are dicts in climbing order with a boolean ``passed``.
    The ladder stops at the first failure, so a pass above a failure
    does not count.  ``None`` when the first rung failed.
    """
    best = None
    for rung in rungs:
        if not rung["passed"]:
            break
        best = rung
    return best


def rung_passes(class_latencies: dict, lags, limits_s: dict,
                slack_s: float) -> bool:
    """Every class's tail meets its limit and the backlog is steady.

    ``class_latencies`` maps class -> list of latencies in seconds, with
    ``None`` for a failed or refused request (which misses any limit);
    ``limits_s`` maps class -> latency limit in seconds.
    """
    for cls, values in class_latencies.items():
        if not values or any(v is None for v in values):
            return False
        if tail(values) > limits_s[cls]:
            return False
    return not backlog_growing(lags, slack_s)


def array_digest(arrays) -> str:
    """SHA-256 over the exact bytes (dtype, shape, data) of ``arrays``."""
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def table_digest(rows) -> str:
    """SHA-256 of a results table, independent of row order.

    ``rows`` are JSON-able dicts; floats keep every digit through
    ``repr`` so a one-ULP change alters the digest.
    """
    lines = sorted(json.dumps(row, sort_keys=True) for row in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()

