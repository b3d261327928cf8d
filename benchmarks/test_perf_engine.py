"""Wall-clock guard: stacked fold training must beat the per-fold loop.

The stacked fold-parallel training exists to remove Python/numpy dispatch
overhead from booster training, so its advantage is largest exactly where
that overhead dominates — many small Adam steps.  The guard uses such a
configuration (3 folds x 10 UADB iterations of a narrow MLP with small
minibatches, ~2.9x measured on a 1-core container) and asserts a 2x
floor so a regression that silently reroutes the hot path to the
per-fold fallback fails loudly.  The baseline is the per-fold oracle
``tests.oracles.SequentialFoldEnsemble``; both produce bit-identical
scores (asserted here too — a guard that compares the wrong computation
proves nothing).
"""

import time

import numpy as np
import pytest

import repro.core.booster as booster_module
from repro.core.booster import UADBooster
from repro.core.ensemble import FoldEnsemble
from tests.oracles import SequentialFoldEnsemble

# Many tiny steps: 192 samples -> 128-row folds, batch 16 -> 8 uniform
# steps per epoch (no ragged tails), hidden width 32 keeps each GEMM far
# below BLAS-bound sizes.
N, D = 192, 8
CONFIG = dict(n_iterations=10, n_folds=3, hidden=32, batch_size=16,
              record_history=False)
MIN_SPEEDUP = 2.0


def _fit_time(ensemble_cls, X, source) -> tuple:
    best = np.inf
    scores = None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(booster_module, "FoldEnsemble", ensemble_cls)
        for _ in range(3):  # best-of-3 damps scheduler noise
            booster = UADBooster(random_state=7, **CONFIG)
            start = time.perf_counter()
            booster.fit(X, source)
            best = min(best, time.perf_counter() - start)
            scores = booster.scores_
    return best, scores


def test_batched_engine_speedup():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(N, D))
    source = rng.uniform(size=N)

    t_seq, s_seq = _fit_time(SequentialFoldEnsemble, X, source)
    t_bat, s_bat = _fit_time(FoldEnsemble, X, source)

    assert np.array_equal(s_seq, s_bat)
    speedup = t_seq / t_bat
    print(f"\nstacked speedup: per-fold {t_seq:.3f}s / "
          f"stacked {t_bat:.3f}s = {speedup:.2f}x")
    assert speedup >= MIN_SPEEDUP, (
        f"stacked training only {speedup:.2f}x faster than per-fold "
        f"(floor {MIN_SPEEDUP}x): the fold-parallel hot path has regressed"
    )
