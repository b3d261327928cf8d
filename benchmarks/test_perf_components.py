"""Micro-benchmarks of the core computational components.

Not tied to a specific paper table; these keep the substrate honest about
cost (detector fits, booster rounds, variance updates) and give
pytest-benchmark real multi-round timing data.

The neighbor-kernel section additionally enforces wall-clock floors for
the PR-4 shared backend (vectorized ABOD/COF/SOD scoring >= 2x their
per-row oracles in ``tests.oracles``; the warm detector bank >= 2x the
uncached reference baseline).  Refreshing the checked-in
machine-readable ``BENCH_PR4.json`` snapshot is **opt-in** — set
``REPRO_BENCH_WRITE=1`` on a quiet machine — because local timings drift
+-20% run to run and an unconditional write churned the file on every
benchmark invocation.
"""

import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import pytest

import repro.kernels as kernels
from repro.core.ensemble import FoldEnsemble
from repro.core.variance import variance_history
from repro.data.preprocessing import StandardScaler
from repro.data.synthetic import make_anomaly_dataset
from repro.detectors.registry import ALL_DETECTOR_NAMES, make_detector
from repro.runtime import resolve_num_threads
from tests.oracles import ReferenceABOD, ReferenceCOF, ReferenceSOD

# Per-row scoring oracles standing in for the vectorized detectors in the
# reference baselines.
REFERENCE = {"ABOD": ReferenceABOD, "COF": ReferenceCOF,
             "SOD": ReferenceSOD}


@pytest.fixture(scope="module")
def data():
    ds = make_anomaly_dataset("local", n_inliers=450, n_anomalies=50,
                              n_features=16, random_state=0)
    return StandardScaler().fit_transform(ds.X)


@pytest.mark.parametrize("name", ["IForest", "HBOS", "LOF", "KNN", "ECOD",
                                  "GMM", "COPOD", "LODA"])
def test_detector_fit_speed(benchmark, data, name):
    def fit():
        return make_detector(name, random_state=0).fit(data)

    detector = benchmark(fit)
    assert detector.decision_scores_.shape == (500,)


def test_booster_round_speed(benchmark, data):
    ens = FoldEnsemble(min_steps_per_round=50, first_round_steps=50,
                       random_state=0).initialize(data)
    pseudo = np.random.default_rng(0).uniform(size=data.shape[0])
    benchmark(ens.train_round, data, pseudo)


def test_variance_update_speed(benchmark):
    rng = np.random.default_rng(0)
    labels = rng.uniform(size=(5000, 11))
    student = rng.uniform(size=(5000, 3))
    result = benchmark(variance_history, labels, student)
    assert result.shape == (5000,)


# -- shared neighbor-kernel backend (PR 4) ---------------------------------

BENCH_N = 2000
BENCH_D = 16
SNAPSHOT = Path(__file__).resolve().parent.parent / "BENCH_PR4.json"


@pytest.fixture(scope="module")
def bank_data():
    """The n=2000 matrix behind the PR-4 acceptance measurements."""
    ds = make_anomaly_dataset("local", n_inliers=BENCH_N - 200,
                              n_anomalies=200, n_features=BENCH_D,
                              random_state=0)
    return StandardScaler().fit_transform(ds.X)


def _best_of(fn, repeats: int = 3) -> float:
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def pr4_snapshot():
    """Accumulates section results; written to BENCH_PR4.json at teardown."""
    snapshot = {
        "benchmark": "PR4 shared neighbor-kernel backend",
        "note": "baseline_s disables the neighbor cache and uses the "
                "per-row oracle loops in-process; it still runs the "
                "PR-4 selection kernel, so it *understates* the speedup "
                "over the real pre-PR main (paired runs on this box "
                "measured pre-PR main at 2.65-2.84s for the bank pass, "
                "vs ~2.4s for this baseline).",
        "config": {"n": BENCH_N, "d": BENCH_D,
                   "threads": resolve_num_threads()},
        "env": {"python": platform.python_version(),
                "numpy": np.__version__,
                "cpu_count": os.cpu_count()},
    }
    yield snapshot
    # Replacing the checked-in snapshot is opt-in (REPRO_BENCH_WRITE=1):
    # timings drift +-20% between runs, so default runs must not churn
    # the file.  Even then, only a run of every section may write — a
    # selective run (one floor test, -x after a failure) would otherwise
    # clobber it with a partial document.
    sections = {"engine_scoring", "neighbor_detector_fits", "bank_pass"}
    if os.environ.get("REPRO_BENCH_WRITE", "") != "1":
        print(f"\n{SNAPSHOT.name} left untouched "
              f"(set REPRO_BENCH_WRITE=1 to refresh the snapshot)")
    elif sections <= snapshot.keys():
        SNAPSHOT.write_text(json.dumps(snapshot, indent=1) + "\n")
        print(f"\nwrote {SNAPSHOT}")
    else:
        print(f"\n{SNAPSHOT.name} left untouched "
              f"(missing sections: {sorted(sections - snapshot.keys())})")


@pytest.mark.parametrize("name", ["ABOD", "COF", "SOD", "KDE"])
def test_neighbor_detector_fit_speed(benchmark, bank_data, name):
    """pytest-benchmark timing of the vectorized fits (n=2000)."""
    X = bank_data

    def fit():
        return make_detector(name, random_state=0).fit(X)

    detector = benchmark(fit)
    assert detector.decision_scores_.shape == (BENCH_N,)


def test_vectorized_engine_floor(bank_data, pr4_snapshot):
    """Vectorized ABOD/COF/SOD scoring must stay >= 2x the reference
    loops (same warm k-NN graph, so the comparison is pure scoring) and
    bit-identical to them."""
    X = bank_data
    results = {}
    kernels.clear_cache()
    kernels.cached_kneighbors(X, X, 20, exclude_self=True)  # warm graph
    for name in ("ABOD", "COF", "SOD"):
        vec = make_detector(name)
        ref = REFERENCE[name]()
        t_vec = _best_of(lambda: vec.fit(X))
        t_ref = _best_of(lambda: ref.fit(X))
        assert np.array_equal(vec.decision_scores_, ref.decision_scores_)
        speedup = t_ref / t_vec
        results[name] = {"vectorized_s": round(t_vec, 4),
                         "reference_s": round(t_ref, 4),
                         "speedup": round(speedup, 2)}
        print(f"{name}: vectorized {t_vec:.3f}s vs reference {t_ref:.3f}s "
              f"({speedup:.1f}x)")
    kernels.clear_cache()
    floor = min(r["speedup"] for r in results.values())
    assert floor >= 2.0, f"vectorized scoring floor violated: {results}"
    # Recorded only after the floor holds: a failing run must not
    # replace the checked-in snapshot with sub-floor numbers.
    pr4_snapshot["engine_scoring"] = results


def test_detector_bank_pass_floor(bank_data, pr4_snapshot):
    """A full 20-detector bank pass vs the uncached reference baseline.

    The baseline disables the neighbor cache and swaps in the per-row
    oracle loops — the behaviour before the shared kernel backend,
    kernel for kernel.  Cold = first pass on a dataset (one graph
    build); warm = repeat visits, the steady state of
    multi-seed/multi-detector sweeps.  The floor is on the warm pass,
    which shared runners time reliably; the cold ratio is recorded in
    the snapshot.
    """
    X = bank_data

    def fit(name: str, use_oracles: bool) -> None:
        if use_oracles and name in REFERENCE:
            REFERENCE[name]().fit(X)
        else:
            make_detector(name, random_state=0).fit(X)

    def bank(use_oracles: bool) -> None:
        for name in ALL_DETECTOR_NAMES:
            fit(name, use_oracles)

    neighbor_detectors = ("KNN", "LOF", "COF", "SOD", "ABOD")

    def neighbor_fits(use_oracles: bool) -> None:
        for name in neighbor_detectors:
            fit(name, use_oracles)

    kernels.neighbor_cache.enabled = False
    try:
        kernels.clear_cache()
        t_baseline = _best_of(lambda: bank(use_oracles=True), 2)
        t_nb_baseline = _best_of(lambda: neighbor_fits(True), 2)
    finally:
        kernels.neighbor_cache.enabled = True
    kernels.clear_cache()
    t_nb = _best_of(lambda: (kernels.clear_cache(),
                             neighbor_fits(False)), 2)
    nb_fits = {
        "detectors": list(neighbor_detectors),
        "baseline_s": round(t_nb_baseline, 3),
        "shared_kernel_s": round(t_nb, 3),
        "speedup": round(t_nb_baseline / t_nb, 2),
    }
    print(f"5 neighbor-detector fits: baseline {t_nb_baseline:.2f}s, "
          f"shared kernel {t_nb:.2f}s ({t_nb_baseline / t_nb:.1f}x)")

    kernels.clear_cache()
    t_cold = _best_of(lambda: (kernels.clear_cache(),
                               bank(use_oracles=False)), 2)
    t_warm = _best_of(lambda: bank(use_oracles=False), 2)
    stats = kernels.cache_stats()

    cold_speedup = t_baseline / t_cold
    warm_speedup = t_baseline / t_warm
    bank_pass = {
        "detectors": len(ALL_DETECTOR_NAMES),
        "baseline_s": round(t_baseline, 3),
        "cold_s": round(t_cold, 3),
        "warm_s": round(t_warm, 3),
        "cold_speedup": round(cold_speedup, 2),
        "warm_speedup": round(warm_speedup, 2),
        "cache_stats": stats,
    }
    print(f"bank pass: baseline {t_baseline:.2f}s, cold {t_cold:.2f}s "
          f"({cold_speedup:.1f}x), warm {t_warm:.2f}s "
          f"({warm_speedup:.1f}x)")
    kernels.clear_cache()
    assert warm_speedup >= 2.0, bank_pass
    assert cold_speedup >= 1.3, bank_pass
    assert nb_fits["speedup"] >= 3.0, nb_fits
    # Recorded only after every floor holds: a failing run must not
    # replace the checked-in snapshot with sub-floor numbers.
    pr4_snapshot["neighbor_detector_fits"] = nb_fits
    pr4_snapshot["bank_pass"] = bank_pass
