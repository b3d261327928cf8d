"""The benchmark workloads.

Each ``run_<workload>(ctx)`` sets up its inputs from ``ctx.seed``, times
its unit of work for about ``ctx.seconds``, checks the outputs, and
returns a :class:`Outcome`.  With ``ctx.trace`` the same work runs with
span wrappers installed, alternating untraced and traced repetitions so
the tracing overhead is measured in the same process.

End-to-end metrics share names across workloads (``rate_per_s`` is the
workload's completion rate); ``Outcome.report`` adds the
workload-specific latencies (``fit_s``, ``small_p50_ms``, ...) and
tails.
"""

from __future__ import annotations

import json
import math
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import spans as sp
from env import cpu_seconds
from stats import (TAIL_Q, array_digest, ladder_max_rate, median,
                   percentile, rung_passes, table_digest, tail,
                   tail_quantile)

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())
SETUP_REPEATS = 3
WARM_ROWS = 300   # rows of the small warm-up fits inside set-up


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    import_s: float
    root: Path
    workdir: Path
    tracer: sp.Tracer


@dataclass
class Outcome:
    setup_s: float
    rate_per_s: float
    attempted: int
    failed: int
    layers: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)   # (name, ok, detail)
    info: dict = field(default_factory=dict)


def _repeat(fn, times: int = SETUP_REPEATS):
    """Run ``fn`` ``times`` times; (median seconds, last result)."""
    durations, result = [], None
    for _ in range(times):
        t0 = time.perf_counter()
        result = fn()
        durations.append(time.perf_counter() - t0)
    return median(durations), result


def _timed_loop(ctx: Context, op, minimum: int = 3):
    """Call ``op(traced)`` until ``ctx.seconds`` pass (at least
    ``minimum`` times); untraced calls give the timings.  In a traced run
    calls alternate untraced/traced and both lists are returned."""
    plain, traced = [], []
    deadline = time.perf_counter() + ctx.seconds
    i = 0
    while i < minimum * (2 if ctx.trace else 1) \
            or time.perf_counter() < deadline:
        with_trace = ctx.trace and i % 2 == 1
        ctx.tracer.enabled = with_trace
        t0 = time.perf_counter()
        op(with_trace)
        (traced if with_trace else plain).append(time.perf_counter() - t0)
        i += 1
    ctx.tracer.enabled = False
    return plain, traced


def _overhead_pct(plain, traced) -> float:
    return 100.0 * (median(traced) / median(plain) - 1.0) if traced else 0.0


def _training_layers(spans) -> dict:
    """repro.nn / repro.core metrics over ``spans``."""
    adam = sp.count(spans, "nn.adam_step")
    fallback = (sp.busy(spans, "nn.seq_forward", under="core.train_round")
                + sp.busy(spans, "nn.seq_backward", under="core.train_round"))
    return {
        "nn.batched_forward.busy_s": sp.busy(spans, "nn.batched_forward"),
        "nn.batched_backward.busy_s": sp.busy(spans, "nn.batched_backward"),
        "nn.adam_step.busy_s": sp.busy(spans, "nn.adam_step"),
        "nn.adam_step.calls": adam,
        "nn.fold_fallback.busy_s": fallback,
        "nn.ragged_step_share": _ragged_share(spans),
        "core.train_round.busy_s": sp.busy(spans, "core.train_round"),
        "core.predict_per_fold.busy_s": sp.busy(spans,
                                                "core.predict_per_fold"),
        "core.variance.busy_s": sp.busy(spans, "core.variance"),
        "core.fit.self_s": sp.self_time(spans, "core.fit"),
    }


def _ragged_share(spans) -> float:
    """Adam steps called with an ``active`` mask / all Adam steps."""
    adam = sp.count(spans, "nn.adam_step")
    ragged = sp.count(spans, "nn.adam_step", lambda t: t == "ragged")
    return ragged / adam if adam else 0.0


def _per_op(layers: dict, n: int) -> dict:
    """Divide busy times and call counts by the ``n`` operations traced."""
    n = max(1, n)
    return {k: (v / n if k.endswith(("busy_s", "self_s", "fit_s", ".calls"))
                else v) for k, v in layers.items()}


# ---------------------------------------------------------------------------
# boost-fit
# ---------------------------------------------------------------------------

PAPER_BOOSTER = dict(n_iterations=10, n_folds=3, hidden=128, n_layers=3,
                     epochs_per_iteration=10, batch_size=256,
                     dtype="float32")


def canonical_booster_digest() -> str:
    """Digest of a small fixed booster fit (seed-independent)."""
    from repro.core import UADBooster
    from repro.data.preprocessing import StandardScaler
    from repro.data.registry import load_dataset
    from repro.detectors import IForest

    data = load_dataset("cardio", max_samples=300, max_features=21)
    X = StandardScaler().fit_transform(data.X)
    source = IForest(random_state=0).fit(X).fit_scores()
    booster = UADBooster(**{**PAPER_BOOSTER, "n_iterations": 2},
                         random_state=0).fit(X, source)
    return array_digest([booster.scores_])


def run_boost_fit(ctx: Context) -> Outcome:
    from repro.core import UADBooster
    from repro.data.preprocessing import StandardScaler
    from repro.data.registry import load_dataset
    from repro.detectors import IForest

    def prep():
        data = load_dataset("cardio", max_samples=1831, max_features=21,
                            random_state=ctx.seed)
        X = StandardScaler().fit_transform(data.X)
        source = IForest(random_state=ctx.seed).fit(X).fit_scores()
        # One round on a slice warms the training code and the BLAS
        # thread pool; the timed fits need no warm-up fit of their own.
        UADBooster(**{**PAPER_BOOSTER, "n_iterations": 1},
                   random_state=ctx.seed).fit(X[:WARM_ROWS],
                                              source[:WARM_ROWS])
        return X, source

    prep_s, (X, source) = _repeat(prep)
    if ctx.trace:
        sp.install_training(ctx.tracer)

    scores, spans = [], []

    def op(traced):
        scores.append(UADBooster(**PAPER_BOOSTER, random_state=ctx.seed)
                      .fit(X, source).scores_)
        if traced:
            sp.extend(spans, ctx.tracer.drain())

    plain, traced = _timed_loop(ctx, op)
    differ = sum(not np.array_equal(s, scores[0]) for s in scores[1:])
    digest = canonical_booster_digest()
    out = Outcome(
        setup_s=ctx.import_s + prep_s,
        rate_per_s=1.0 / median(plain),
        attempted=len(scores), failed=differ,
        checks=[("boost-fit canonical digest",
                 digest == EXPECTED["boost_fit_canonical"], digest),
                ("boost-fit scores identical across fits", not differ,
                 f"{differ} of {len(scores)} differ from the first")],
        report={"fit_s": (median(plain), "s", "lower"),
                "fit_tail_s": (tail(plain), "s", "lower"),
                "fits": (len(plain), "count", None)},
        info={"shape": list(X.shape), "fit_s": plain})
    if ctx.trace:
        out.layers = _per_op(_training_layers(spans), len(traced))
        out.layers["trace.overhead_pct"] = _overhead_pct(plain, traced)
        grid = traced_sweep_grid(ctx)
        out.layers |= grid.layers
        out.checks += grid.checks
        out.attempted += grid.attempted
        out.failed += grid.failed
        out.info["sweep_grid"] = grid.info
    return out


# ---------------------------------------------------------------------------
# The Table IV grid, run once inside boost-fit's traced run
# ---------------------------------------------------------------------------

SWEEP_DETECTORS = ("IForest", "LOF", "DeepSVDD")
SWEEP_DATASETS = ("cardio", "annthyroid")
# benchmarks/conftest.py's protocol, except T=2 rounds instead of 10: the
# BLAS oversubscription makes one grid take from about 2.5x to about 19x
# its single-BLAS-thread time, and at T=10 its slow end would not fit a
# run's time limit.
SWEEP_PROTOCOL = dict(n_iterations=2, max_samples=400, max_features=24)
SWEEP_SEEDS = (0,)


def load_dataset_for_sweep(name: str):
    from repro.data.registry import load_dataset

    return load_dataset(name, max_samples=SWEEP_PROTOCOL["max_samples"],
                        max_features=SWEEP_PROTOCOL["max_features"])


def sweep_rows(results) -> list:
    return [asdict(r) for r in results]


def traced_sweep_grid(ctx: Context) -> Outcome:
    """``ExperimentRunner.run_grid`` at ``n_jobs = nproc`` on the process
    backend, traced: the repro.experiments and repro.runtime metrics.

    Its timing is not an end-to-end metric: with every process running
    its own OpenBLAS threads the grid's time varies several-fold from run
    to run (see ``README.md``), more than any bound allows.
    """
    from repro.experiments.harness import ExperimentRunner

    if os.environ.get("REPRO_BENCH_CACHE"):
        raise SystemExit("the sweep grid measures uncached cells: unset "
                         "REPRO_BENCH_CACHE")
    rng = np.random.default_rng(ctx.seed)
    detectors = [SWEEP_DETECTORS[i]
                 for i in rng.permutation(len(SWEEP_DETECTORS))]
    names = [SWEEP_DATASETS[i] for i in rng.permutation(len(SWEEP_DATASETS))]
    datasets = [load_dataset_for_sweep(name) for name in names]
    n_jobs = len(os.sched_getaffinity(0))
    sp.install_training(ctx.tracer)
    sp.install_detectors(ctx.tracer)
    sp.install_experiments(ctx.tracer)
    runner = ExperimentRunner(n_jobs=n_jobs, backend="process")

    ctx.tracer.enabled = True
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    results = runner.run_grid(detectors=detectors, datasets=datasets,
                              seeds=SWEEP_SEEDS,
                              n_iterations=SWEEP_PROTOCOL["n_iterations"])
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    ctx.tracer.enabled = False

    cells = [r.__dict__.pop("_perfbench") for r in results]
    digest = table_digest(sweep_rows(results))
    ok = digest == EXPECTED["sweep_grid_serial"]
    spans = []
    for c in cells:
        sp.extend(spans, c["spans"])
    busy = sum(c["end"] - c["start"] for c in cells)
    return Outcome(
        setup_s=0.0, rate_per_s=len(cells) / wall,
        attempted=len(cells), failed=0 if ok else len(cells),
        checks=[("sweep grid table matches the serial digest", ok,
                 digest)],
        layers={
            "experiments.cells_per_s": len(cells) / wall,
            "experiments.ragged_step_share": _ragged_share(spans),
            "experiments.cell.busy_s": sp.busy(spans, "experiments.cell"),
            "experiments.detector_fit.busy_s": sp.busy(
                spans, "detectors.fit", under="experiments.cell"),
            "experiments.booster_fit.busy_s": sp.busy(spans, "core.fit"),
            "experiments.metrics.busy_s": sp.busy(spans,
                                                  "experiments.metrics"),
            "runtime.worker_idle_share": 1.0 - busy / (n_jobs * wall),
            "runtime.cpu_s_per_cell": cpu / len(cells),
            "runtime.blas_threads": median(
                [c["blas_threads"] or 0 for c in cells]),
        },
        info={"n_jobs": n_jobs, "backend": "process", "grid_s": wall,
              "cpu_s": cpu, "detectors": detectors, "datasets": names,
              "protocol": SWEEP_PROTOCOL,
              "blas_threads_per_worker": sorted(
                  {c["pid"]: c["blas_threads"] for c in cells}.values())})


# ---------------------------------------------------------------------------
# detector-bank
# ---------------------------------------------------------------------------

def bank_inputs():
    """The fixed satellite stand-in: 3500 rows to fit, 500 held out."""
    from repro.data.preprocessing import StandardScaler
    from repro.data.registry import load_dataset

    data = load_dataset("satellite", max_samples=4000, max_features=36)
    order = np.random.default_rng(0).permutation(data.X.shape[0])
    X = StandardScaler().fit_transform(data.X[order])
    return X[:3500], X[3500:]


def bank_pass(names, X_fit, X_held) -> tuple:
    """Fit and score every detector; (digests by name, fit seconds)."""
    from repro import kernels
    from repro.detectors.registry import make_detector

    kernels.clear_cache()
    digests, fit_s = {}, {}
    for name in names:
        t0 = time.perf_counter()
        detector = make_detector(name, random_state=0).fit(X_fit)
        fit_s[name] = time.perf_counter() - t0
        digests[name] = array_digest([detector.score_samples(X_held)])
    return digests, fit_s


def _detector_layers(spans) -> dict:
    from repro.detectors.registry import ALL_DETECTOR_NAMES

    layers = {f"detectors.{name}.fit_s": sp.busy(
        spans, "detectors.fit", lambda t, n=name: t == n)
        for name in ALL_DETECTOR_NAMES}
    return layers | {
        "detectors.score_samples.busy_s": sp.busy(
            spans, "detectors.score_samples"),
        "kernels.kneighbors.busy_s": sp.busy(spans, "kernels.kneighbors"),
        "kernels.kneighbors.calls": sp.count(spans, "kernels.kneighbors"),
        "kernels.pairwise.busy_s": sp.busy(spans, "kernels.pairwise"),
    }


def run_detector_bank(ctx: Context) -> Outcome:
    from repro import kernels
    from repro.detectors.registry import ALL_DETECTOR_NAMES

    rng = np.random.default_rng(ctx.seed)
    names = [ALL_DETECTOR_NAMES[i]
             for i in rng.permutation(len(ALL_DETECTOR_NAMES))]

    def prep():
        X_fit, X_held = bank_inputs()
        # A pass on a slice warms every detector's code paths.
        bank_pass(names, X_fit[:WARM_ROWS], X_held[:WARM_ROWS])
        return X_fit, X_held

    prep_s, (X_fit, X_held) = _repeat(prep)
    if ctx.trace:
        sp.install_detectors(ctx.tracer)

    expected = EXPECTED["detector_bank"]
    wrong, spans, cache = set(), [], []

    def op(traced):
        digests, _ = bank_pass(names, X_fit, X_held)
        wrong.update(n for n in names if digests[n] != expected[n])
        if traced:
            sp.extend(spans, ctx.tracer.drain())
            cache.append(kernels.cache_stats())

    plain, traced = _timed_loop(ctx, op)
    n = len(plain) + len(traced)
    out = Outcome(
        setup_s=ctx.import_s + prep_s,
        rate_per_s=len(names) / median(plain),
        attempted=n * len(names), failed=n * len(wrong),
        checks=[("detector-bank held-out digests", not wrong,
                 f"mismatch: {sorted(wrong)}" if wrong else "all match")],
        report={"bank_s": (median(plain), "s", "lower"),
                "bank_tail_s": (tail(plain), "s", "lower"),
                "passes": (len(plain), "count", None)},
        info={"fit_shape": list(X_fit.shape), "order": names})
    if ctx.trace:
        out.layers = _per_op(_detector_layers(spans), len(traced))
        hits = sum(c["hits"] for c in cache)
        misses = sum(c["misses"] for c in cache)
        out.layers |= {
            "kernels.cache.hit_share": hits / (hits + misses)
            if hits + misses else 0.0,
            "kernels.cache.builds": sum(c["builds"] for c in cache)
            / max(1, len(cache)),
            "trace.overhead_pct": _overhead_pct(plain, traced),
        }
    return out


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------

SERVE_DETECTORS = ("IForest", "HBOS", "LOF", "KNN", "PCA", "OCSVM",
                   "COPOD", "ECOD")
SERVE_BOOSTER_SOURCES = ("IForest", "LOF")
# Traffic.  No recorded traffic exists for this service, so the mix is
# an assumption: one request in five is a 512-row booster request.  The
# base rate is about a third of the server's closed-loop capacity on
# current main (about 40 requests/s, see README.md): a loaded, not
# saturated server.  Its connections see requests too far apart for
# the server's delayed-ACK stall, so the base-rate latencies price the
# serving path itself; the stall shows where requests follow each other
# closely: in capacity_rps, in the ladder's per-rung latencies and in
# serving.transport_s.
BASE_RATE = 15.0          # requests/s of the fixed-rate phases
LADDER_STEP = 1.25        # each rung sends 1.25x the previous rate
LADDER_RUNGS = 20         # up to 15 * 1.25**20, about 1300 requests/s
RUNG_REQUESTS = 100
SERVERS = 3               # server processes launched per run
LARGE_SHARE = 0.2
SMALL_ROWS, LARGE_ROWS = 4, 512
# A rung passes while each class's tail stays within LIMIT_FACTOR times
# that class's tail at the base rate (and nothing failed, and the
# backlog does not grow).
LIMIT_FACTOR = 4.0
BACKLOG_SLACK_S = 0.25


def build_store(root: Path) -> dict:
    """Fit the served models on the cardio stand-in; {id: model}."""
    from repro.core import UADBooster
    from repro.data.registry import load_dataset
    from repro.detectors.registry import make_detector
    from repro.serving import ModelStore

    X = load_dataset("cardio", max_samples=1831, max_features=21).X
    root.mkdir()
    store = ModelStore(root)
    models = {}
    for name in SERVE_DETECTORS:
        models[name] = make_detector(name, random_state=0).fit(X)
    for name in SERVE_BOOSTER_SOURCES:
        models[f"UADB-{name}"] = UADBooster(
            **{**PAPER_BOOSTER, "n_iterations": 2}, random_state=0).fit(
            X, models[name])
    for model_id, model in models.items():
        store.save(model, model_id)
    return models


class Server:
    """``serve_launcher.py`` in a child process."""

    def __init__(self, ctx: Context, store: Path, cache_size: int,
                 traced: bool):
        self.spans_path = ctx.workdir / f"spans-{time.monotonic_ns()}.json"
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve_launcher.py"),
             "--store", str(store), "--cache-size", str(cache_size),
             "--src", str(ctx.root / "src"),
             "--trace", "1" if traced else "0",
             "--spans-out", str(self.spans_path)],
            stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], 120)
        line = self.proc.stdout.readline().split() if ready else []
        if len(line) != 2 or line[0] != "READY":
            self.stop()
            raise RuntimeError(f"server launcher failed: {line}")
        self.port = int(line[1])

    def stop(self) -> list:
        """Stop the server; its recorded spans (empty when untraced)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        if self.spans_path.exists():
            spans = json.loads(self.spans_path.read_text())
            self.spans_path.unlink()
            return spans
        return []


def _body(model_id: str, rows: np.ndarray) -> bytes:
    return json.dumps({"model_id": model_id, "X": rows.tolist()}).encode()


def make_schedule(seed, n: int, rate: float, prefix: str, pool: np.ndarray,
                  detectors, boosters):
    """A seeded open-loop schedule of ``n`` requests at ``rate``/s.

    Gaps are uniform in [0.5, 1.5] of the mean (all zero at an infinite
    rate: a closed loop, each connection sending as soon as its previous
    request is answered); a request is large with
    probability ``LARGE_SHARE``.  Small requests cycle over the
    detectors, large ones over the boosters.  ``seed`` is anything
    ``np.random.default_rng`` takes, so each phase draws its own inputs.
    """
    from loadgen import Request

    rng = np.random.default_rng(seed)
    due = np.cumsum(rng.uniform(0.5, 1.5, n) / rate)
    due -= due[0]
    large = rng.random(n) < LARGE_SHARE
    schedule, n_small, n_large = [], 0, 0
    for i in range(n):
        if large[i]:
            model_id = boosters[n_large % len(boosters)]
            start = int(rng.integers(0, pool.shape[0] - LARGE_ROWS))
            rows = pool[start:start + LARGE_ROWS]
            n_large += 1
        else:
            model_id = detectors[n_small % len(detectors)]
            rows = pool[rng.integers(0, pool.shape[0], SMALL_ROWS)]
            n_small += 1
        schedule.append(Request(
            due=float(due[i]), cls="large" if large[i] else "small",
            model_id=model_id, body=_body(model_id, rows),
            request_id=f"{prefix}{i}", rows=rows))
    return schedule


def run_serve_mixed(ctx: Context) -> Outcome:
    from repro.data.registry import load_dataset
    from repro.serving import load_model

    stores = iter(range(SETUP_REPEATS))

    def prep():
        store = ctx.workdir / f"store-{next(stores)}"
        build_store(store)
        models = {p.name: load_model(p) for p in sorted(store.iterdir())}
        pool = load_dataset("cardio", max_samples=1831, max_features=21,
                            random_state=ctx.seed).X
        return store, models, pool

    build_s, (store, models, pool) = _repeat(prep)
    plan = ServePlan(ctx, store, models, pool,
                     connections=len(os.sched_getaffinity(0)))
    try:
        return plan.run(build_s)
    finally:
        plan.stop_all()


def class_latency_ms(results, cls=None) -> tuple:
    """(p50, tail) in ms of ``cls`` requests pooled over ``results``,
    both nearest-rank.

    The tail is p90 (``TAIL_Q``) when at least ten samples lie beyond
    it, else the highest percentile that has ten beyond it.
    """
    values = [o.latency for r in results for o in r.outcomes
              if o.ok and (cls is None or o.request.cls == cls)]
    if not values:
        return float("nan"), float("nan")
    q = tail_quantile(len(values))
    q = TAIL_Q if q is not None and q >= TAIL_Q else q
    return 1e3 * percentile(values, 0.5), 1e3 * tail(values, q)


class ServePlan:
    """Launch servers; run the base, capacity and ladder phases; check."""

    def __init__(self, ctx, store, models, pool, connections):
        self.ctx, self.store = ctx, store
        self.models, self.pool = models, pool
        self.detectors = [i for i in models if not i.startswith("UADB-")]
        self.boosters = [i for i in models if i.startswith("UADB-")]
        # The base phases fill about half the run; the ladder the rest.
        self.n_phases = max(2, round(0.5 * ctx.seconds * BASE_RATE
                                     / RUNG_REQUESTS))
        self.connections = connections
        self.started: list = []
        self.outcomes: list = []
        self.inexact = 0
        self.mismatched = 0

    def schedule(self, kind: int, k: int, rate: float) -> list:
        """Phase ``k`` of ``kind`` (0: base, 1: ladder, 2: capacity); the
        same inputs in the untraced and the traced measurement."""
        return make_schedule([self.ctx.seed, kind, k], RUNG_REQUESTS, rate,
                             f"{'brc'[kind]}{k}-", self.pool, self.detectors,
                             self.boosters)

    def launch(self, traced: bool) -> Server:
        """A server whose every model has answered once."""
        from loadgen import Request, run_phase

        server = Server(self.ctx, self.store, cache_size=len(self.models),
                        traced=traced)
        self.started.append(server)
        warm = [Request(due=0.0, cls="warm", model_id=i,
                        body=_body(i, self.pool[:SMALL_ROWS]),
                        request_id=f"w{k}", rows=None)
                for k, i in enumerate(self.models)]
        result = run_phase("127.0.0.1", server.port, warm, 1)
        if not all(o.ok for o in result.outcomes):
            raise RuntimeError("a model failed its warm-up request")
        return server

    def stop_all(self) -> None:
        for server in self.started:
            server.stop()

    def check(self, result) -> None:
        """Every response must equal the model's solo ``score_samples``
        within float32 tolerance; exact mismatches are counted."""
        for o in result.outcomes:
            self.outcomes.append(o)
            if not o.ok:
                continue
            got = np.asarray(o.scores, dtype=np.float64)
            want = np.asarray(self.models[o.request.model_id].score_samples(
                o.request.rows), dtype=np.float64)
            if got.shape != want.shape or not np.allclose(
                    got, want, rtol=1e-5, atol=1e-6):
                self.mismatched += 1
                o.status = -1   # counts as failed
                continue
            self.inexact += int(np.count_nonzero(got != want))

    def send(self, server, schedule):
        from loadgen import run_phase

        result = run_phase("127.0.0.1", server.port, schedule,
                           self.connections)
        self.check(result)
        return result

    def measure(self, servers) -> dict:
        """Base phases round-robin over ``servers``, one closed-loop
        capacity phase on each, then the ladder on the last one; /stats
        deltas cover the base phases."""
        from loadgen import get_json

        before = [get_json("127.0.0.1", s.port, "/stats")[1]
                  for s in servers]
        base = [self.send(servers[k % len(servers)],
                          self.schedule(0, k, BASE_RATE))
                for k in range(self.n_phases)]
        after = [get_json("127.0.0.1", s.port, "/stats")[1] for s in servers]
        capacity = [self.send(server, self.schedule(2, k, math.inf))
                    for k, server in enumerate(servers)]
        limits = {cls: LIMIT_FACTOR * class_latency_ms(base, cls)[1] / 1e3
                  for cls in ("small", "large")}
        ladder = [self._rung(BASE_RATE, base, limits)]
        for k in range(LADDER_RUNGS):
            if not ladder[-1]["passed"]:
                break
            rate = BASE_RATE * LADDER_STEP ** (k + 1)
            rung = self.send(servers[-1], self.schedule(1, k, rate))
            ladder.append(self._rung(rate, [rung], limits))
        stats = {key: sum(a[key] - b[key] for a, b in zip(after, before))
                 for key in ("requests", "batches", "cache_hits",
                             "cache_misses")}
        return {"base": base, "ladder": ladder, "stats": stats,
                "capacity": capacity,
                "limits_ms": {c: 1e3 * v for c, v in limits.items()}}

    @staticmethod
    def _rung(rate: float, results, limits) -> dict:
        """A rung over ``results`` (its phases), class latencies pooled;
        every phase's backlog must stay steady."""
        by_class = {}
        for o in (o for r in results for o in r.outcomes):
            by_class.setdefault(o.request.cls, []).append(o.latency)
        passed = all(
            rung_passes(by_class, [o.lag for o in r.outcomes], limits,
                        BACKLOG_SLACK_S) for r in results)
        return {"rate": rate,
                "throughput": median([r.throughput() for r in results]),
                "small_p50_ms": class_latency_ms(results, "small")[0],
                "large_p50_ms": class_latency_ms(results, "large")[0],
                "passed": passed}

    def run(self, build_s: float) -> Outcome:
        launch_s, _ = _repeat(lambda: self.launch(False), SERVERS)
        plain = self.measure(self.started)
        self.stop_all()
        layers = {}
        if self.ctx.trace:
            traced_server = self.launch(True)
            traced = self.measure([traced_server])
            layers = _serving_layers(plain, traced, traced_server.stop())
        best = ladder_max_rate(plain["ladder"])
        max_rate = best["throughput"] if best else 0.0
        # A server process keeps, for its lifetime, one of two speeds:
        # with two OpenBLAS threads in it, large requests' scoring either
        # runs freely or contends for the cores (see README.md).  The
        # best server is the steady figure; the median shows contention.
        phases = [r.throughput() for r in plain["capacity"]]
        capacity = max(phases)
        failed = sum(1 for o in self.outcomes if not o.ok)
        classes = {}
        for o in self.outcomes:
            c = classes.setdefault(o.request.cls,
                                   {"sent": 0, "succeeded": 0, "failed": 0})
            c["sent"] += 1
            c["succeeded" if o.ok else "failed"] += 1
        for cls, counts in classes.items():
            for key, value in counts.items():
                layers[f"loadgen.{cls}.{key}"] = value
        if self.ctx.trace:
            layers["serving.inexact_rows"] = self.inexact

        small_p50, small_tail = class_latency_ms(plain["base"], "small")
        large_p50, large_tail = class_latency_ms(plain["base"], "large")
        report = {
            "small_p50_ms": (small_p50, "ms", "lower"),
            "small_tail_ms": (small_tail, "ms", "lower"),
            "large_p50_ms": (large_p50, "ms", "lower"),
            "large_tail_ms": (large_tail, "ms", "lower"),
            "max_rate_rps": (max_rate, "1/s", "higher"),
            "capacity_rps": (capacity, "1/s", "higher"),
            "capacity_p50_rps": (median(phases), "1/s", "higher"),
            "inexact_rows": (self.inexact, "count", None),
        }
        errors = [o.error for o in self.outcomes if o.error]
        return Outcome(
            setup_s=self.ctx.import_s + build_s + launch_s,
            rate_per_s=capacity,
            attempted=len(self.outcomes), failed=failed,
            checks=[("serve-mixed responses equal direct score_samples",
                     self.mismatched == 0 and failed == 0,
                     f"{self.mismatched} mismatched, {failed} failed of "
                     f"{len(self.outcomes)}"
                     + (f"; first error: {errors[0][:200]}" if errors
                        else ""))],
            report=report, layers=layers,
            info={"connections": self.connections,
                  "cache_size": len(self.models),
                  "models": list(self.models),
                  "base_phases": self.n_phases,
                  "limits_ms": plain["limits_ms"],
                  "capacity_rps": phases,
                  "ladder": plain["ladder"], "classes": classes,
                  "tail_percentile": TAIL_Q})


def _serving_layers(plain, traced, spans) -> dict:
    """Per-layer serving metrics from the traced server's spans; class
    latencies from the untraced measurement."""
    base_ids = {o.request.request_id: o for r in traced["base"]
                for o in r.outcomes if o.ok}
    closed_ids = {o.request.request_id: o for r in traced["capacity"]
                  for o in r.outcomes if o.ok}

    def per_request(name, ids):
        out = {}
        for s in spans:
            if s[0] == name and s[4] in ids and s[2] is not None:
                out[s[4]] = out.get(s[4], 0.0) + s[2] - s[1]
        return out

    def in_base(tag):
        if isinstance(tag, (list, tuple)):
            return any(t in base_ids for t in tag)
        return tag in base_ids

    # Transport in the closed loop, where each connection sends its next
    # request as soon as the last is answered: client round trip minus
    # the server's handler time for the same request.
    handler = per_request("serving.handler", closed_ids)
    transport = [(o.done - o.sent) - handler[rid]
                 for rid, o in closed_ids.items() if rid in handler]
    large = {rid for rid, o in base_ids.items() if o.request.cls == "large"}
    decode = per_request("serving.json.decode", large)
    encode = per_request("serving.json.encode", large)
    wait = per_request("serving.queue_wait", base_ids)
    stats = traced["stats"]
    n_phases = len(traced["base"])
    lookups = stats["cache_hits"] + stats["cache_misses"]

    small = class_latency_ms(plain["base"], "small")
    large = class_latency_ms(plain["base"], "large")

    def median_or_zero(values):
        return median(values) if values else 0.0

    return {
        "serving.transport_s": median_or_zero(transport),
        "serving.json.decode_s": median_or_zero(list(decode.values())),
        "serving.json.encode_s": median_or_zero(list(encode.values())),
        "serving.handler.busy_s": sp.busy(spans, "serving.handler",
                                          in_base) / n_phases,
        "serving.service.score.busy_s": sp.busy(
            spans, "serving.service.score", in_base) / n_phases,
        "serving.queue_wait_s": median_or_zero(list(wait.values())),
        "serving.model.score.busy_s": sp.busy(
            spans, "serving.model.score", in_base) / n_phases,
        "serving.batch.mean_requests": stats["requests"] / stats["batches"]
        if stats["batches"] else 0.0,
        "serving.cache.hit_share": stats["cache_hits"] / lookups
        if lookups else 0.0,
        "serving.artifacts.load_s": sp.busy(spans,
                                            "serving.artifacts.load"),
        "loadgen.lag_p99_ms": 1e3 * percentile(
            [o.lag for r in traced["base"] for o in r.outcomes], 0.99),
        "serve.small_p50_ms": small[0],
        "serve.small_tail_ms": small[1],
        "serve.large_p50_ms": large[0],
        "serve.large_tail_ms": large[1],
        "trace.overhead_pct": 100.0 * (
            class_latency_ms(traced["base"])[0]
            / class_latency_ms(plain["base"])[0] - 1.0),
    }


WORKLOADS = {
    "boost-fit": run_boost_fit,
    "detector-bank": run_detector_bank,
    "serve-mixed": run_serve_mixed,
}


def make_workdir(root: Path) -> Path:
    base = root / ".perfbench-work"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=base))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
