"""repro — a full reproduction of UADB (Unsupervised Anomaly Detection
Booster, ICDE 2023) with every substrate implemented from scratch.

Public API highlights
---------------------
* :class:`repro.core.UADBooster` — the booster (Algorithm 1).
* :mod:`repro.detectors` — the 14 paper source models + 6 extra baselines.
* :mod:`repro.api` — the estimator protocol (``get_params`` /
  ``set_params`` / ``clone``), JSON component specs
  (:func:`~repro.api.to_spec` / :func:`~repro.api.build_spec`), and the
  composable :class:`~repro.api.Pipeline`.
* :mod:`repro.data` — synthetic anomaly-type generators and the 84-dataset
  benchmark registry.
* :mod:`repro.metrics` — AUCROC / AP / Wilcoxon.
* :mod:`repro.experiments` — harness + per-table/figure reproduction.
* :mod:`repro.serving` — versioned model artifacts, micro-batched scoring
  service, HTTP server.
* :mod:`repro.kernels` — the shared neighbor-kernel backend: memoized
  k-NN graphs (:func:`~repro.kernels.cache_stats`), threaded distance
  blocks.
* :mod:`repro.runtime` — the unified execution substrate:
  :class:`~repro.runtime.RunContext` (scoped seed/thread/job/cache/dtype
  configuration, resolution order explicit arg > context > env var >
  default) and the backend-pluggable deterministic
  :class:`~repro.runtime.Executor` every layer fans out through.
* :mod:`repro.resilience` — the failure-handling layer:
  :class:`~repro.resilience.Deadline` /
  :class:`~repro.resilience.RetryPolicy` (seeded, bit-reproducible
  backoff) / :class:`~repro.resilience.CircuitBreaker`, plus
  deterministic fault injection for chaos testing
  (``RunContext(faults=...)`` / ``REPRO_FAULTS``).

Quickstart
----------
>>> from repro.data import make_anomaly_dataset
>>> from repro.detectors import IForest
>>> from repro.core import UADBooster
>>> data = make_anomaly_dataset("local", random_state=0)
>>> source = IForest(random_state=0).fit(data.X)
>>> booster = UADBooster(random_state=0).fit(data.X, source)
>>> booster.scores_  # boosted anomaly scores in [0, 1]
"""

from repro.api import Pipeline, build_spec, clone, make_component, to_spec
from repro.core import UADBooster
from repro.data import Dataset, load_dataset, make_anomaly_dataset
from repro.detectors import DETECTOR_NAMES, make_detector
from repro.kernels import cache_stats
from repro.metrics import auc_roc, average_precision
from repro.runtime import Executor, RunContext

__version__ = "1.7.0"

__all__ = [
    "UADBooster",
    "Pipeline",
    "RunContext",
    "Executor",
    "Dataset",
    "load_dataset",
    "make_anomaly_dataset",
    "DETECTOR_NAMES",
    "make_detector",
    "make_component",
    "build_spec",
    "to_spec",
    "clone",
    "auc_roc",
    "average_precision",
    "cache_stats",
    "__version__",
]
