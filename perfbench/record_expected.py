#!/usr/bin/env python3
"""Record the reference digests the benchmark's correctness gate checks.

    python3 perfbench/record_expected.py

Writes ``perfbench/expected.json``: the canonical booster fit, the
Table IV grid's results table from a serial run, and each detector's held-out
scores on the detector-bank inputs.  Re-record only when a change is
meant to alter scores, and say so in the change's description.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    from repro.detectors.registry import ALL_DETECTOR_NAMES
    from repro.experiments.harness import ExperimentRunner

    import workloads as w
    from stats import table_digest

    results = ExperimentRunner(n_jobs=1, backend="serial").run_grid(
        detectors=w.SWEEP_DETECTORS,
        datasets=[w.load_dataset_for_sweep(n) for n in w.SWEEP_DATASETS],
        seeds=w.SWEEP_SEEDS, n_iterations=w.SWEEP_PROTOCOL["n_iterations"])
    X_fit, X_held = w.bank_inputs()
    digests, _ = w.bank_pass(ALL_DETECTOR_NAMES, X_fit, X_held)
    expected = {
        "boost_fit_canonical": w.canonical_booster_digest(),
        "sweep_grid_serial": table_digest(w.sweep_rows(results)),
        "detector_bank": digests,
    }
    path = HERE / "expected.json"
    path.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
