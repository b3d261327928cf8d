#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload boost-fit --seed 1 --seconds 20 \\
        --trace 0

Run from the repository root; it imports the program from ``src/``.
Human-readable lines (provenance, checks, workload-specific metrics)
come first; the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from a traced run (see ``perfbench/README.md``).  The
exit status is non-zero when any correctness check fails.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The program's packages the workloads call into.
PROGRAM_IMPORTS = ("numpy", "repro", "repro.core", "repro.data.registry",
                   "repro.detectors.registry", "repro.experiments.harness",
                   "repro.serving")


def import_seconds(repeats: int) -> float:
    """Median time to launch a fresh interpreter and import the program.

    This process has imported it already, and a second import here would
    cost nothing, so fresh interpreters measure it, several times.
    """
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            f"import {', '.join(PROGRAM_IMPORTS)}")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from "
              "a repository checkout", file=sys.stderr)
        return 2
    # The metric catalogue: names, units and which ones each mode prints.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # A terminated run still stops the processes it started; forked
    # grid workers inherit this handler and just die.
    main_pid = os.getpid()

    def on_term(signum, frame):
        if os.getpid() != main_pid:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
        sys.exit(143)

    signal.signal(signal.SIGTERM, on_term)

    import spans as sp
    import workloads
    from env import RssSampler, environment

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # Before the sampler starts, so its interpreters do not count as ours.
    import_s = import_seconds(workloads.SETUP_REPEATS)
    rss = RssSampler().start()
    workdir = workloads.make_workdir(ROOT)
    ctx = workloads.Context(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        import_s=import_s, root=ROOT, workdir=workdir,
        tracer=sp.Tracer(enabled=False))
    try:
        out = workloads.WORKLOADS[args.workload](ctx)
    finally:
        workloads.remove_workdir(workdir)
    peak_mb = rss.peak_mb()
    rss.stop()

    env = environment(ROOT)
    print(f"# workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("# env " + json.dumps(env, sort_keys=True, default=str))
    print("# info " + json.dumps(out.info, sort_keys=True, default=str))
    for name, ok, detail in out.checks:
        print(f"# check {'PASS' if ok else 'FAIL'}  {name}: {detail}")
    for name, (value, unit, better) in out.report.items():
        direction = f" ({better} is better)" if better else ""
        print(f"{name} = {value:.6g} {unit}{direction}")
    print(f"failed_share = {out.failed / out.attempted:.6g} "
          f"({out.failed} of {out.attempted}, lower is better)")

    if args.trace:
        metrics = {m["name"]: {"value": out.layers.get(m["name"], 0.0),
                               "unit": m["unit"]} for m in spec["per_layer"]}
        missing = sorted(set(out.layers) - set(metrics))
        if missing:
            raise SystemExit(f"unlisted per-layer metrics: {missing}")
    else:
        values = {"setup_s": out.setup_s, "peak_rss_mb": peak_mb,
                  "rate_per_s": out.rate_per_s}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    correct = all(ok for _, ok, _ in out.checks)
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
