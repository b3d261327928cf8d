"""Start ``repro.serving.serve`` in this process, optionally traced.

The benchmark runs this file as the server process.  With ``--trace 1``
the serving, training and detector layers are wrapped before the server
starts; spans stay in memory and are written to ``--spans-out`` as JSON
when the server stops (SIGTERM or SIGINT).  Prints ``READY <port>`` once
the socket is bound.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import signal
import sys
from pathlib import Path


def _die_with_parent() -> None:
    """Ask Linux to send SIGTERM here if the benchmark process dies."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
        libc.prctl.restype = ctypes.c_int
        libc.prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--cache-size", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args(argv)
    _die_with_parent()
    sys.path.insert(0, args.src)
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import spans as sp
    from repro.serving import serve

    tracer = sp.Tracer(enabled=bool(args.trace))
    if args.trace:
        sp.install_serving(tracer)
        sp.install_training(tracer)
        sp.install_detectors(tracer)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    # SIGINT may arrive ignored (a background job): handle both.
    signal.signal(signal.SIGTERM, interrupt)
    signal.signal(signal.SIGINT, interrupt)

    def ready(server):
        print(f"READY {server.server_address[1]}", flush=True)

    serve(args.store, port=0, ready=ready, cache_size=args.cache_size)
    if args.trace:
        tracer.enabled = False
        Path(args.spans_out).write_text(json.dumps(tracer.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
