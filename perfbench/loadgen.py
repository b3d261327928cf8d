"""Open-loop HTTP load generator.

Requests carry a due time fixed by a seeded schedule.  A fixed pool of
connections (at most ``nproc``), each on its own thread in this one
process, shares the schedule round-robin: request ``i`` goes out on
connection ``i % connections`` at its due time or, when that connection
is still busy, as soon as it frees up.  Latency is measured from the due
time, so a stall also charges the requests that queued behind it; the
send lag (send time minus due time) shows how far behind schedule the
generator ran.

Round-robin keeps each connection's own request gaps at least
``connections`` schedule gaps wide, so whether a connection's requests
follow each other closely (which changes TCP's acknowledgement timing)
is fixed by the schedule and the rate, not by which thread was free.

Connections use ``http.client`` defaults, keep-alive, and no extra
socket options.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass


@dataclass
class Request:
    due: float            # seconds after the phase starts
    cls: str              # request class, e.g. "small" / "large"
    model_id: str
    body: bytes           # pre-encoded JSON, so encoding is not timed
    request_id: str
    rows: object          # the rows in ``body``, for the caller's checks


@dataclass
class Outcome:
    request: Request
    sent: float = 0.0     # seconds after the phase starts
    done: float = 0.0
    status: int = 0
    scores: list | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.scores is not None

    @property
    def latency(self) -> float | None:
        """From due time to the response's last byte; None on failure."""
        return self.done - self.request.due if self.ok else None

    @property
    def lag(self) -> float:
        return self.sent - self.request.due


@dataclass
class PhaseResult:
    outcomes: list
    wall: float

    def latencies(self, cls: str | None = None) -> list:
        return [o.latency for o in self.outcomes
                if cls is None or o.request.cls == cls]

    def throughput(self) -> float:
        """Completed requests per second over the phase."""
        ok = sum(1 for o in self.outcomes if o.ok)
        return ok / self.wall if self.wall > 0 else 0.0


def run_phase(host: str, port: int, schedule: list, connections: int,
              timeout: float = 60.0) -> PhaseResult:
    """Send ``schedule`` (sorted by due time) open-loop; wait for all."""
    outcomes = [Outcome(r) for r in schedule]
    connections = max(1, connections)
    start = time.perf_counter() + 0.05

    def worker(lane: int) -> None:
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            for outcome in outcomes[lane::connections]:
                req = outcome.request
                delay = start + req.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                outcome.sent = time.perf_counter() - start
                try:
                    conn.request("POST", "/score", body=req.body, headers={
                        "Content-Type": "application/json",
                        "X-Request-ID": req.request_id})
                    resp = conn.getresponse()
                    payload = resp.read()
                    outcome.done = time.perf_counter() - start
                    outcome.status = resp.status
                    if resp.status == 200:
                        outcome.scores = json.loads(payload)["scores"]
                    else:
                        outcome.error = payload[:200].decode(errors="replace")
                except (OSError, http.client.HTTPException,
                        ValueError, KeyError) as exc:
                    outcome.done = time.perf_counter() - start
                    outcome.error = f"{type(exc).__name__}: {exc}"
                    conn.close()
                    conn = http.client.HTTPConnection(host, port,
                                                      timeout=timeout)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, args=(lane,),
                                name=f"loadgen-{lane}")
               for lane in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    first_due = schedule[0].due if schedule else 0.0
    last_done = max((o.done for o in outcomes), default=first_due)
    return PhaseResult(outcomes, wall=last_done - first_due)


def get_json(host: str, port: int, path: str, timeout: float = 30.0):
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()
