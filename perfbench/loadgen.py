"""Open-loop HTTP load generator for the ``serve-ingest`` workload.

One process, one asyncio loop.  Requests are due on a fixed schedule (rate
``r``: request ``i`` of a step is due at ``start + i / r``) whether or not
earlier ones have completed, and each request's latency is timed from its
due time, so a stall in the daemon shows up in every request that was due
during it.  At most ``max_inflight`` connections are open at once; a
request due while all are busy waits, and that wait is part of its latency.

Requests carry ``?seq=N`` and the daemon refuses one that arrives ahead of
its predecessor, so a request's connection is opened and its bytes written
only after its predecessor's were: sends are in sequence order, responses
may overlap.

The generator's own lateness — how long after its due time the scheduler
woke up to issue a request — is recorded per request.  A step whose
generator fell behind (:data:`MAX_LAG_P99_S`) is flagged, so its latencies
are not mistaken for the daemon's.
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass, field

#: A step whose generator lateness has a p99 above this (two fifths of the
#: 50 ms latency limit) is flagged.
MAX_LAG_P99_S = 0.020


@dataclass
class Step:
    """Outcome of one rate step of the ladder."""

    rate: float
    latencies: list = field(default_factory=list)  # seconds from due time, per request
    statuses: list = field(default_factory=list)
    lags: list = field(default_factory=list)  # generator lateness, seconds
    started: float = 0.0
    finished: float = 0.0
    inflight_max: int = 0
    server_cpu_s: float = 0.0  # on-CPU time of the daemon process during the step

    @property
    def generator_behind(self) -> bool:
        ordered = sorted(self.lags)
        return bool(ordered) and ordered[int(0.99 * (len(ordered) - 1))] > MAX_LAG_P99_S


def _request_bytes(port: int, path: str, body: bytes) -> bytes:
    head = (
        f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
        f"Content-Type: application/x-ndjson\r\nContent-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + body


def _status(response: bytes) -> int:
    try:
        return int(response.split(b" ", 2)[1])
    except (IndexError, ValueError):
        return 0  # no parsable status line: the connection was dropped


async def _run_step(port: int, job: str, bodies, first_seq: int, rate: float, n_requests: int,
                    max_inflight: int, server_cpu) -> Step:
    loop = asyncio.get_running_loop()
    step = Step(rate=rate)
    slots = asyncio.Semaphore(max_inflight)
    inflight = 0
    tasks = []

    async def issue(index: int, due: float, my_turn: asyncio.Event, next_turn: asyncio.Event):
        nonlocal inflight
        seq = first_seq + index
        payload = _request_bytes(port, f"/ingest/{job}?seq={seq}", bodies[(seq - 1) % len(bodies)])
        writer = None
        # slot and connection are taken in sequence order: this request's
        # bytes are written only after its predecessor's
        await my_turn.wait()
        try:
            await slots.acquire()
            inflight += 1
            step.inflight_max = max(step.inflight_max, inflight)
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(payload)
                await writer.drain()
            except OSError:
                writer = None
        finally:
            next_turn.set()
        status = 0
        try:
            if writer is not None:
                status = _status(await reader.read())
        except OSError:
            status = 0
        finally:
            if writer is not None:
                writer.close()
                try:
                    await writer.wait_closed()
                except OSError:
                    pass
            inflight -= 1
            slots.release()
        step.latencies.append((index, loop.time() - due))
        step.statuses.append((index, status))

    cpu_before = server_cpu()
    start = loop.time() + 0.05
    step.started = start
    previous_turn = asyncio.Event()
    previous_turn.set()
    for index in range(n_requests):
        due = start + index / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        step.lags.append(max(0.0, loop.time() - due))
        next_turn = asyncio.Event()
        tasks.append(asyncio.create_task(issue(index, due, previous_turn, next_turn)))
        previous_turn = next_turn
    await asyncio.gather(*tasks)
    step.finished = loop.time()
    step.server_cpu_s = server_cpu() - cpu_before
    step.latencies = [value for _, value in sorted(step.latencies)]
    step.statuses = [value for _, value in sorted(step.statuses)]
    return step


def run_ladder(port: int, job: str, bodies, ladder, max_inflight: int, server_cpu, first_seq: int = 1):
    """Drive every ``(rate, seconds)`` step of *ladder* in turn.

    Returns ``(steps, discarded)``: one kept :class:`Step` per rate, and the
    runs discarded because the generator fell behind.  Such a step is run
    once more, and the second run is kept whatever its lateness (check
    :attr:`Step.generator_behind`).  Sequence numbers continue across steps (and
    re-runs), starting at *first_seq*; request ``seq`` carries
    ``bodies[(seq - 1) % len(bodies)]``.  ``server_cpu()`` returns the
    daemon's on-CPU seconds so far; each step records the difference.
    """

    async def main():
        steps, discarded = [], []
        seq = first_seq
        for rate, seconds in ladder:
            n_requests = max(1, int(round(rate * seconds)))
            for attempt in range(2):
                step = await _run_step(port, job, bodies, seq, rate, n_requests, max_inflight,
                                       server_cpu)
                seq += n_requests
                await asyncio.sleep(0.2)  # let the daemon settle between steps
                if not step.generator_behind or attempt == 1:
                    break
                discarded.append(step)
            steps.append(step)
        return steps, discarded

    # a full collection in this process would stall the schedule for tens of
    # milliseconds; the ladder allocates little, so collect only afterwards
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        return asyncio.run(main())
    finally:
        gc.enable()
        gc.unfreeze()


def wait_ready(port: int, timeout: float, alive) -> bool:
    """Poll ``GET /status`` until the daemon answers (or *alive()* turns false)."""
    import http.client

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and alive():
        try:
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=1.0)
            connection.request("GET", "/status")
            if connection.getresponse().status == 200:
                return True
        except OSError:
            time.sleep(0.02)
        finally:
            connection.close()
    return False
