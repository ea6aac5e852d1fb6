"""The load generator: senders, clients, sliced phases, a speed probe.

Clients are closed loop (the next request waits for the reply) or open
loop (each request has a due time on a seeded schedule; latency counts
from it).  Times are **speed-normalised**: the box this runs on is a VM
whose effective CPU speed shifts by up to 1.8× for seconds at a time
(co-tenants; nothing in the guest), which no run of affordable length
averages out.  So a phase runs in ``SLICE_S`` slices with a fixed
pure-Python reference loop (:func:`speed_probe`) timed between slices
(beside the clients, on an open loop: its schedule does not stop), and
every duration is later multiplied by ``PROBE_NOMINAL_S / probe time
around it`` — what it would have been with the machine at its nominal
speed.  On a 50 s ycsb_c run this cut the coefficient of variation of 5 s
block means from 8.3 % to 2.9 %.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from array import array
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.service.api import (
    CollectRequest,
    EraseRequest,
    ReadRequest,
    UpdateRequest,
)
from repro.service.server import ComplianceService

from spine import trace
from spine.check import COLLECT, ERASE, READ, UPDATE, Reply, judge, key_name
from spine.workloads import Op

MAX_RETRIES = 50

#: Clients run this long between two speed probes (a closed loop's slice
#: also ends no earlier than its in-flight requests do).
SLICE_S = 0.25
PROBE_ITERATIONS = 250_000
#: Thread CPU seconds the probe takes on this box when it is quiet — only
#: sets the scale of the normalised times.
PROBE_NOMINAL_S = 0.016


def speed_probe() -> float:
    """Thread CPU seconds a fixed interpreter-bound loop takes right now.
    CPU time, not wall: the service's other threads may hold the GIL."""
    begin = time.thread_time()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
    return time.thread_time() - begin


def speed_factor(before: float, after: float) -> float:
    """What to multiply a duration by, given the probes around it."""
    return PROBE_NOMINAL_S / ((before + after) / 2)


KINDS = (READ, UPDATE, COLLECT, ERASE)
KIND_CODE = {kind: code for code, kind in enumerate(KINDS)}


# ------------------------------------------------------------------ senders
Sender = Callable[[str, str, Any], Reply]


def inproc_sender(service: ComplianceService) -> Sender:
    def send(kind: str, key: str, value: Any) -> Reply:
        if kind == READ:
            request: Any = ReadRequest(key)
        elif kind == UPDATE:
            request = UpdateRequest(key, value)
        elif kind == COLLECT:
            request = CollectRequest(key, value)
        else:
            request = EraseRequest(key)
        # Looked up per call: a traced run swaps the method underneath.
        response = service.call(request)
        return response.status, response.value, response.verified_clean

    return send


def http_sender(address: Tuple[str, int]) -> Sender:
    """One persistent ``http.client`` connection (the server speaks
    HTTP/1.0 today, so it reconnects for every request)."""
    conn = http.client.HTTPConnection(*address, timeout=30)
    headers = {"Content-Type": "application/json"}

    def send(kind: str, key: str, value: Any) -> Reply:
        body = {"key": key} if value is None else {"key": key, "value": value}
        conn.request("POST", "/" + kind, json.dumps(body), headers)
        payload = json.loads(conn.getresponse().read())
        return payload["status"], payload.get("value"), payload.get("verified_clean")

    return send


# ------------------------------------------------------------------ clients
class Tally:
    """What one client sent, column-wise (a quarter-million tuples would
    be a tenth of the process's memory and most of its GC work).  Request
    ``i`` has id ``rid_base + i``."""

    def __init__(self, rid_base: int) -> None:
        self.rid_base = rid_base
        self.kind = array("b")
        #: When the request was due (open loop) or sent (closed loop);
        #: latency counts from here.
        self.start = array("d")
        self.sent = array("d")
        self.done = array("d")
        #: The machine's speed around the request's slice.
        self.speed = array("d")
        #: Open loop: how late the generator woke for a request it slept for.
        self.lags = array("d")
        self.failures: List[str] = []
        self.retries = 0
        self.rejects = 0

    def close_slice(self, speed: float) -> None:
        self.speed.extend(array("d", [speed]) * (len(self.done) - len(self.speed)))

    def requests(self, group: str, since: float = 0.0) -> List[trace.Request]:
        return [
            (group.format(KINDS[kind]), self.rid_base + i, sent, self.done[i], self.speed[i])
            for i, (kind, start, sent) in enumerate(zip(self.kind, self.start, self.sent))
            if start >= since
        ]


def _issue(send: Sender, op: Op, tally: Tally) -> None:
    """Send one op, backing off on 429 like ``repro.service.loadgen``;
    anything but the right answer is recorded as a failure."""
    kind, index, value = op
    key = key_name(index)
    body = None if kind == READ else value
    delay = 0.001
    try:
        reply = send(kind, key, body)
        for _ in range(MAX_RETRIES):
            if reply[0] != 429:
                break
            time.sleep(delay)
            delay = min(delay * 2, 0.05)
            tally.retries += 1
            reply = send(kind, key, body)
    except Exception as exc:  # a timeout or a dropped connection is a failed op
        tally.failures.append(f"{kind} {key}: {exc!r}")
        return
    if reply[0] == 429:
        tally.rejects += 1
    if not judge(kind, value, reply):
        tally.failures.append(f"{kind} {key}: {reply!r}")


class Client:
    """One load-generator thread's state across the slices of a phase."""

    def __init__(
        self,
        send: Sender,
        stream: Iterator[Op],
        tally: Tally,
        tracer: Optional[trace.Tracer],
        due_times: Optional[Iterator[float]] = None,
        pace: float = 0.0,
    ) -> None:
        self.send = send
        self.stream = stream
        self.tally = tally
        self.tracer = tracer
        #: Open loop: offsets from the start of the phase.
        self.due_times = due_times
        #: Closed loop: the least time from one send to the next (the
        #: client idles when the reply comes sooner).
        self.pace = pace
        self._not_before = 0.0
        self.exhausted = False

    def run(self, begin: float, until: float) -> None:
        """On this client's thread: one slice of a closed loop, or the
        whole phase of an open one.  A generator bug must not pass for a
        quiet run: it is recorded as a failure and ends the phase."""
        try:
            self._run(begin, until)
        except Exception as exc:
            self.tally.failures.append(f"client crashed: {exc!r}")
            self.exhausted = True

    def _run(self, begin: float, until: float) -> None:
        """Send ops until ``until``: back to back (closed loop), or each at
        its due time counted from ``begin`` (open loop: a late reply delays
        the next send but not its due time)."""
        perf = time.perf_counter
        tally = self.tally
        while True:
            if self.due_times is None:
                start = perf()
                if start < min(self._not_before, until):
                    time.sleep(min(self._not_before, until) - start)
                    start = perf()
                if start >= until:
                    break
                self._not_before = start + self.pace
            else:
                start = begin + next(self.due_times)
                if start >= until:
                    break
                wait = start - perf()
                if wait > 0:
                    time.sleep(wait)
                    tally.lags.append(perf() - start)
            op = next(self.stream, None)
            if op is None:
                self.exhausted = True
                break
            if self.tracer is not None:
                self.tracer.set_rid(tally.rid_base + len(tally.done))
            sent = perf()
            _issue(self.send, op, tally)
            tally.kind.append(KIND_CODE[op[0]])
            tally.start.append(start)
            tally.sent.append(sent)
            tally.done.append(perf())


Slice = Tuple[float, float, float]  # (begin, end, machine speed)


def _start(clients: Sequence[Client], begin: float, until: float) -> List[threading.Thread]:
    threads = [
        threading.Thread(target=client.run, args=(begin, until), name=f"spine-client-{c}")
        for c, client in enumerate(clients)
    ]
    for thread in threads:
        thread.start()
    return threads


def run_phase(clients: Sequence[Client], seconds: float) -> List[Slice]:
    """Run the clients for ``seconds``, a speed probe every ``SLICE_S``.

    Closed-loop clients stop for the probe — a slice ends when their
    in-flight requests do, and no schedule is waiting.  Open-loop clients
    run the phase through on one wall-clock schedule, so that a stall makes
    every request due behind it late wherever it falls; the probe runs
    beside them and the slices only say how fast the machine was."""
    open_loop = any(client.due_times is not None for client in clients)
    slices: List[Slice] = []
    probe = speed_probe()
    begin = time.perf_counter()
    deadline = begin + seconds

    def close_slice() -> None:
        nonlocal probe, begin
        end = time.perf_counter()
        after = speed_probe()
        speed = speed_factor(probe, after)
        probe = after
        for client in clients:
            client.tally.close_slice(speed)
        slices.append((begin, end, speed))
        # An open loop went on during the probe; a closed one did not.
        begin = end if open_loop else time.perf_counter()

    threads = _start(clients, begin, deadline) if open_loop else []
    while begin < deadline and not all(client.exhausted for client in clients):
        until = min(begin + SLICE_S, deadline)
        if open_loop:
            time.sleep(max(0.0, until - time.perf_counter()))
        else:
            for thread in _start(clients, begin, until):
                thread.join()
        close_slice()
    if open_loop:
        for thread in threads:
            thread.join()
        close_slice()  # the requests that ended after the last probe
    return slices
