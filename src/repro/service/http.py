"""Stdlib HTTP transport for the compliance service.

A thin JSON mapping over :class:`~repro.service.server.ComplianceService`
on a ``socketserver.ThreadingTCPServer``: a thread per connection, at most
:data:`MAX_CONNECTIONS` (the accepting thread answers one more 503).

Transport: HTTP/1.1 persistent connections, framed here.  Each connection
reads into one ``bytearray``: a request is a head (at most
:data:`MAX_HEAD_BYTES`, else 431) and exactly ``Content-Length`` bytes,
zeroed once parsed, so no buffer holds an erased value past its request.
A reply is one ``sendall``, its ``Date`` cached for a second.  Every reply
leaves the stream at a request boundary or closes it: the body is read
before any reply (a 404 included); a ``Content-Length`` that is not one
ASCII ``1*DIGIT`` (repeats must agree), a chunked body, a bad request line
(400), a length above :data:`MAX_BODY_BYTES` (413), a method but GET /
POST (501) and a 503 (service closed) close.  A connection silent for
``_Handler.timeout`` seconds, idle or mid-body, is dropped; HTTP/1.0 and
``Connection: close`` get one reply, then EOF.  Routes:

===========  =======  ==================================================
``POST``     path     body
===========  =======  ==================================================
collect      ``/collect``  ``{"key": k, "value": v, "subject": s}``
read         ``/read``     ``{"key": k, "consistency": "one"}``
update       ``/update``   ``{"key": k, "value": v}``
erase        ``/erase``    ``{"key": k}``
sar          ``/sar``      ``{"subject": s}``
===========  =======  ==================================================

``key`` and ``subject`` are JSON strings and ``consistency`` is one of
:data:`~repro.distributed.store.CONSISTENCY_LEVELS`; any other body is a 400.

``GET /stats`` returns the service counters; ``GET /healthz`` returns 200
while the service accepts traffic.  Response HTTP status codes are the
service's :class:`~repro.service.api.Status` values verbatim — a full
admission queue is a literal ``429``.
"""

from __future__ import annotations

import contextlib
import json
import socket
import socketserver
import threading
import time
from dataclasses import asdict
from functools import lru_cache
from http import HTTPStatus
from typing import Any, Dict, List, Optional, Tuple

from repro.distributed.store import CONSISTENCY_LEVELS
from repro.service.api import (
    CollectRequest,
    EraseRequest,
    ReadRequest,
    Request,
    Response,
    SarRequest,
    Status,
    UpdateRequest,
)
from repro.service.server import ComplianceService


def _string(value: Any, field: str) -> str:
    if not isinstance(value, str):  # an int key beside str keys breaks every sort
        raise TypeError(f"{field} must be a JSON string, not {type(value).__name__}")
    return value


def _consistency(body: Dict[str, Any]) -> str:
    value = body.get("consistency", "one")
    if value not in CONSISTENCY_LEVELS:
        raise ValueError(f"consistency must be one of {CONSISTENCY_LEVELS}")
    return value


_ROUTES = {
    "/collect": lambda body: CollectRequest(
        _string(body["key"], "key"), body.get("value"),
        _string(body.get("subject", "anonymous"), "subject"),
    ),
    "/read": lambda body: ReadRequest(_string(body["key"], "key"), _consistency(body)),
    "/update": lambda body: UpdateRequest(_string(body["key"], "key"), body.get("value")),
    "/erase": lambda body: EraseRequest(_string(body["key"], "key")),
    "/sar": lambda body: SarRequest(_string(body["subject"], "subject")),
}

#: Largest request body read; a longer ``Content-Length`` is a 413.
MAX_BODY_BYTES = 1 << 20
#: Largest request head, and each connection's buffer; a longer head is a 431.
MAX_HEAD_BYTES = 1 << 14
#: Connections served at once; one more is answered 503 and closed.
MAX_CONNECTIONS = 128


def _dumps(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload).encode()


def _error(code: int, error: str) -> bytes:
    return _dumps({"status": code, "error": error})


@lru_cache(maxsize=1)
def _http_date(second: int) -> str:  # RFC 9110 §6.6.1: once a second, not per reply
    return time.strftime("%a, %d %b %Y %H:%M:%S GMT", time.gmtime(second))


def _frame(code: int, body: bytes, close: bool) -> bytes:
    """One reply's bytes; ``close`` adds ``Connection: close``."""
    head = (
        f"HTTP/1.1 {code} {HTTPStatus(code).phrase}\r\nDate: {_http_date(int(time.time()))}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
    )
    return (head + ("Connection: close\r\n\r\n" if close else "\r\n")).encode() + body


def _content_length(values: List[bytes]) -> int:
    """``-1`` unless every copy is one ASCII ``1*DIGIT`` (RFC 9112 §6.3)."""
    if len(set(values)) != 1 or not values[0].isdigit():
        return -1
    return int(values[0]) if len(values[0]) <= 16 else MAX_BODY_BYTES + 1  # int() caps digits


def _encode(response: Response) -> bytes:
    payload: Dict[str, Any] = {"status": int(response.status)}
    if response.value is not None:
        payload["value"] = response.value
    if response.error is not None:
        payload["error"] = response.error
    if response.verified_clean is not None:
        payload["verified_clean"] = response.verified_clean
    try:
        return _dumps(payload)
    except TypeError:  # a stored value JSON cannot carry
        payload["value"] = repr(response.value)
        return _dumps(payload)


class _Handler(socketserver.BaseRequestHandler):
    """One connection: HTTP/1.1 framed out of one buffer the handler owns."""

    server: "ServiceHTTPServer"
    #: Seconds a connection may stay silent before its thread is given back.
    timeout = 30.0

    def handle(self) -> None:
        self.buf = bytearray(MAX_HEAD_BYTES)
        self.end = 0  # received, not yet parsed; buf[end:] is all zero
        self.request.settimeout(self.timeout)
        # A reply longer than one send must not wait on Nagle + delayed ACK.
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        close = False
        with contextlib.suppress(OSError, EOFError):  # silent too long, reset, closed early
            while not close:
                code, body, close = self._serve_one()
                self.request.sendall(_frame(code, body, close))

    def finish(self) -> None:
        self.server.slots.release()

    def _recv(self) -> None:
        got = self.request.recv_into(memoryview(self.buf)[self.end:])
        if not got:
            raise EOFError
        self.end += got

    def _serve_one(self) -> Tuple[int, bytes, bool]:
        """Read and forget one request: ``(status, body, closes)``."""
        buf = self.buf
        while (head_end := buf.find(b"\r\n\r\n", 0, self.end)) < 0:
            if self.end >= MAX_HEAD_BYTES:  # also once a long body has grown the buffer
                return 431, _error(431, f"request head over {MAX_HEAD_BYTES} bytes"), True
            self._recv()
        line, *fields = bytes(buf[:head_end]).split(b"\r\n")
        headers: Dict[bytes, List[bytes]] = {}
        for field in fields:
            name, _, value = field.lower().partition(b":")
            headers.setdefault(name.strip(), []).append(value.strip())
        words = line.decode("latin-1").split()
        if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
            return 400, _error(400, f"bad request line {line[:80]!r}"), True
        method, path, version = words
        if method not in ("GET", "POST"):
            return 501, _error(501, f"unsupported method {method!r}"), True
        length = _content_length(headers.get(b"content-length", [b"0"]))
        if b"transfer-encoding" in headers or not 0 <= length <= MAX_BODY_BYTES:
            code = 413 if length > MAX_BODY_BYTES else int(Status.BAD_REQUEST)
            return code, _error(code, f"need Content-Length 0..{MAX_BODY_BYTES}"), True
        if version == "HTTP/1.1" and headers.get(b"expect") == [b"100-continue"]:
            self.request.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        start, stop = head_end + 4, head_end + 4 + length
        if stop > len(buf):  # a body past the buffer: grow it to hold the body
            buf.extend(bytes(stop - len(buf)))
        while self.end < stop:
            self._recv()
        raw = bytes(buf[start:stop])
        # Forget the request: pipelined bytes move to the front, zeros follow.
        buf[: self.end] = buf[stop : self.end] + bytes(stop)
        self.end -= stop
        code, body, close = self._answer(method, path, raw)
        close = close or version == "HTTP/1.0" or headers.get(b"connection") == [b"close"]
        return code, body, close

    def _answer(self, method: str, path: str, raw: bytes) -> Tuple[int, bytes, bool]:
        if method == "GET" and path == "/healthz":
            return 200, _dumps({"status": 200, "ok": True}), False
        if method == "GET" and path == "/stats":
            return 200, _dumps(asdict(self.server.service.stats())), False
        builder = _ROUTES.get(path) if method == "POST" else None
        if builder is None:
            return 404, _error(404, "unknown path"), False
        try:
            request: Request = builder(json.loads(raw or b"{}"))
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            return 400, _error(400, f"bad request: {exc}"), False
        response = self.server.service.call(request)
        if path == "/sar" and response.ok:
            # SAR units are dataclasses — flatten for the wire.
            units = [asdict(unit) for unit in response.value or ()]
            body = _dumps({"status": int(response.status), "units": units})
        else:
            body = _encode(response)
        return int(response.status), body, response.status is Status.SHUTTING_DOWN


class ServiceHTTPServer(socketserver.ThreadingTCPServer):
    """A thread per connection, up to :data:`MAX_CONNECTIONS`, for one service."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self, service: ComplianceService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        super().__init__((host, port), _Handler)
        self.service = service
        #: Free connection slots; a handler gives its slot back as it ends.
        self.slots = threading.BoundedSemaphore(MAX_CONNECTIONS)

    def process_request(self, request: Any, client_address: Any) -> None:
        if self.slots.acquire(blocking=False):
            return super().process_request(request, client_address)
        with contextlib.suppress(OSError):  # over the cap: answered here, no thread
            request.sendall(_frame(503, _error(503, "too many connections"), True))
        self.shutdown_request(request)

    @property
    def address(self) -> Tuple[str, int]:
        return self.server_address[0], self.server_address[1]


def serve_in_background(
    service: ComplianceService,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ServiceHTTPServer:
    """Start an HTTP front door on a daemon thread; returns the bound
    server (``.address`` has the ephemeral port)."""
    server = ServiceHTTPServer(service, host=host, port=port)
    # A short poll: shutdown() waits out one interval.
    thread = threading.Thread(
        target=server.serve_forever, args=(0.05,), name="svc-http", daemon=True
    )
    thread.start()
    return server


def _announce(message: str) -> None:
    # flush so the bound (possibly ephemeral) port is visible even when
    # stdout is a pipe, not a terminal
    print(message, flush=True)


def serve_forever(
    service: ComplianceService,
    host: str = "127.0.0.1",
    port: int = 8080,
    announce: Optional[Any] = _announce,
) -> None:
    """Blocking server loop — the ``repro.cli serve`` entry point."""
    server = ServiceHTTPServer(service, host=host, port=port)
    if announce is not None:
        announce(
            f"compliance service listening on http://{host}:{server.address[1]} "
            f"({service.config.workers_per_shard} worker(s)/shard, "
            f"queue depth {service.config.queue_depth})"
        )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.server_close()
        service.close()
