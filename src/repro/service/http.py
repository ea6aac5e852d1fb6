"""Stdlib HTTP transport for the compliance service.

A thin JSON mapping over :class:`~repro.service.server.ComplianceService`
using ``ThreadingHTTPServer`` (one thread per connection; the service's
admission control — not the socket layer — bounds concurrency).

Transport: HTTP/1.1 persistent connections, one ``send`` per reply.  Every
reply leaves the stream at a request boundary or closes it: the body is
read before any reply (a 404 included); a ``Content-Length`` that is no
non-negative integer (400) or above :data:`MAX_BODY_BYTES` (413) closes,
the body's end being unknown, and so does a 503 (service closed).  A
connection silent for ``_Handler.timeout`` seconds, idle or mid-body, is
dropped; HTTP/1.0 and ``Connection: close`` get one reply, then EOF.  Routes:

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

import json
import threading
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

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


def _dumps(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload).encode()


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


class _Handler(BaseHTTPRequestHandler):
    server: "ServiceHTTPServer"
    protocol_version = "HTTP/1.1"
    # Buffered, so status line, headers and body leave in one send; a reply
    # longer than one send must not wait on Nagle + delayed ACK.
    wbufsize = -1
    disable_nagle_algorithm = True
    #: Seconds a connection may stay silent before its thread is given back.
    timeout = 30.0

    # Silence the default per-request stderr logging.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def _reply(self, code: int, body: bytes, close: bool = False) -> None:
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close or self.close_connection:  # told to the client, and sets the flag
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, error: str, close: bool = False) -> None:
        self._reply(code, _dumps({"status": code, "error": error}), close)

    def _read_body(self) -> Optional[bytes]:
        """The request's body — ``None`` after a closing 400 / 413: no
        telling where it ends."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if 0 <= length <= MAX_BODY_BYTES and "Transfer-Encoding" not in self.headers:
            self.wfile.flush()  # a buffered "100 Continue" leaves before the wait
            return self.rfile.read(length)
        code = 413 if length > MAX_BODY_BYTES else int(Status.BAD_REQUEST)
        self._error(code, f"Content-Length must be 0..{MAX_BODY_BYTES}, not chunked", True)
        return None

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
        if self._read_body() is None:
            return
        if self.path == "/healthz":
            self._reply(200, _dumps({"status": 200, "ok": True}))
        elif self.path == "/stats":
            self._reply(200, _dumps(asdict(self.server.service.stats())))
        else:
            self._error(404, "unknown path")

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler API)
        raw = self._read_body()
        if raw is None:
            return
        builder = _ROUTES.get(self.path)
        if builder is None:
            self._error(404, "unknown path")
            return
        try:
            request: Request = builder(json.loads(raw or b"{}"))
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            self._error(int(Status.BAD_REQUEST), f"bad request: {exc}")
            return
        response = self.server.service.call(request)
        if self.path == "/sar" and response.ok:
            # SAR units are dataclasses — flatten for the wire.
            units = [asdict(unit) for unit in response.value or ()]
            body = _dumps({"status": int(response.status), "units": units})
        else:
            body = _encode(response)
        self._reply(int(response.status), body, response.status is Status.SHUTTING_DOWN)


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one :class:`ComplianceService`."""

    daemon_threads = True

    def __init__(
        self,
        service: ComplianceService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__((host, port), _Handler)
        self.service = service

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
