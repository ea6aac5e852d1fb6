"""The HTTP front door's transport: persistent connections and the stream
discipline that keeps them safe — every reply leaves the stream at a
request boundary or closes it.

Raw sockets where the bytes matter, ``http.client`` where a real client's
behaviour does.  Every socket carries a timeout, so a hang is a failure
inside seconds, not a stuck suite.
"""

import http.client
import json
import socket
import time

import pytest

from repro.config import BackendConfig, StoreConfig
from repro.distributed.store import ReplicatedStore
from repro.service import ComplianceService
from repro.service import http as front_door
from repro.service.http import MAX_BODY_BYTES, ServiceHTTPServer, serve_in_background
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel

#: No reply in this file takes a tenth of this on a loaded machine.
BOUND_S = 5.0


class Front:
    """One service behind one front door, counting accepted connections."""

    def __init__(self, monkeypatch):
        self.accepted = 0
        get_request = ServiceHTTPServer.get_request

        def counting(server):
            accepted = get_request(server)
            self.accepted += 1
            return accepted

        monkeypatch.setattr(ServiceHTTPServer, "get_request", counting)
        cost = CostModel(SimClock(), CostBook())
        self.store = ReplicatedStore.from_config(
            cost, StoreConfig(shards=2, n_replicas=1)
        )
        self.service = ComplianceService(self.store)
        self.server = serve_in_background(self.service)

    def socket(self):
        return socket.create_connection(self.server.address, timeout=BOUND_S)

    def client(self):
        return http.client.HTTPConnection(*self.server.address, timeout=BOUND_S)

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.service.close()


@pytest.fixture
def front(monkeypatch):
    front = Front(monkeypatch)
    yield front
    front.close()


def request(method, path, body=None, version="HTTP/1.1", headers=()):
    """One request's bytes; ``body`` is a JSON-able object or raw bytes."""
    lines = [f"{method} {path} {version}", "Host: test", *headers]
    if body is None:
        raw = b""
    else:
        raw = body if isinstance(body, bytes) else json.dumps(body).encode()
        lines.append(f"Content-Length: {len(raw)}")
    return "\r\n".join(lines).encode() + b"\r\n\r\n" + raw


def read_reply(stream):
    """``(status, headers, payload)`` of the next reply on ``stream`` (a
    socket's ``makefile("rb")``), consuming exactly that reply."""
    status_line = stream.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    headers = {}
    for line in iter(stream.readline, b"\r\n"):
        name, _, value = line.decode().partition(":")
        headers[name.lower()] = value.strip()
    raw = stream.read(int(headers.get("content-length", 0)))
    payload = json.loads(raw) if headers.get("content-type") == "application/json" else raw
    return int(status_line.split()[1]), headers, payload


def assert_eof(stream):
    assert stream.read(1) == b""


def post(conn, path, body):
    conn.request("POST", path, json.dumps(body), {"Content-Type": "application/json"})
    reply = conn.getresponse()
    return reply.status, json.loads(reply.read())


class TestPersistentConnection:
    def test_fifty_requests_share_one_accepted_connection(self, front):
        conn = front.client()
        for round_ in range(8):
            key = f"k{round_}"
            assert post(conn, "/collect", {"key": key, "value": [round_], "subject": "s"})[0] == 201
            assert post(conn, "/read", {"key": key})[1]["value"] == [round_]
            assert post(conn, "/update", {"key": key, "value": "v2"})[0] == 200
            assert post(conn, "/erase", {"key": key})[1]["verified_clean"] is True
            status, body = post(conn, "/sar", {"subject": "s"})
            assert status == 200 and len(body["units"]) == round_ + 1
            conn.request("GET", "/stats")
            assert json.loads(conn.getresponse().read())["erased_keys"] == round_ + 1
        conn.request("GET", "/healthz")
        assert conn.getresponse().read() == b'{"status": 200, "ok": true}'
        assert post(conn, "/read", {"key": "k0"})[0] == 404
        conn.close()
        assert front.accepted == 1  # 50 requests; 50 connections under HTTP/1.0

    def test_back_to_back_requests_are_answered_in_order(self, front):
        front.store.put("a", "first")
        front.store.put("b", "second")
        with front.socket() as sock, sock.makefile("rb") as stream:
            sock.sendall(
                request("POST", "/read", {"key": "a"}) + request("POST", "/read", {"key": "b"})
            )
            assert read_reply(stream)[2]["value"] == "first"
            assert read_reply(stream)[2]["value"] == "second"

    def test_unknown_path_consumes_its_body(self, front):
        # Unread, the 404's body would be parsed as the next request line.
        front.store.put("a", "still here")
        with front.socket() as sock, sock.makefile("rb") as stream:
            sock.sendall(request("POST", "/nope", {"key": "a"}))
            assert read_reply(stream)[0] == 404
            sock.sendall(request("POST", "/read", {"key": "a"}))
            status, _, payload = read_reply(stream)
            assert (status, payload["value"]) == (200, "still here")

    def test_get_consumes_a_body_too(self, front):
        with front.socket() as sock, sock.makefile("rb") as stream:
            sock.sendall(request("GET", "/healthz", {"ignored": True}) + request("GET", "/healthz"))
            assert read_reply(stream)[0] == 200
            assert read_reply(stream)[0] == 200

    @pytest.mark.parametrize("body", [b"{not json", b"[" * 100_000, b'"a string"', b"\xff\xfe"])
    def test_invalid_json_is_a_400_and_the_connection_stays_usable(self, front, body, capfd):
        front.store.put("a", 1)
        with front.socket() as sock, sock.makefile("rb") as stream:
            sock.sendall(request("POST", "/read", body))
            status, headers, payload = read_reply(stream)
            assert status == 400 and "bad request" in payload["error"]
            assert "connection" not in headers
            sock.sendall(request("POST", "/read", {"key": "a"}))
            assert read_reply(stream)[2]["value"] == 1
        assert capfd.readouterr().err == ""

    def test_expect_100_continue_is_answered_before_the_body(self, front):
        # The interim reply sits in the write buffer unless flushed; a
        # client that waits for it (curl, for a second) would stall.
        front.store.put("a", 1)
        body = json.dumps({"key": "a"}).encode()
        with front.socket() as sock, sock.makefile("rb") as stream:
            sock.sendall(
                request("POST", "/read", headers=[
                    "Expect: 100-continue", f"Content-Length: {len(body)}",
                ])
            )
            assert stream.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert stream.readline() == b"\r\n"
            sock.sendall(body)
            assert read_reply(stream)[2]["value"] == 1

    def test_value_json_cannot_carry_is_sent_as_its_repr(self, front):
        front.store.put("a", {1, 2})
        conn = front.client()
        conn.request("POST", "/read", '{"key": "a"}')
        assert conn.getresponse().read() == b'{"status": 200, "value": "{1, 2}"}'
        conn.close()


class TestRequestValidation:
    """Keys and subjects are JSON strings, ``consistency`` a known level:
    any other body is a 400 that reaches no store and no subject index."""

    MALFORMED = [
        ("/collect", {"key": 7, "value": "v", "subject": "s"}),
        ("/collect", {"key": {"a": 1}, "value": "v", "subject": "s"}),
        ("/collect", {"key": "k", "value": "v", "subject": 7}),
        ("/read", {"key": 7}),
        ("/read", {"key": "k", "consistency": "bogus"}),
        ("/update", {"key": [1], "value": "v"}),
        ("/erase", {"key": 7}),
        ("/sar", {"subject": ["s"]}),
    ]

    @pytest.mark.parametrize("backend", ["psql", "lsm", "crypto-shred"])
    def test_malformed_body_is_a_400_that_leaves_nothing(self, backend):
        store = ReplicatedStore(
            CostModel(SimClock(), CostBook()),
            StoreConfig(shards=1, n_replicas=1, backend=BackendConfig(backend=backend)),
        )
        service = ComplianceService(store)
        server = serve_in_background(service)
        conn = http.client.HTTPConnection(*server.address, timeout=BOUND_S)
        try:
            for path, body in self.MALFORMED:
                status, reply = post(conn, path, body)
                assert status == 400 and "bad request" in reply["error"], (path, body)
            assert post(conn, "/collect", {"key": "k", "value": "v", "subject": "s"})[0] == 201
            assert post(conn, "/read", {"key": "k", "consistency": "quorum"}) == (
                200, {"status": 200, "value": "v"}
            )
            status, reply = post(conn, "/sar", {"subject": "s"})
            assert status == 200 and [unit["key"] for unit in reply["units"]] == ["k"]
        finally:
            conn.close()
            server.shutdown()
            server.server_close()
            service.close()
        assert store.copies_of(7) == []


class TestRepliesThatClose:
    @pytest.mark.parametrize(
        "length, status",
        [("abc", 400), ("-5", 400), (str(MAX_BODY_BYTES + 1), 413), ("1000000000", 413)],
    )
    def test_malformed_content_length(self, front, length, status, capfd):
        # At HTTP/1.0 "abc" was a traceback and no reply, and a billion
        # parked the handler thread in read() for good.
        with front.socket() as sock, sock.makefile("rb") as stream:
            sock.sendall(request("POST", "/read", headers=[f"Content-Length: {length}"]))
            got, headers, payload = read_reply(stream)
            assert got == status == payload["status"]
            assert headers["connection"] == "close"
            assert_eof(stream)
        assert capfd.readouterr().err == ""

    def test_chunked_body_is_refused_not_misread(self, front):
        with front.socket() as sock, sock.makefile("rb") as stream:
            sock.sendall(
                request("POST", "/read", headers=["Transfer-Encoding: chunked"])
                + b'c\r\n{"key": "a"}\r\n0\r\n\r\n'
            )
            assert read_reply(stream)[0] == 400
            assert_eof(stream)

    def test_unsupported_method_reply_is_sent_and_closes(self, front):
        with front.socket() as sock, sock.makefile("rb") as stream:
            sock.sendall(request("PUT", "/read", {"key": "a"}))
            status, headers, _ = read_reply(stream)
            assert (status, headers["connection"]) == (501, "close")
            assert_eof(stream)

    @pytest.mark.parametrize(
        "version, headers", [("HTTP/1.0", ()), ("HTTP/1.1", ("Connection: close",))]
    )
    def test_one_shot_clients_get_eof_after_one_reply(self, front, version, headers):
        with front.socket() as sock, sock.makefile("rb") as stream:
            sock.sendall(request("GET", "/healthz", version=version, headers=headers))
            assert read_reply(stream)[0] == 200
            assert_eof(stream)

    def test_closed_service_answers_one_503_then_eof(self, front):
        front.store.put("a", 1)
        with front.socket() as sock, sock.makefile("rb") as stream:
            sock.sendall(request("POST", "/read", {"key": "a"}))
            assert read_reply(stream)[0] == 200
            front.service.close()
            sock.sendall(request("POST", "/read", {"key": "a"}) * 2)
            status, headers, _ = read_reply(stream)
            assert (status, headers["connection"]) == (503, "close")
            assert_eof(stream)


class TestTimeBounds:
    def test_idle_connection_is_closed_after_the_timeout(self, front, monkeypatch):
        assert front_door._Handler.timeout is not None  # the stdlib's default: for ever
        monkeypatch.setattr(front_door._Handler, "timeout", 0.2)
        with front.socket() as sock, sock.makefile("rb") as stream:
            sock.sendall(request("GET", "/healthz"))
            assert read_reply(stream)[0] == 200
            start = time.perf_counter()
            assert_eof(stream)
            assert 0.15 < time.perf_counter() - start < 2.0

    def test_truncated_body_times_out_instead_of_pinning_a_thread(
        self, front, monkeypatch, capfd
    ):
        monkeypatch.setattr(front_door._Handler, "timeout", 0.2)
        with front.socket() as sock, sock.makefile("rb") as stream:
            sock.sendall(request("POST", "/read", headers=["Content-Length: 100"]) + b'{"key"')
            start = time.perf_counter()
            assert_eof(stream)
            assert time.perf_counter() - start < 2.0
        assert capfd.readouterr().err == ""

    def test_shutdown_does_not_wait_for_an_idle_connection(self, front):
        with front.socket() as sock, sock.makefile("rb") as stream:
            sock.sendall(request("GET", "/healthz"))
            assert read_reply(stream)[0] == 200
            start = time.perf_counter()
            front.server.shutdown()
            assert time.perf_counter() - start < 0.2

    def test_long_reply_is_not_stalled_by_nagle(self, front):
        # A 400-key /sar reply is ~35 kB, several sends: without
        # TCP_NODELAY a persistent connection pays one Nagle + delayed-ACK
        # stall (~40 ms) that a closing connection does not.
        conn = front.client()
        for i in range(400):
            collected = post(conn, "/collect", {"key": f"k{i:03d}", "value": i, "subject": "s"})
            assert collected[0] == 201

        def sar_seconds(headers):
            best = float("inf")
            for _ in range(5):
                start = time.perf_counter()
                conn.request("POST", "/sar", '{"subject": "s"}', headers)
                reply = conn.getresponse()
                units = json.loads(reply.read())["units"]
                best = min(best, time.perf_counter() - start)
                assert len(units) == 400
            return best

        closing = sar_seconds({"Connection": "close"})
        accepted = front.accepted
        persistent = sar_seconds({})
        assert front.accepted == accepted + 1  # five requests, one connection
        conn.close()
        assert persistent < 1.5 * closing


def test_serve_forever_closes_its_listening_socket(monkeypatch):
    served = []
    monkeypatch.setattr(ServiceHTTPServer, "serve_forever", lambda server: served.append(server))
    service = ComplianceService(
        ReplicatedStore.from_config(CostModel(SimClock(), CostBook()), StoreConfig(shards=1))
    )
    front_door.serve_forever(service, port=0, announce=None)
    assert served[0].socket.fileno() == -1
    assert service.call(front_door.ReadRequest("a")).status == 503
