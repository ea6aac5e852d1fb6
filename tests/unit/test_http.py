"""The HTTP front door's transport: persistent connections and the stream
discipline that keeps them safe — every reply leaves the stream at a
request boundary or closes it.

Raw sockets where the bytes matter, ``http.client`` where a real client's
behaviour does.  Every socket carries a timeout, so a hang is a failure
inside seconds, not a stuck suite.
"""

import contextlib
import http.client
import itertools
import json
import re
import secrets
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from residue import holders

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
        [
            ("abc", 400), ("-5", 400), (str(MAX_BODY_BYTES + 1), 413), ("1000000000", 413),
            ("1_2", 400), ("+12", 400), ("0x10", 400),
        ],
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

    def test_conflicting_content_lengths_close(self, front):
        # RFC 9112 §6.3: copies that disagree are a framing error (the first
        # copy used to win); copies that agree are one length.
        front.store.put("a", 1)
        body = json.dumps({"key": "a"}).encode()
        twice = [f"Content-Length: {len(body)}"] * 2
        with front.socket() as sock, sock.makefile("rb") as stream:
            sock.sendall(request("POST", "/read", headers=twice) + body)
            assert read_reply(stream)[2]["value"] == 1
            sock.sendall(request("POST", "/read", headers=[twice[0], "Content-Length: 5"]) + body)
            status, headers, _ = read_reply(stream)
            assert (status, headers["connection"]) == (400, "close")
            assert_eof(stream)

    @pytest.mark.parametrize(
        "head, status",
        [
            (b"NONSENSE\r\n\r\n", 400),
            (b"GET /healthz HTTP/2.0\r\n\r\n", 400),
            (b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * front_door.MAX_HEAD_BYTES, 431),
        ],
        ids=["no-request-line", "http-2", "head-over-the-limit"],
    )
    def test_unparseable_head_is_refused_and_closes(self, front, head, status):
        with front.socket() as sock, sock.makefile("rb") as stream:
            sock.sendall(head)
            got, headers, payload = read_reply(stream)
            assert (got, payload["status"], headers["connection"]) == (status, status, "close")
            assert_eof(stream)

    def test_a_buffer_grown_by_a_long_body_keeps_the_head_limit(self, front):
        long_body = request("POST", "/nope", b"x" * 2 * front_door.MAX_HEAD_BYTES)
        long_head = b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * front_door.MAX_HEAD_BYTES
        with front.socket() as sock, sock.makefile("rb") as stream:
            sock.sendall(long_body + long_head)
            assert read_reply(stream)[0] == 404
            status, headers, _ = read_reply(stream)
            assert (status, headers["connection"]) == (431, "close")
            assert_eof(stream)

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


@contextlib.contextmanager
def serving(backend):
    """A one-shard service on ``backend`` behind its own front door."""
    store = ReplicatedStore(
        CostModel(SimClock(), CostBook()),
        StoreConfig(shards=1, n_replicas=1, backend=BackendConfig(backend=backend)),
    )
    service = ComplianceService(store)
    server = serve_in_background(service)
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def collect_reversed(conn, key, reversed_value):
    """Collect ``reversed_value[::-1]``; the value lives only in this frame."""
    return post(conn, "/collect", {"key": key, "value": reversed_value[::-1], "subject": "s"})[0]


class TestNoResidue:
    @pytest.mark.parametrize("backend", ["psql", "lsm", "crypto-shred"])
    def test_kept_alive_connection_forgets_an_erased_value(self, backend):
        """After a verified erase and one shorter request on the same open
        connection, no live object in the process holds the value — the
        connection's read buffer included.  Only the reversed value is kept
        here, so the test is no holder itself."""
        reversed_value = secrets.token_hex(24)
        with serving(backend) as server:
            conn = http.client.HTTPConnection(*server.address, timeout=BOUND_S)
            assert collect_reversed(conn, "k", reversed_value) == 201
            assert holders(reversed_value)  # the walk sees a value that is held
            assert post(conn, "/erase", {"key": "k"})[1]["verified_clean"] is True
            assert post(conn, "/read", {"key": "x"})[0] == 404
            assert holders(reversed_value) == []
            conn.close()


class TestConnectionCap:
    def test_connections_over_the_cap_get_a_503_and_no_thread(self, monkeypatch):
        monkeypatch.setattr(front_door, "MAX_CONNECTIONS", 4)  # read when the server starts
        front = Front(monkeypatch)
        try:
            baseline = threading.active_count()
            held = []
            for _ in range(4):  # each answered once, then left idle
                sock = front.socket()
                stream = sock.makefile("rb")
                held.append((sock, stream))
                sock.sendall(request("GET", "/healthz"))
                assert read_reply(stream)[0] == 200
            for _ in range(6):
                with front.socket() as sock, sock.makefile("rb") as stream:
                    status, headers, _ = read_reply(stream)
                    assert (status, headers["connection"]) == (503, "close")
                    assert_eof(stream)
            assert threading.active_count() <= baseline + 4 + 1
            for sock, stream in held:
                stream.close()
                sock.close()
            deadline = time.monotonic() + BOUND_S
            while threading.active_count() > baseline:  # a slot is back before its thread ends
                assert time.monotonic() < deadline
                time.sleep(0.01)
            with front.socket() as sock, sock.makefile("rb") as stream:
                sock.sendall(request("GET", "/healthz"))
                assert read_reply(stream)[0] == 200
        finally:
            front.close()


def _raw_reply(stream):
    """The next reply's exact bytes (an interim ``100`` included)."""
    head = b"".join(iter(stream.readline, b"\r\n")) + b"\r\n"
    length = re.search(rb"Content-Length: (\d+)", head)
    return head + stream.read(int(length[1]) if length else 0)


def _without_date(data):
    return re.sub(rb"Date: [^\r]*\r\n", b"", data)


#: Requests whose replies no request in the mix changes: ``(method, path,
#: body for a pad of n bytes)``.
FRAMED = [
    ("POST", "/read", lambda pad: {"key": "a", "pad": pad}),
    ("POST", "/update", lambda pad: {"key": "b", "value": pad}),
    ("POST", "/sar", lambda pad: {"subject": "nobody", "pad": pad}),
    ("POST", "/nope", lambda pad: {"pad": pad}),
    ("POST", "/read", lambda pad: b"{not json" + pad.encode()),
    ("GET", "/healthz", lambda pad: pad.encode()),
]
A_REQUEST = st.tuples(st.integers(0, len(FRAMED) - 1), st.integers(0, 2048), st.booleans())


class TestFraming:
    def test_any_split_of_a_pipeline_gets_the_replies_sent_whole(self, front, monkeypatch):
        monkeypatch.setattr(front_door._Handler, "timeout", 0.2)
        front.store.put("a", "first")
        front.store.put("b", "v")
        baseline = threading.active_count()

        def whole_replies(requests):
            with front.socket() as sock, sock.makefile("rb") as stream:
                replies = []
                for raw, expect in requests:
                    sock.sendall(raw)
                    replies.append(b"".join(_raw_reply(stream) for _ in range(1 + expect)))
                assert_eof(stream)
            return replies

        @settings(max_examples=40, deadline=None)
        @given(st.lists(A_REQUEST, min_size=1, max_size=5), st.data())
        def check(drawn, data):
            requests = []
            for route, n, expect in drawn:
                method, path, body = FRAMED[route]
                extra = ["Expect: 100-continue"] if expect else []
                requests.append((request(method, path, body("x" * n), headers=extra), expect))
            requests.append((request("GET", "/healthz", headers=["Connection: close"]), False))
            replies = [_without_date(reply) for reply in whole_replies(requests)]
            stream = b"".join(raw for raw, _ in requests)
            ending = data.draw(st.sampled_from(["complete", "truncated", "early close"]))
            sent = len(stream)
            if ending != "complete":
                sent = data.draw(st.integers(0, len(stream) - 1), label="cut")
            cuts = data.draw(st.lists(st.integers(1, max(1, sent - 1)), max_size=24, unique=True))
            bounds = [0, *sorted(c for c in cuts if c < sent), sent]
            with front.socket() as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                for lo, hi in zip(bounds, bounds[1:]):
                    sock.sendall(stream[lo:hi])
                if ending == "early close":
                    sock.shutdown(socket.SHUT_WR)
                start = time.perf_counter()
                got = _without_date(b"".join(iter(lambda: sock.recv(1 << 16), b"")))
                waited = time.perf_counter() - start
            if ending == "complete":
                assert got == b"".join(replies)
            else:  # the replies of every whole request, then EOF, not a hang
                ends = itertools.accumulate(len(raw) for raw, _ in requests)
                whole = sum(1 for end in ends if end <= sent)
                assert b"".join(replies).startswith(got)
                assert got.startswith(b"".join(replies[:whole]))
                assert waited < front_door._Handler.timeout + 0.5  # slack for a loaded box
            deadline = time.monotonic() + 1.0
            while threading.active_count() > baseline:
                assert time.monotonic() < deadline
                time.sleep(0.005)

        check()
