"""Per-layer tracing from outside ``src/``: wrap, record, attribute.

:class:`Tracer` replaces — by attribute assignment, for the length of one
traced run — the public entry points of each layer with wrappers that
record a span (name, start, end, parent, request id) into a per-thread
list.  Nothing is computed while the run is on; :meth:`Tracer.attribute`
does the work afterwards:

* same-thread nesting comes from a thread-local stack;
* the client → worker hop (and, over HTTP, client → handler → worker) is
  joined by key and interval containment: a key has one owning client and
  at most one request in flight, so the ``call`` span holding a store
  span's key and interval is its cause;
* one ``erase_many`` span serves every call the worker batched into it and
  is shared evenly between them;
* a span's self time is its duration minus its children and minus the
  codec time spent directly inside it.

Codec calls are too many to keep one by one (an LSM forensic scan decodes
every entry), so they are timed into the innermost open span instead and
come out as the ``codec`` layer's self time.
"""

from __future__ import annotations

import http.client
import threading
import time
from bisect import bisect_right
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import codec
from repro.distributed.store import ReplicatedStore
from repro.service.server import ComplianceService
from repro.systems.backends import (
    CryptoShredBackend,
    LsmBackend,
    PsqlBackend,
    StorageBackend,
)

HTTP, SERVER, STORE, BACKENDS, CODEC = (
    "service.http",
    "service.server",
    "distributed.store",
    "systems.backends",
    "codec",
)

_STORE_METHODS = (
    "read", "put", "update", "erase_many", "erase_all_copies", "copies_of",
    "naive_delete", "flush_repairs", "maintain",
)
_BACKEND_METHODS = (
    "read", "insert", "update", "delete", "reclaim", "scrub_exports",
    "copy_locations", "copy_sites", "forensic_scan", "log_holds_value",
    "stats",
)
_BACKEND_CLASSES = (StorageBackend, PsqlBackend, LsmBackend, CryptoShredBackend)
_ENCODERS = ("encode", "encode_many")
_DECODERS = ("decode", "decode_many")

#: ``(group, rid, sent, done, speed)`` — one generator-side record per
#: request; every time attributed to it is multiplied by ``speed``.
Request = Tuple[str, int, float, float, float]


class _ThreadSpans:
    __slots__ = ("thread", "spans", "stack", "rid", "acc", "in_codec")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        #: ``(name id, start, end, parent index, arg, rid, codec acc)``;
        #: the slot is reserved at entry and filled at exit.
        self.spans: List[Optional[tuple]] = []
        self.stack: List[int] = []
        self.rid = -1
        #: Codec time of the innermost open span:
        #: ``[encode s, encode calls, decode s, decode calls]``.
        self.acc: List[float] = [0.0, 0, 0.0, 0]
        self.in_codec = False


class Tracer:
    def __init__(self) -> None:
        self._tls = threading.local()
        self._guard = threading.Lock()
        self._threads: List[_ThreadSpans] = []
        self._patched: List[Tuple[Any, str, Any]] = []
        self._names: List[Tuple[str, str]] = []
        self.connects = 0
        self.log_values_scrubbed = 0

    # ------------------------------------------------------------- recording
    def _state(self) -> _ThreadSpans:
        try:
            return self._tls.state
        except AttributeError:
            state = _ThreadSpans(threading.current_thread().name)
            self._tls.state = state
            with self._guard:
                self._threads.append(state)
            return state

    def set_rid(self, rid: int) -> None:
        """Spans this thread opens from now on belong to request ``rid``."""
        self._state().rid = rid

    def wrap(
        self,
        fn: Callable[..., Any],
        layer: str,
        name: str,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` with a span around it.  The span keeps ``fn``'s first
        argument past ``self`` — the key, the key list, or the request."""
        name_id = len(self._names)
        self._names.append((layer, name))
        state = self._state
        perf = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            st = state()
            spans = st.spans
            index = len(spans)
            spans.append(None)
            stack = st.stack
            parent = stack[-1] if stack else -1
            stack.append(index)
            outer = st.acc
            acc = st.acc = [0.0, 0, 0.0, 0]
            start = perf()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            finally:
                end = perf()
                st.acc = outer
                stack.pop()
                spans[index] = (
                    name_id, start, end, parent,
                    args[1] if len(args) > 1 else None, st.rid, acc,
                )

        return traced

    def _wrap_codec(self, fn: Callable[..., Any], slot: int) -> Callable[..., Any]:
        state = self._state
        perf = time.perf_counter

        def timed(*args: Any, **kwargs: Any) -> Any:
            st = state()
            if st.in_codec:  # encode_many falling back to encode, …
                return fn(*args, **kwargs)
            st.in_codec = True
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                st.in_codec = False
                acc = st.acc
                acc[slot] += elapsed
                acc[slot + 1] += 1

        return timed

    # ------------------------------------------------------------ installing
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        def count_connect(conn: Any) -> None:
            self.connects += 1
            return connect(conn)

        def count_scrubbed(report: Any) -> None:
            self.log_values_scrubbed += report.log_values_scrubbed

        connect = http.client.HTTPConnection.connect
        self._patch(http.client.HTTPConnection, "connect", count_connect)
        for name in ("submit", "call"):
            self._patch(
                ComplianceService, name,
                self.wrap(getattr(ComplianceService, name), SERVER, name),
            )
        for name in _STORE_METHODS:
            self._patch(
                ReplicatedStore, name,
                self.wrap(
                    getattr(ReplicatedStore, name), STORE, name,
                    count_scrubbed if name == "erase_many" else None,
                ),
            )
        for cls in _BACKEND_CLASSES:
            for name in _BACKEND_METHODS:
                if name in cls.__dict__:
                    self._patch(
                        cls, name, self.wrap(cls.__dict__[name], BACKENDS, name)
                    )
        for slot, names in ((0, _ENCODERS), (2, _DECODERS)):
            for name in names:
                self._patch(
                    codec, name, self._wrap_codec(getattr(codec, name), slot)
                )

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- analysis
    def _flatten(self) -> List[dict]:
        """Every finished span as a dict with a global ``id`` and
        same-thread ``parent`` (or ``None``)."""
        out: List[dict] = []
        for state in self._threads:
            base = len(out)
            local = {}
            for index, span in enumerate(state.spans):
                if span is None:
                    continue
                name_id, start, end, parent, arg, rid, acc = span
                layer, name = self._names[name_id]
                local[index] = len(out)
                out.append({
                    "id": len(out), "layer": layer, "name": name,
                    "thread": state.thread, "start": start, "end": end,
                    "parent": parent, "arg": arg, "rid": rid, "acc": acc,
                    "children": [], "shared_by": 1,
                })
            for span in out[base:]:
                parent = span["parent"]
                span["parent"] = local.get(parent) if parent >= 0 else None
        return out

    @staticmethod
    def _keys(span: dict) -> Sequence[Any]:
        arg = span["arg"]
        if arg is None:
            return ()
        if isinstance(arg, (list, tuple)):
            return arg
        return (getattr(arg, "key", arg),)

    def _join(self, spans: List[dict]) -> int:
        """Attach thread-root spans to the span that caused them; returns
        how many keyed roots found no cause."""
        by_key: Dict[Tuple[str, Any], List[dict]] = {}
        for span in spans:
            if span["name"] in ("call", "roundtrip"):
                for key in self._keys(span):
                    by_key.setdefault((span["name"], key), []).append(span)
        starts: Dict[Tuple[str, Any], List[float]] = {}
        for slot, candidates in by_key.items():
            candidates.sort(key=lambda s: s["start"])
            starts[slot] = [s["start"] for s in candidates]
        orphans = 0
        for span in spans:
            if span["parent"] is not None:
                spans[span["parent"]]["children"].append(span)
                continue
            if span["rid"] >= 0:
                continue  # the client's own span: a request's root
            cause = "roundtrip" if span["name"] == "call" else "call"
            keys = self._keys(span)
            joined = 0
            for key in keys:
                slot = (cause, key)
                at = bisect_right(starts.get(slot, ()), span["start"]) - 1
                if at >= 0 and by_key[slot][at]["end"] >= span["end"]:
                    by_key[slot][at]["children"].append(span)
                    joined += 1
            if joined:
                span["shared_by"] = joined
            elif keys:
                orphans += 1
        return orphans

    @staticmethod
    def _self_times(spans: List[dict]) -> None:
        # A worker can pick a request up while the client is still inside
        # ``submit`` (descheduled after the enqueue).  That stretch is the
        # worker's, not ``submit``'s: without the cut the two children
        # would cover more than their ``call``.
        for span in spans:
            if span["name"] == "call":
                picked_up = min(
                    (c["start"] for c in span["children"] if c["layer"] == STORE),
                    default=None,
                )
                for child in span["children"]:
                    if child["name"] == "submit" and picked_up is not None:
                        child["end"] = max(child["start"], min(child["end"], picked_up))
        for span in spans:
            duration = span["end"] - span["start"]
            covered = span["acc"][0] + span["acc"][2]
            for child in span["children"]:
                covered += (child["end"] - child["start"]) / child["shared_by"]
            span["self"] = duration - covered

    def attribute(self, requests: Sequence[Request]) -> Dict[str, Any]:
        """Per request group: how many requests, their mean latency as the
        generator saw it, and per ``(layer, name)`` the mean self time and
        mean call count per request — plus the spans themselves and the
        run's plain counts."""
        spans = self._flatten()
        orphans = self._join(spans)
        self._self_times(spans)
        request_of = {rid: (group, speed) for group, rid, _s, _d, speed in requests}
        groups: Dict[str, Dict[str, Any]] = {}
        for group, _rid, sent, done, speed in requests:
            g = groups.setdefault(
                group, {"requests": 0, "latency": 0.0, "self": {}, "calls": {}}
            )
            g["requests"] += 1
            g["latency"] += (done - sent) * speed

        def add(g: dict, slot: Tuple[str, str], seconds: float, calls: float) -> None:
            g["self"][slot] = g["self"].get(slot, 0.0) + seconds
            g["calls"][slot] = g["calls"].get(slot, 0.0) + calls

        def walk(span: dict, g: dict, weight: float, speed: float) -> None:
            """Credit ``weight`` of the span and of everything under it to
            group ``g``, its times scaled by ``speed``."""
            own = span["self"] * speed
            slot = (span["layer"], span["name"])
            if span["name"] == "call":
                # Enqueued → the worker entered the store: queue wait,
                # wake-up and both lock tiers.
                submit = [c for c in span["children"] if c["name"] == "submit"]
                work = [c for c in span["children"] if c["layer"] == STORE]
                if submit and work:
                    wait = (min(c["start"] for c in work) - submit[0]["end"]) * speed
                    wait = max(0.0, min(wait, own))
                    add(g, (SERVER, "queue_wait"), wait * weight, 0)
                    own -= wait
            add(g, slot, own * weight, weight)
            enc_s, enc_n, dec_s, dec_n = span["acc"]
            if enc_n:
                add(g, (CODEC, "encode"), enc_s * speed * weight, enc_n * weight)
            if dec_n:
                add(g, (CODEC, "decode"), dec_s * speed * weight, dec_n * weight)
            for child in span["children"]:
                walk(child, g, weight / child["shared_by"], speed)

        for span in spans:
            if span["parent"] is None and span["rid"] in request_of:
                if span["name"] in ("call", "roundtrip"):
                    group, speed = request_of[span["rid"]]
                    walk(span, groups[group], 1.0, speed)
        for g in groups.values():
            n = g["requests"]
            g["latency"] /= n
            g["self"] = {slot: s / n for slot, s in g["self"].items()}
            g["calls"] = {slot: c / n for slot, c in g["calls"].items()}
        return {
            "groups": groups,
            "spans": spans,
            "orphans": orphans,
            "connects": self.connects,
            "log_values_scrubbed": self.log_values_scrubbed,
        }


def dump_spans(spans: Sequence[dict]) -> List[dict]:
    """Spans as JSON-ready rows (µs from the first span's start)."""
    origin = min((s["start"] for s in spans), default=0.0)
    return [
        {
            "id": s["id"],
            "layer": s["layer"],
            "name": s["name"],
            "thread": s["thread"],
            "start_us": (s["start"] - origin) * 1e6,
            "end_us": (s["end"] - origin) * 1e6,
            "self_us": s["self"] * 1e6,
            "codec_us": (s["acc"][0] + s["acc"][2]) * 1e6,
            "rid": s["rid"],
            "children": [c["id"] for c in s["children"]],
            "shared_by": s["shared_by"],
        }
        for s in spans
    ]
