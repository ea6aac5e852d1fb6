"""ComplianceService — concurrency, admission control, erase batching.

The deterministic parts (staged queues via ``autostart=False``) pin exact
behavior; the seeded multi-client smoke exercises true thread races with
the invariant registry as oracle.
"""

import gc
import json
import signal
import sys
import threading
import time
import urllib.error
import urllib.request
from collections import Counter

import pytest

from repro.analysis.invariants import store_invariants
from repro.config import BackendConfig, ServiceConfig, StoreConfig
from repro.distributed.store import ReplicatedStore
from repro.service import (
    CollectRequest,
    ComplianceService,
    EraseRequest,
    ReadRequest,
    Response,
    SarRequest,
    Status,
    UpdateRequest,
)
from repro.service import server
from repro.service.http import serve_in_background
from repro.service.server import _TopologyLock
from repro.sim.clock import SimClock
from repro.sim.costs import CostBook, CostModel
from repro.storage.errors import TupleNotFoundError
from repro.workloads.base import OpKind
from repro.workloads.driver import load_store, unit_key
from repro.workloads.gdprbench import erasure_study_workload
from repro.workloads.ycsb import ycsb_c_workload


#: Seconds one test here may take before it fails by name.  A topology-lock
#: defect wedges ``submit`` and ``stats`` themselves (both take the lock),
#: and no timeout argument reaches those waits; the alarm interrupts them
#: in the main thread well before the suite's 120 s watchdog ends the run.
TEST_BUDGET_S = 60


@pytest.fixture(autouse=True)
def _test_budget():
    def expire(signum, frame):
        raise TimeoutError(f"test exceeded its {TEST_BUDGET_S} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_BUDGET_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class Deadline:
    """One time budget shared by every wait in a test: a hand-off defect
    then fails the test by name well inside the suite's 120 s watchdog,
    instead of one timeout per wait adding up past it."""

    def __init__(self, seconds):
        self._end = time.monotonic() + seconds

    def left(self):
        return max(0.0, self._end - time.monotonic())


def make_service(shards=2, invariants=False, initial_live=(), backend="psql", **cfg):
    cost = CostModel(SimClock(), CostBook())
    store = ReplicatedStore.from_config(
        cost,
        StoreConfig(
            backend=BackendConfig(backend=backend), shards=shards, n_replicas=1
        ),
    )
    service = ComplianceService(
        store,
        config=ServiceConfig(**cfg) if cfg else None,
        invariants=store_invariants() if invariants else None,
        initial_live=initial_live,
        autostart=False,
    )
    return service, store


class TestRequestPath:
    def test_full_lifecycle(self):
        service, _ = make_service()
        service.start()
        assert service.call(CollectRequest("k1", "v1", subject="alice")).status \
            is Status.CREATED
        assert service.call(ReadRequest("k1")).value == "v1"
        assert service.call(UpdateRequest("k1", "v2")).status is Status.OK
        assert service.call(ReadRequest("k1")).value == "v2"
        erased = service.call(EraseRequest("k1"))
        assert erased.ok and erased.verified_clean
        assert service.call(ReadRequest("k1")).status is Status.NOT_FOUND
        sar = service.call(SarRequest("alice"))
        assert sar.ok
        (unit,) = sar.value
        assert unit.key == "k1" and unit.erased and unit.value is None
        service.close()

    def test_closed_service_rejects_with_503(self):
        service, _ = make_service()
        service.start()
        service.close()
        response = service.call(ReadRequest("k"))
        assert response.status is Status.SHUTTING_DOWN

    def test_close_is_idempotent(self):
        service, _ = make_service()
        service.close()
        service.close()


class TestWorkerPools:
    @pytest.mark.parametrize("staged", [False, True], ids=["autostart", "staged"])
    def test_each_pool_starts_its_workers_once(self, staged):
        """``workers_per_shard`` threads per pool, each under its own name —
        whether ``start()`` runs on its own (as autostart calls it) or
        ``close()`` starts a service that has a pool staged."""
        service, _ = make_service(shards=3, workers_per_shard=2)
        if staged:
            service.submit(ReadRequest("k"))
        else:
            service.start()
        service.close()
        pools = service._pools.values()
        assert [len(pool.workers) for pool in pools] == [2, 2, 2]
        names = [worker.name for pool in pools for worker in pool.workers]
        assert len(set(names)) == len(names)


def _responses_holding(value, timeout=2.0):
    """How many live ``Response`` objects still carry ``value`` once the
    workers have gone idle (polled: a worker finishes its request just
    after resolving the caller's future)."""
    deadline = time.monotonic() + timeout
    while True:
        gc.collect()
        held = sum(
            isinstance(obj, Response) and obj.value == value
            for obj in gc.get_objects()
        )
        if not held or time.monotonic() > deadline:
            return held
        time.sleep(0.01)


class TestNoResidue:
    @pytest.mark.parametrize("backend", ["psql", "lsm", "crypto-shred"])
    def test_idle_worker_forgets_its_last_request(self, backend):
        """A finished read's response goes away with the caller's reference:
        an idle worker must not keep it (and so an erased value) alive."""
        service, _ = make_service(shards=1, backend=backend, workers_per_shard=1)
        service.start()
        secret = f"residue-sentinel-{backend}"
        assert service.call(CollectRequest("k", secret, subject="s")).ok
        response = service.call(ReadRequest("k"))
        assert response.value == secret
        del response
        assert _responses_holding(secret) == 0
        assert service.call(EraseRequest("k")).verified_clean
        assert _responses_holding(secret) == 0
        service.close()


class TestAdmissionControl:
    def test_full_queue_rejects_without_side_effects(self):
        # autostart=False: no workers are draining, so the queue state is
        # fully deterministic.
        service, store = make_service(
            shards=1, invariants=True, queue_depth=2
        )
        store.put("victim", "v")
        service.world.live.add("victim")
        world_live = set(service.world.live)
        world_erased = set(service.world.erased)

        futures = [
            service.submit(ReadRequest("victim")),
            service.submit(ReadRequest("victim")),
        ]
        rejected = service.submit(EraseRequest("victim"))
        # The rejection resolves immediately — no worker involved.
        response = rejected.result(timeout=0)
        assert response.status is Status.REJECTED
        assert response.rejected
        assert "admission queue full" in response.error

        # No side effects: nothing erased, no world bookkeeping, no
        # completion counted — the store never saw the request.
        assert store.read("victim") == "v"
        assert service.world.live == world_live
        assert service.world.erased == world_erased
        stats = service.stats()
        assert stats.rejected == 1
        assert stats.completed == 0
        assert stats.erased_keys == 0

        service.close()  # drains the two staged reads through workers
        assert all(f.result(timeout=5).ok for f in futures)

    def test_rejection_counts_only_rejected(self):
        service, _ = make_service(shards=1, queue_depth=1)
        service.submit(ReadRequest("a"))
        service.submit(ReadRequest("b"))
        assert service.stats().rejected == 1
        assert service.stats().accepted == 1
        service.close()


class TestHandOff:
    """The worker hand-off: admission count, reply slots, the topology
    lock's writer preference, and shutdown racing admission.  Every wait
    is bounded, so a broken hand-off fails instead of hanging."""

    def test_waiting_writer_blocks_new_readers_and_wakes_on_last_exit(self):
        lock = _TopologyLock()
        lock.acquire_read()
        writer_in, writer_may_leave, reader_in = (
            threading.Event(), threading.Event(), threading.Event()
        )

        def writer():
            with lock.write():
                writer_in.set()
                writer_may_leave.wait(5)

        def late_reader():
            with lock.read():
                reader_in.set()

        threading.Thread(target=writer, daemon=True).start()
        deadline = time.monotonic() + 5
        while not lock._writers_waiting:
            assert time.monotonic() < deadline, "writer never queued"
            time.sleep(0.001)
        threading.Thread(target=late_reader, daemon=True).start()
        # Writer preference: a waiting writer holds new readers off.
        assert not reader_in.wait(0.05)
        assert not writer_in.is_set()
        lock.release_read()  # the last reader leaves: the writer wakes
        assert writer_in.wait(2), "the last reader's exit did not wake the writer"
        assert not reader_in.is_set()
        writer_may_leave.set()
        assert reader_in.wait(2)

    def test_contended_admission_accepts_exactly_the_depth(self):
        deadline = Deadline(20)
        service, store = make_service(shards=1, queue_depth=5)
        store.put("k", "v")
        start = threading.Barrier(8)
        replies = [[] for _ in range(8)]

        def client(mine):
            start.wait(5)
            for _ in range(4):
                mine.append(service.submit(ReadRequest("k")))

        threads = [
            threading.Thread(target=client, args=(r,), daemon=True) for r in replies
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(deadline.left())
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        replies = [reply for mine in replies for reply in mine]
        assert len(replies) == 32
        (pool,) = service._pools.values()
        assert pool.pending == 5
        service.close()
        answers = [r.result(timeout=deadline.left()) for r in replies]
        assert sum(a.status is Status.REJECTED for a in answers) == 27
        assert sum(a.ok and a.value == "v" for a in answers) == 5
        stats = service.stats()
        assert (stats.accepted, stats.rejected, stats.completed) == (5, 27, 5)

    def test_pending_count_survives_racing_submits_and_takes(self, monkeypatch):
        """Eight clients against two live workers and a depth of 4: every
        take must cancel its admission, or the count drifts and the pool
        either over-admits or rejects forever."""
        deadline = Deadline(30)
        service, store = make_service(shards=1, queue_depth=4, workers_per_shard=2)
        store.put("k", "v")
        service.start()
        answers = []

        def client():
            replies = [service.submit(ReadRequest("k")) for _ in range(100)]
            answers.extend(r.result(timeout=deadline.left()).status for r in replies)

        threads = [threading.Thread(target=client, daemon=True) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(deadline.left())
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        monkeypatch.setattr(server, "CLOSE_TIMEOUT_S", deadline.left())
        service.close()
        (pool,) = service._pools.values()
        assert pool.pending == 0
        stats = service.stats()
        assert stats.accepted + stats.rejected == len(answers) == 800
        assert stats.completed == stats.accepted == answers.count(Status.OK)

    def test_stop_sentinels_leave_the_pending_count_alone(self):
        service, store = make_service(shards=1, queue_depth=4, workers_per_shard=2)
        store.put("k", "v")
        replies = [service.submit(ReadRequest("k")) for _ in range(3)]
        (pool,) = service._pools.values()
        assert pool.pending == 3
        service.close()  # two stop sentinels follow the three reads
        assert all(r.result(timeout=5).ok for r in replies)
        assert pool.pending == 0

    def test_call_times_out_on_a_held_shard_lock_and_forgets_the_reply(self):
        service, store = make_service(shards=1, workers_per_shard=1)
        secret = "hand-off-timeout-sentinel"
        store.put("k", secret)
        service.start()
        shard_lock = service._shard_lock(store.shard_ids[0])
        with shard_lock:
            with pytest.raises(TimeoutError):
                service.call(ReadRequest("k"), timeout=0.05)
        # The caller abandoned its slot; the worker fills it all the same.
        deadline = time.monotonic() + 5
        while service.stats().completed < 1:
            assert time.monotonic() < deadline, "the worker never answered"
            time.sleep(0.001)
        assert _responses_holding(secret) == 0
        service.close()

    def test_close_racing_submit_never_strands_an_erase(self):
        """close() runs while a submit is between its routing and its
        enqueue: the erase is either answered 503 or drained — never
        queued behind the stop sentinels with no worker left to run it."""
        service, store = make_service(shards=1)
        store.put("k", "v")
        service.start()
        routed, release = threading.Event(), threading.Event()
        pool_for = service._pool_for

        def gated_pool_for(request):
            routed.set()
            release.wait(5)
            return pool_for(request)

        service._pool_for = gated_pool_for
        replies = []
        submitter = threading.Thread(
            target=lambda: replies.append(service.submit(EraseRequest("k"))),
            daemon=True,
        )
        submitter.start()
        assert routed.wait(5)
        closer = threading.Thread(target=service.close, daemon=True)
        closer.start()
        closer.join(0.2)
        release.set()
        submitter.join(5)
        closer.join(5)
        assert not submitter.is_alive() and not closer.is_alive()
        response = replies[0].result(timeout=2)
        stats = service.stats()
        assert stats.accepted == stats.completed
        if response.status is Status.SHUTTING_DOWN:
            assert store.read("k", use_cache=False) == "v"
        else:
            assert response.ok and response.verified_clean
            with pytest.raises(TupleNotFoundError):
                store.read("k", use_cache=False)

    def test_healthy_close_stops_every_thread_inside_its_deadline(
        self, monkeypatch
    ):
        """The deadline only bounds a wedged shutdown: a healthy one drains,
        stops the workers and the maintenance thread, and returns early."""
        monkeypatch.setattr(server, "CLOSE_TIMEOUT_S", 10.0)
        monkeypatch.setattr(server, "MAINTENANCE_INTERVAL_S", 0.001)
        service, store = make_service(shards=2, workers_per_shard=2)
        service.start()
        replies = [
            service.submit(CollectRequest(f"k{i}", "v", subject="s"))
            for i in range(20)
        ]
        started = time.monotonic()
        service.close()
        assert time.monotonic() - started < 5
        deadline = Deadline(5)
        assert all(reply.result(timeout=deadline.left()).ok for reply in replies)
        threads = [t for pool in service._pools.values() for t in pool.workers]
        assert len(threads) == 4
        assert service._maint_thread is not None
        for thread in threads + [service._maint_thread]:
            assert not thread.is_alive(), thread.name
        service.close()  # idempotent: no ShutdownTimeout on a clean service

    def test_close_names_a_worker_stuck_on_a_held_shard_lock(self, monkeypatch):
        """A wedged worker fails close() within its deadline, naming the
        thread and its stack, instead of hanging the suite."""
        monkeypatch.setattr(server, "CLOSE_TIMEOUT_S", 0.2)
        service, store = make_service(shards=1, workers_per_shard=1)
        store.put("k", "v")
        service.start()
        errors = []

        def close():
            try:
                service.close()
            except server.ShutdownTimeout as exc:
                errors.append(exc)

        with service._shard_lock(store.shard_ids[0]):
            reply = service.submit(ReadRequest("k"))
            closer = threading.Thread(target=close, daemon=True)
            started = time.monotonic()
            closer.start()
            closer.join(10)
            assert not closer.is_alive(), "close() hung:\n" + server._thread_stacks(
                threading.enumerate()
            )
        assert time.monotonic() - started < 5
        (error,) = errors
        message = str(error)
        assert "svc-shard0-w0" in message and "_do_read" in message
        # Released, the worker answers and exits; the service stays broken.
        assert reply.result(timeout=5).ok
        with pytest.raises(server.ShutdownTimeout):
            service.close()
        for thread in service._pools[store.shard_ids[0]].workers:
            thread.join(5)
            assert not thread.is_alive()


class TestStatsSnapshot:
    def test_stats_do_not_wait_for_the_topology_lock(self):
        """A stats snapshot reads only the service's own counters, so it
        returns while a resize or an invariant sweep holds the topology
        write lock."""
        service, _ = make_service()
        got = []
        with service._topology.write():
            reader = threading.Thread(target=lambda: got.append(service.stats()))
            reader.start()
            reader.join(timeout=5)
            assert not reader.is_alive(), "stats() waited for the topology lock"
        assert got and got[0].maintenance_ticks == 0

    def test_node_stats_count_the_merges_collects_run(self):
        """Collects through the service flush the lsm node's memtable, and
        each flush runs its merges; the node's stats detail — summed by the
        spine's harness — counts them."""
        store = ReplicatedStore.from_config(
            CostModel(SimClock(), CostBook()),
            StoreConfig(
                backend=BackendConfig(
                    backend="lsm", memtable_capacity=4, compaction="leveled"
                ),
                shards=1,
                n_replicas=0,
            ),
        )
        service = ComplianceService(store, autostart=False)
        service.start()
        # 32 collects = 8 flushed runs on the single node.
        for i in range(32):
            assert service.call(
                CollectRequest(f"k{i:03d}", i, subject="s")
            ).status is Status.CREATED
        service.close()
        (node,) = store.nodes()
        detail = dict(node.backend.stats().detail)
        assert detail["merges_run"] == node.backend.engine.merges_run > 0
        assert detail["bytes_compacted"] > 0


class TestMaintenanceTick:
    @pytest.mark.parametrize("backend", ["psql", "lsm", "crypto-shred"])
    def test_quiet_ticks_run_on_every_backend(self, backend):
        """A quiet tick flushes repairs on the store itself; a tick that
        raised would stop the thread and the tick count would stall."""
        cost = CostModel(SimClock(), CostBook())
        store = ReplicatedStore.from_config(
            cost,
            StoreConfig(
                backend=BackendConfig(backend=backend), shards=2, n_replicas=1
            ),
        )
        service = ComplianceService(store, invariants=store_invariants())
        for i in range(8):
            assert service.call(CollectRequest(f"k{i}", i, subject="s")).ok
        assert service.call(EraseRequest("k0")).verified_clean
        deadline = time.monotonic() + 10
        while service.stats().maintenance_ticks < 3:
            assert time.monotonic() < deadline, "maintenance thread stalled"
            time.sleep(0.005)
        service.close()
        assert service.violations == []


class TestEraseBatching:
    def test_shutdown_drains_staged_erases_in_batches(self):
        service, store = make_service(shards=1, queue_depth=32, erase_batch=8)
        keys = [f"k{i}" for i in range(12)]
        for key in keys:
            store.put(key, key)
        futures = [service.submit(EraseRequest(key)) for key in keys]
        # close() on a never-started service starts the workers first, so
        # the staged queue drains through the normal (batching) path.
        service.close()
        deadline = Deadline(10)
        for future in futures:
            response = future.result(timeout=deadline.left())
            assert response.ok and response.verified_clean
        for key in keys:
            with pytest.raises(TupleNotFoundError):
                store.read(key, use_cache=False)
        stats = service.stats()
        assert stats.erased_keys == 12
        # 12 consecutive erases with erase_batch=8 → far fewer erase_many
        # calls than keys (2 at best; timing may split one batch).
        assert stats.erase_batches < 12
        assert stats.erase_batches >= 2

    def test_non_erase_item_mid_drain_still_executes(self):
        service, store = make_service(shards=1, queue_depth=32, erase_batch=8)
        store.put("e1", 1)
        store.put("e2", 2)
        store.put("r", "read-me")
        f1 = service.submit(EraseRequest("e1"))
        f2 = service.submit(EraseRequest("e2"))
        f3 = service.submit(ReadRequest("r"))
        service.close()
        assert f1.result(5).ok and f2.result(5).ok
        assert f3.result(5).value == "read-me"


#: The smoke's workloads (YCSB-C, the erasure study) are read / erase mixes.
_REQUESTS = {OpKind.READ: ReadRequest, OpKind.DELETE: EraseRequest}


def drive_closed_loop(service, workload, clients, deadline):
    """Replay ``workload`` from ``clients`` threads, each sending its
    round-robin slice one request at a time and retrying a 429 after 1 ms.
    Returns per-kind outcome counts.  A read that meets another client's
    erase is a miss (the grounded-erase outcome), not an error; a reply
    still missing at the deadline is an error and ends its client."""
    totals = Counter()
    guard = threading.Lock()

    def client(ops):
        tally = Counter()
        try:
            for op in ops:
                request = _REQUESTS[op.kind](unit_key(op.key))
                response = service.call(request, timeout=deadline.left())
                while response.rejected and deadline.left():
                    time.sleep(0.001)
                    response = service.call(request, timeout=deadline.left())
                tally["ops"] += 1
                if response.rejected:
                    tally["rejected"] += 1
                elif op.kind is OpKind.READ:
                    tally["reads"] += 1
                    if not (response.ok or response.status is Status.NOT_FOUND):
                        tally["errors"] += 1
                else:
                    tally["erases"] += 1
                    if not response.ok:
                        tally["errors"] += 1
                    elif not response.verified_clean:
                        tally["unclean_erases"] += 1
        except TimeoutError:
            tally["errors"] += 1
        finally:
            with guard:
                totals.update(tally)

    threads = [
        threading.Thread(target=client, args=(workload.operations[i::clients],), daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(deadline.left())
    assert not any(thread.is_alive() for thread in threads), "a client hung"
    return totals


class TestConcurrentSmoke:
    @pytest.mark.parametrize(
        "make_workload, backend",
        [
            (erasure_study_workload, "lsm"),
            (erasure_study_workload, "psql"),
            (ycsb_c_workload, "lsm"),
        ],
        ids=["erasure_study-lsm", "erasure_study-psql", "ycsb_c-lsm"],
    )
    def test_eight_clients_erase_while_read_zero_violations(
        self, make_workload, backend
    ):
        # Deterministic workload (seeded); the interleaving itself is
        # real thread racing, checked by the invariant oracle.  ycsb_c
        # is read-only: the rebalance races reads and repairs alone.
        backend_config = (
            BackendConfig(backend="lsm", memtable_capacity=16)
            if backend == "lsm"
            else BackendConfig(backend=backend)
        )
        cost = CostModel(SimClock(), CostBook())
        store = ReplicatedStore.from_config(
            cost,
            StoreConfig(backend=backend_config, shards=3, n_replicas=1),
        )
        workload = make_workload(200, 240, seed=7)
        keys = load_store(store, workload)
        service = ComplianceService(
            store,
            config=ServiceConfig(
                workers_per_shard=2,
                queue_depth=16,
                erase_batch=8,
                invariant_check_every=2,
            ),
            invariants=store_invariants(),
            initial_live=keys,
        )
        service.begin_rebalance(4)
        report = drive_closed_loop(service, workload, clients=8, deadline=Deadline(30))
        # close() drains requests, not the rebalance: a fast load can
        # finish before the maintenance thread's last step.
        service.drain_rebalance()
        service.close()

        assert report["reads"] > 0
        assert (report["erases"] > 0) == (make_workload is erasure_study_workload)
        # Closed loop: every op resolved exactly once.
        assert report["ops"] == report["reads"] + report["erases"] + report["rejected"]
        assert report["errors"] == 0
        assert report["unclean_erases"] == 0
        assert service.rebalance_done
        assert service.violations == []
        stats = service.stats()
        assert stats.invariant_checks > 0
        assert stats.invariant_violations == 0
        assert stats.erase_batches <= stats.erased_keys

    def test_rebalance_already_running_raises(self):
        service, store = make_service(shards=2)
        for i in range(50):
            store.put(f"k{i}", i)
        service.start()
        service.begin_rebalance(3)
        with pytest.raises(RuntimeError, match="already in progress"):
            service.begin_rebalance(4)
        service.drain_rebalance()
        assert service.rebalance_done
        service.close()


class TestHttpTransport:
    def test_roundtrip(self):
        service, _ = make_service()
        service.start()
        server = serve_in_background(service)
        host, port = server.address
        base = f"http://{host}:{port}"

        def post(path, body):
            req = urllib.request.Request(
                base + path,
                data=json.dumps(body).encode(),
                headers={"Content-Type": "application/json"},
            )
            try:
                with urllib.request.urlopen(req) as r:
                    return r.status, json.loads(r.read())
            except urllib.error.HTTPError as e:
                return e.code, json.loads(e.read())

        code, _ = post("/collect", {"key": "k", "value": [1, "x"], "subject": "s"})
        assert code == 201
        code, body = post("/read", {"key": "k"})
        assert code == 200 and body["value"] == [1, "x"]
        code, body = post("/erase", {"key": "k"})
        assert code == 200 and body["verified_clean"] is True
        code, body = post("/read", {"key": "k"})
        assert code == 404
        code, body = post("/sar", {"subject": "s"})
        assert code == 200 and body["units"][0]["erased"] is True

        with urllib.request.urlopen(base + "/healthz") as r:
            assert r.status == 200
        with urllib.request.urlopen(base + "/stats") as r:
            stats = json.loads(r.read())
        assert stats["completed"] >= 4

        code, body = post("/nope", {"key": "k"})
        assert code == 404
        code, body = post("/read", {"wrong_field": 1})
        assert code == 400

        server.shutdown()
        server.server_close()
        service.close()
