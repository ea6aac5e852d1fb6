"""ComplianceService — the concurrent front door over a ReplicatedStore.

This is the paper's claim under true concurrency: grounded erasure, online
rebalancing, and read repair all hold while real threads race.  The
cooperative interleaving in :func:`repro.workloads.driver.run_interleaved`
simulates that contention; this module creates it.

Request lifecycle
-----------------
``submit()`` routes a typed request (:mod:`repro.service.api`) to the
bounded queue of its owning shard's worker pool.  A full queue rejects the
request *immediately* with ``Status.REJECTED`` (429) — admission control
bounds latency instead of queue depth growing without limit — and touches
nothing else: no store access, no audit event, no world bookkeeping.
Accepted requests resolve a :class:`concurrent.futures.Future` with a
:class:`Response` once a worker executes them.

Locking discipline (what G06 checks statically)
-----------------------------------------------
Two lock tiers, always acquired in the same order:

1. the **topology lock** — a writer-preference readers/writer lock.
   Request execution holds the *read* side (many requests in parallel);
   the maintenance thread holds the *write* side around every structural
   mutation: ``RebalanceDriver.step()``, ``flush_repairs()``, rebalance
   begin/finalize, and invariant evaluation.
2. **per-shard locks**, acquired in sorted shard-id order for every shard
   the key may touch (``ReplicatedStore.shards_involved`` — the
   dual-routing pair mid-rebalance), released before the topology read
   lock.

The discipline is *checkable* because the service never mutates the
store's watched shared state (``_shards``/``_ring``/``_rebalance``/
``_pending_repairs``) itself: every structural mutation flows through the
store's G06 seam methods (``_begin``/``_finalize``/``_spawn_shard``/
``_queue_repair``/``flush_repairs``), and the service only reaches those
seams from the maintenance thread while holding the topology write lock.
A new mutation site anywhere else fails the linter.

Erase batching
--------------
Workers opportunistically drain consecutive pending :class:`EraseRequest`s
from their own queue (up to ``ServiceConfig.erase_batch``) and run them as
one ``erase_many`` call — one reclamation pass per node per *batch*
instead of per key, the distributed amortization the engine batch helpers
already provide, now on the live request path.

Known benign races: the simulated :class:`~repro.sim.clock.SimClock` is
charged from many threads; increments on different shards may interleave,
which can under-count *simulated* time.  Wall-clock latency (what the
service reports) is unaffected, and per-shard ordering is preserved by the
shard locks.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import queue

from repro.analysis.invariants import RuntimeInvariant, World, check_invariants
from repro.config import ServiceConfig
from repro.distributed.ring import stable_hash
from repro.distributed.store import RebalanceDriver
from repro.service.api import (
    CollectRequest,
    EraseRequest,
    ReadRequest,
    Request,
    Response,
    SarRequest,
    SarUnit,
    Status,
    UpdateRequest,
)
from repro.storage.errors import TupleNotFoundError

_STOP = object()

#: Keys a maintenance tick migrates while a rebalance is active.
REBALANCE_STEP_KEYS = 32
#: Per-node merge-input byte budget of the bounded compaction slice a quiet
#: maintenance tick runs (deferred LSM backends).
COMPACTION_SLICE_BYTES = 1 << 20
#: Default ``call()`` timeout in seconds.
CALL_TIMEOUT_S = 30.0


class _TopologyLock:
    """Readers/writer lock with writer preference.

    Requests are readers (they never change topology); the maintenance
    thread is the writer.  Writer preference keeps a steady request stream
    from starving rebalance progress.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._readers_ok = threading.Condition(self._mutex)
        self._writers_ok = threading.Condition(self._mutex)
        self._readers = 0
        self._writers_waiting = 0
        self._writer_active = False

    def acquire_read(self) -> None:
        with self._mutex:
            while self._writer_active or self._writers_waiting:
                self._readers_ok.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._mutex:
            self._readers -= 1
            if self._readers == 0:
                self._writers_ok.notify()

    def acquire_write(self) -> None:
        with self._mutex:
            self._writers_waiting += 1
            while self._writer_active or self._readers:
                self._writers_ok.wait()
            self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._mutex:
            self._writer_active = False
            self._writers_ok.notify()
            self._readers_ok.notify_all()

    @contextmanager
    def read(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


@dataclass
class ServiceStats:
    """Counters the service maintains (snapshot via ``stats()``)."""

    accepted: int = 0
    rejected: int = 0
    completed: int = 0
    errors: int = 0
    erase_batches: int = 0
    erased_keys: int = 0
    maintenance_ticks: int = 0
    repairs: int = 0
    invariant_checks: int = 0
    invariant_violations: int = 0
    # Compaction throttle counters, aggregated from every shard node's
    # scheduler at snapshot time (zeros for stores without deferred
    # compaction).
    merges_run: int = 0
    bytes_compacted: int = 0
    stall_events: int = 0
    compaction_queue_depth: int = 0


class _Pool:
    """One shard's bounded admission queue plus its worker threads."""

    def __init__(self, shard_id: int, depth: int) -> None:
        self.shard_id = shard_id
        self.queue: "queue.Queue[Any]" = queue.Queue(maxsize=depth)
        self.workers: List[threading.Thread] = []


class ComplianceService:
    """Thread-safe compliance front door over a ReplicatedStore.

    Parameters
    ----------
    store:
        The :class:`~repro.distributed.store.ReplicatedStore` under
        service.  The service assumes exclusive ownership: all traffic and
        all maintenance must flow through it once ``start()`` runs.
    config:
        :class:`~repro.config.ServiceConfig` concurrency knobs.
    invariants:
        Optional registry from :func:`repro.analysis.invariants
        .store_invariants` — turns the service into its own oracle: a
        :class:`World` tracks what the service believes live/erased, and
        the registry runs under the topology write lock (periodically via
        ``invariant_check_every``, always at ``close()``).
    initial_live:
        Keys loaded into the store before the service took ownership
        (``load_store``), seeded into the world's live set.
    autostart:
        Start worker pools and the maintenance thread immediately.
        Tests pass ``False`` to stage deterministic queue states.
    """

    def __init__(
        self,
        store: Any,
        config: Optional[ServiceConfig] = None,
        invariants: Optional[Sequence[RuntimeInvariant]] = None,
        initial_live: Iterable[Any] = (),
        autostart: bool = True,
    ) -> None:
        self._store = store
        self.config = config or ServiceConfig()
        self._topology = _TopologyLock()
        self._shard_locks: Dict[int, threading.Lock] = {}
        self._shard_locks_guard = threading.Lock()
        self._pools: Dict[int, _Pool] = {}
        self._pools_guard = threading.Lock()
        self._subjects: Dict[str, set] = {}
        self._subjects_guard = threading.Lock()
        self._stats = ServiceStats()
        self._stats_guard = threading.Lock()
        self._invariants = list(invariants) if invariants is not None else None
        self._world: Optional[World] = None
        if self._invariants is not None:
            self._world = World.observe(store)
            self._world.live.update(initial_live)
        #: Distinct invariant-violation messages observed (write-lock-held
        #: appends only).
        self.violations: List[str] = []
        self._driver: Optional[Any] = None
        self._maint_stop = threading.Event()
        self._maint_thread: Optional[threading.Thread] = None
        self._started = False
        self._closed = False
        if autostart:
            self.start()

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Start worker pools for the current shards and the maintenance
        thread.  Idempotent."""
        if self._started:
            return
        self._started = True
        with self._pools_guard:
            for shard_id in self._store.shard_ids:
                self._ensure_pool_locked(shard_id)
            for pool in self._pools.values():
                self._start_workers(pool)
        self._maint_thread = threading.Thread(
            target=self._maintain, name="svc-maintenance", daemon=True
        )
        self._maint_thread.start()

    def close(self) -> None:
        """Drain and stop: every accepted request executes before the
        workers exit — an in-flight grounded erase always completes (no
        half-grounded unit), then repairs flush and the final invariant
        sweep runs.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if not self._started:
            # Never started: start now so staged queues drain through the
            # same worker path (erase batching included).
            self._closed = False
            self.start()
            self._closed = True
        with self._pools_guard:
            pools = list(self._pools.values())
        for pool in pools:
            for _ in pool.workers:
                pool.queue.put(_STOP)
        for pool in pools:
            for worker in pool.workers:
                worker.join()
        self._maint_stop.set()
        if self._maint_thread is not None:
            self._maint_thread.join()
        with self._topology.write():
            repairs = len(self._store.flush_repairs())
            if repairs:
                with self._stats_guard:
                    self._stats.repairs += repairs
            if self._invariants is not None:
                self._check_invariants_locked()

    def __enter__(self) -> "ComplianceService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------- admission
    def submit(self, request: Request) -> "Future[Response]":
        """Route the request to its shard pool.  Returns immediately: a
        full queue (or a closed service) resolves the future right here
        with a 429/503 — by design the rejection path performs **no**
        store access, audit action, or world bookkeeping."""
        future: "Future[Response]" = Future()
        if self._closed:
            future.set_result(
                Response(Status.SHUTTING_DOWN, error="service is closed")
            )
            with self._stats_guard:
                self._stats.rejected += 1
            return future
        pool = self._pool_for(request)
        try:
            pool.queue.put_nowait((request, future))
        except queue.Full:
            with self._stats_guard:
                self._stats.rejected += 1
            future.set_result(
                Response(
                    Status.REJECTED,
                    error=f"shard {pool.shard_id} admission queue full "
                    f"(depth {self.config.queue_depth})",
                )
            )
        else:
            with self._stats_guard:
                self._stats.accepted += 1
        return future

    def call(self, request: Request, timeout: float = CALL_TIMEOUT_S) -> Response:
        """Synchronous ``submit`` — the closed-loop client path."""
        return self.submit(request).result(timeout)

    # ------------------------------------------------------------ rebalance
    def begin_rebalance(
        self,
        shards: int,
        batch_size: int = 64,
        weights: Optional[Any] = None,
    ) -> Any:
        """Start a background resize; the maintenance thread steps it
        ``REBALANCE_STEP_KEYS`` keys per tick, racing live requests."""
        with self._topology.write():
            if self._driver is not None and not self._driver.done:
                raise RuntimeError("a rebalance is already in progress")
            driver = RebalanceDriver(
                self._store.begin_resize(
                    shards, batch_size=batch_size, weights=weights
                )
            )
            self._driver = driver
            if self._world is not None:
                self._world.driver = driver
                self._world.moved_at_attach = driver.rebalance.keys_moved
        return driver

    def drain_rebalance(self) -> None:
        """Drive an active rebalance to completion (new shards get worker
        pools as their first requests route to them)."""
        while True:
            with self._topology.write():
                driver = self._driver
                if driver is None or driver.done:
                    return
                driver.step(REBALANCE_STEP_KEYS)

    @property
    def rebalance_done(self) -> bool:
        with self._topology.write():
            return self._driver is None or self._driver.done

    # ------------------------------------------------------------ inspection
    def stats(self) -> ServiceStats:
        with self._topology.read():
            comp = self._store.compaction_stats()
        with self._stats_guard:
            snapshot = replace(self._stats)
        snapshot.merges_run = comp.merges_run
        snapshot.bytes_compacted = comp.bytes_compacted
        snapshot.stall_events = comp.stall_events
        snapshot.compaction_queue_depth = comp.queue_depth
        return snapshot

    def check_invariants(self) -> List[str]:
        """Run the registry now (topology write lock held — a quiescent
        point between request executions)."""
        if self._invariants is None:
            return []
        with self._topology.write():
            return self._check_invariants_locked()

    @property
    def world(self) -> Optional[World]:
        return self._world

    # ---------------------------------------------------------- worker pools
    def _pool_for(self, request: Request) -> _Pool:
        key = getattr(request, "key", None)
        with self._topology.read():
            if key is not None:
                shard_id = self._store.shard_of(key)
            else:
                ids = self._store.shard_ids
                shard_id = ids[stable_hash(request.subject) % len(ids)]
        with self._pools_guard:
            return self._ensure_pool_locked(shard_id)

    def _ensure_pool_locked(self, shard_id: int) -> _Pool:
        pool = self._pools.get(shard_id)
        if pool is None:
            pool = _Pool(shard_id, self.config.queue_depth)
            self._pools[shard_id] = pool
            if self._started:
                self._start_workers(pool)
        return pool

    def _start_workers(self, pool: _Pool) -> None:
        for i in range(self.config.workers_per_shard):
            worker = threading.Thread(
                target=self._worker,
                args=(pool,),
                name=f"svc-shard{pool.shard_id}-w{i}",
                daemon=True,
            )
            pool.workers.append(worker)
            worker.start()

    def _worker(self, pool: _Pool) -> None:
        while True:
            item = pool.queue.get()
            if item is _STOP:
                return
            request, future = item
            if isinstance(request, EraseRequest):
                batch = [item]
                carried = None
                saw_stop = False
                # Opportunistic batching: drain consecutive pending erases
                # so one erase_many call amortizes the reclamation pass.
                while len(batch) < self.config.erase_batch:
                    try:
                        nxt = pool.queue.get_nowait()
                    except queue.Empty:
                        break
                    if nxt is _STOP:
                        saw_stop = True
                        break
                    if isinstance(nxt[0], EraseRequest):
                        batch.append(nxt)
                    else:
                        carried = nxt
                        break
                self._run_erase_batch(batch)
                if carried is not None:
                    self._run_one(*carried)
                if saw_stop:
                    return
            else:
                self._run_one(request, future)

    # ------------------------------------------------------------- execution
    def _shard_lock(self, shard_id: int) -> threading.Lock:
        with self._shard_locks_guard:
            lock = self._shard_locks.get(shard_id)
            if lock is None:
                lock = threading.Lock()
                self._shard_locks[shard_id] = lock
            return lock

    @contextmanager
    def _locked_shards(self, keys: Iterable[Any]) -> Iterator[None]:
        """Per-shard locks for every shard the keys may touch, acquired in
        sorted shard-id order (deadlock-free).  Caller must already hold
        the topology read lock."""
        involved: set = set()
        for key in keys:
            involved.update(self._store.shards_involved(key))
        locks = [self._shard_lock(shard_id) for shard_id in sorted(involved)]
        for lock in locks:
            lock.acquire()
        try:
            yield
        finally:
            for lock in reversed(locks):
                lock.release()

    def _run_one(self, request: Request, future: "Future[Response]") -> None:
        try:
            if isinstance(request, ReadRequest):
                response = self._do_read(request)
            elif isinstance(request, CollectRequest):
                response = self._do_collect(request)
            elif isinstance(request, UpdateRequest):
                response = self._do_update(request)
            elif isinstance(request, SarRequest):
                response = self._do_sar(request)
            else:
                response = Response(
                    Status.BAD_REQUEST,
                    error=f"unsupported request type {type(request).__name__}",
                )
        except TupleNotFoundError:
            response = Response(
                Status.NOT_FOUND, error=f"key {request.key!r} not found"
            )
        except Exception as exc:  # a request must never kill its worker
            response = Response(
                Status.ERROR, error=f"{type(exc).__name__}: {exc}"
            )
        with self._stats_guard:
            self._stats.completed += 1
            if response.status in (Status.ERROR, Status.BAD_REQUEST):
                self._stats.errors += 1
        future.set_result(response)

    def _do_read(self, request: ReadRequest) -> Response:
        with self._topology.read():
            with self._locked_shards([request.key]):
                value = self._store.read(
                    request.key,
                    use_cache=False,
                    consistency=request.consistency,
                )
        return Response(Status.OK, value=value)

    def _do_collect(self, request: CollectRequest) -> Response:
        with self._topology.read():
            with self._locked_shards([request.key]):
                self._store.put(request.key, request.value)
                if self._world is not None:
                    self._world.record_write(request.key)
        with self._subjects_guard:
            self._subjects.setdefault(request.subject, set()).add(request.key)
        return Response(Status.CREATED)

    def _do_update(self, request: UpdateRequest) -> Response:
        with self._topology.read():
            with self._locked_shards([request.key]):
                self._store.update(request.key, request.value)
                if self._world is not None:
                    self._world.record_write(request.key)
        return Response(Status.OK)

    def _do_sar(self, request: SarRequest) -> Response:
        with self._subjects_guard:
            keys = sorted(self._subjects.get(request.subject, ()))
        units: List[SarUnit] = []
        for key in keys:
            with self._topology.read():
                with self._locked_shards([key]):
                    try:
                        value = self._store.read(key, use_cache=False)
                    except TupleNotFoundError:
                        # Erased (or reversibly inaccessible) — §3.1:
                        # disclose existence, never the value.
                        units.append(SarUnit(key, None, erased=True))
                    else:
                        units.append(SarUnit(key, value, erased=False))
        return Response(Status.OK, value=tuple(units))

    def _run_erase_batch(self, batch: List[Tuple[EraseRequest, Any]]) -> None:
        keys = [request.key for request, _ in batch]
        try:
            with self._topology.read():
                with self._locked_shards(keys):
                    report = self._store.erase_many(keys)
                    if self._world is not None:
                        for key in keys:
                            self._world.record_erase(key, report)
        except Exception as exc:
            response = Response(
                Status.ERROR, error=f"{type(exc).__name__}: {exc}"
            )
            with self._stats_guard:
                self._stats.completed += len(batch)
                self._stats.errors += len(batch)
            for _, future in batch:
                future.set_result(response)
            return
        response = Response(Status.OK, verified_clean=report.verified_clean)
        with self._stats_guard:
            self._stats.completed += len(batch)
            self._stats.erase_batches += 1
            self._stats.erased_keys += len(keys)
        for _, future in batch:
            future.set_result(response)

    # ----------------------------------------------------------- maintenance
    def _maintain(self) -> None:
        while not self._maint_stop.wait(self.config.maintenance_interval):
            with self._topology.write():
                self._maintenance_tick_locked()

    def _maintenance_tick_locked(self) -> None:
        driver = self._driver
        if driver is not None and not driver.done:
            before = len(driver.repairs)
            driver.step(REBALANCE_STEP_KEYS)
            repairs = len(driver.repairs) - before
        else:
            repairs = len(self._store.flush_repairs())
            # A quiet tick also pays one bounded compaction slice, so
            # deferred LSM backends drain between requests instead of
            # stalling a writer (same interleaving contract as the
            # rebalance driver's bounded step).
            self._store.maintain(max_bytes=COMPACTION_SLICE_BYTES)
        with self._stats_guard:
            self._stats.maintenance_ticks += 1
            self._stats.repairs += repairs
            ticks = self._stats.maintenance_ticks
        every = self.config.invariant_check_every
        if every and self._invariants is not None and ticks % every == 0:
            self._check_invariants_locked()

    def _check_invariants_locked(self) -> List[str]:
        violations = check_invariants(self._world, self._invariants)
        messages = [str(v) for v in violations]
        for message in messages:
            if message not in self.violations:
                self.violations.append(message)
        with self._stats_guard:
            self._stats.invariant_checks += len(self._invariants)
            self._stats.invariant_violations += len(violations)
        return messages
