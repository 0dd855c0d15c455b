"""Multi-machine serving: replicated shard workers, recovery, failover.

PR 2 sharded the database across worker *processes* on one box; this
module fans the same stack out across *machines*, still speaking the one
framed-message protocol from :mod:`repro.api.transport`:

* :class:`ShardWorker` — a standalone TCP server hosting one or more
  *logical shards*, each a local
  :class:`~repro.api.service.SimilarityService`. It boots empty; a
  coordinator's ``join`` handshake ships the backend (via
  ``backend_state``, the same representation snapshots use), the index
  recipe, and the shard assignment, after which the worker answers the
  shard-addressed commands (``add``/``knn``/``pairwise``/``export``/
  ``host``/``ping``/``leave``). The CLI wrapper is
  ``python -m repro cluster-worker``;
* :class:`ClusterCoordinator` — connects to N workers, joins each one,
  deals the database across the *logical shards*, and merges per-shard
  top-k with the exact frontier certificate shared with
  :class:`~repro.api.serving.ShardedSimilarityService` (via
  :class:`~repro.api.serving.ShardMergeMixin`) — bit-identical to a
  single service for exact indexes, recall-≥ for IVF. It satisfies the
  :class:`~repro.api.protocols.KnnService` protocol, so ``QueryQueue``,
  ``SimilarityServer`` and both remote clients compose with it unchanged
  (``python -m repro cluster`` is exactly that composition).

Fault tolerance (``replication=R``): each logical shard is placed on R
distinct workers. ``add`` writes to every replica and commits on the
first ack; a replica that missed a committed write gets it recorded in a
bounded per-shard *catch-up log*. Queries route to one healthy replica
per shard and fail over mid-request — a worker that dies between frames
is degraded in place and its shards are re-asked on the surviving
replicas, so a kill mid-traffic costs zero failed queries and the
answers stay bit-identical (replicas hold byte-identical shard state by
construction). Only when *every* replica of a shard is down does a query
raise :class:`~repro.api.serving.ShardLostError`; an unreplicated
cluster (R=1) keeps the legacy capacity-loss semantics instead (the
degraded shard is skipped and reported via ``stats()``).

Recovery: :meth:`ClusterCoordinator.rejoin` brings a restarted worker
back — it is re-identified by worker id, restored from a healthy replica
(authoritative ``export``/re-``add``), or, when none exists, from the
latest snapshot plus the catch-up log, then promoted from degraded back
to up. The heartbeat loop additionally *re-replicates* in the
background: a shard below R healthy copies is exported onto a spare
worker, so replication heals without operator action. ``add`` deals
each trajectory to the currently-smallest eligible shard (ties broken by
shard id — identical to round-robin when balanced), which doubles as
skew-triggered rebalancing when shards drift apart.

Fault injection: pass ``chaos=`` (a :class:`~repro.api.chaos.ChaosConfig`
or a ``"seed=7,drop=0.05"`` spec string) and every worker link is wrapped
in a deterministic :class:`~repro.api.chaos.ChaosTransport`; the CLI
exposes this as ``repro cluster --chaos``.

Sharded snapshots: :meth:`ClusterCoordinator.save` writes one ``.npz``
per shard plus a JSON manifest (shard count, backend config, index kind,
format version) and ``backend.npz``; :meth:`ClusterCoordinator.load`
rebuilds a cluster from the manifest against a *different* worker count
by reassigning the shard files, global ids preserved. Quickstart::

    from repro.api.cluster import ClusterCoordinator, ShardWorker

    workers = [ShardWorker() for _ in range(3)]      # or three machines
    with ClusterCoordinator([w.address for w in workers],
                            backend="hausdorff", replication=2) as cluster:
        cluster.add(trajectories)
        workers[0].close()                           # kill one mid-traffic
        distances, ids = cluster.knn(trajectories[0], k=5, exclude=0)
        cluster.rejoin("worker-0", address=replacement.address)
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..trajectory import as_points
from ..trajectory.trajectory import TrajectoryLike
from .backends import backend_state, restore_backend
from .chaos import ChaosConfig, ChaosTransport
from .protocols import SimilarityBackend, as_backend
from .indexes import index_is_exact
from .registry import get_backend
from .remote import (
    ThreadedNodeServer,
    install_signal_shutdown,
    parse_address,
    write_ready_file,
)
from .service import SimilarityService, _default_index_for
from .serving import (
    ShardLostError,
    ShardMergeMixin,
    _as_batch,
    freeze_shard_ids,
    merge_cache_counters,
)
from .transport import (
    OK,
    RemoteCallError,
    SocketTransport,
    TransportClosed,
    TransportError,
    merge_transport_stats,
    request,
)

__all__ = ["ShardWorker", "ClusterCoordinator", "run_worker",
           "SNAPSHOT_FORMAT_VERSION", "MANIFEST_NAME"]

#: version stamp of the sharded snapshot layout (manifest + shard files)
SNAPSHOT_FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
_BACKEND_FILE = "backend.npz"
_SNAPSHOT_KIND = "repro-cluster-snapshot"


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
class ShardWorker(ThreadedNodeServer):
    """One cluster worker: a TCP server hosting logical shards.

    Boots with no shards; the coordinator's ``join`` carries the backend
    state, the index recipe, and the shard assignment, and (re)builds
    one local service per assigned shard — a later ``join`` from a new
    coordinator replaces everything, ``leave`` drops it, ``host`` adds
    empty shards (the re-replication path). Shard commands address
    shards explicitly (``add`` maps ``{shard: points}``, ``knn`` asks
    ``(shards, (queries, fetch))``), so one worker can serve several
    replicas without ever pooling their ids.

    Connections are independent (the coordinator keeps one for requests
    and one for heartbeats); shard commands are serialized through one
    lock, while ``ping`` and ``shutdown`` stay lock-free — a heartbeat
    must answer even while a long ``add``/``knn`` holds the shards busy,
    so only a *dead* worker (process or link gone) is ever failed over,
    never a merely slow one.

    ``port=0`` binds an ephemeral port; read :attr:`address` after
    construction. ``close()`` is abrupt by design: open connections drop,
    and the coordinator treats the hangup exactly like a crashed worker.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 backlog: int = 16):
        self._lock = threading.Lock()
        self._services: Dict[int, SimilarityService] = {}
        self._recipe: Optional[Dict] = None
        self._worker_id: Optional[str] = None
        super().__init__(host, port, backlog=backlog)

    def _thread_name(self) -> str:
        return f"repro-shard-worker:{self.address[1]}"

    def _build_service(self) -> SimilarityService:
        recipe = self._recipe
        if recipe is None:
            raise RuntimeError(
                "worker holds no shard; the coordinator must send "
                "'join' first"
            )
        backend_meta, backend_arrays = recipe["backend"]
        return SimilarityService(
            backend=restore_backend(backend_meta, dict(backend_arrays)),
            index=recipe.get("index"),
            index_kwargs=recipe.get("index_kwargs"),
            **(recipe.get("service_kwargs") or {}),
        )

    def _handlers(self) -> Dict:
        def service_for(shard) -> SimilarityService:
            service = self._services.get(int(shard))
            if service is None:
                raise RuntimeError(
                    f"worker hosts no shard {shard}; the coordinator must "
                    "send 'join' (or 'host') first"
                )
            return service

        def handle_join(payload):
            self._recipe = {
                "backend": payload["backend"],
                "index": payload.get("index"),
                "index_kwargs": payload.get("index_kwargs"),
                "service_kwargs": payload.get("service_kwargs"),
            }
            self._worker_id = payload.get("worker_id")
            shards = payload.get("shards")
            if shards is None:
                shards = [0]
            # A re-join replaces the hosted shards wholesale (the dict is
            # swapped, never mutated, so the lock-free ping can iterate a
            # stable snapshot).
            self._services = {int(s): self._build_service() for s in shards}
            return {"pid": os.getpid(), "worker_id": self._worker_id,
                    "sizes": {s: len(svc)
                              for s, svc in self._services.items()}}

        def handle_host(shards):
            if self._recipe is None:
                raise RuntimeError(
                    "worker holds no shard; the coordinator must send "
                    "'join' first"
                )
            services = dict(self._services)
            for shard in shards:
                if int(shard) not in services:
                    services[int(shard)] = self._build_service()
            self._services = services
            return {s: len(svc) for s, svc in self._services.items()}

        def handle_leave(_payload):
            self._services = {}
            self._recipe = None
            return None

        def handle_ping(_payload):
            services = self._services  # swapped wholesale, safe to iterate
            return {"joined": bool(services),
                    "worker_id": self._worker_id,
                    "size": sum(len(s) for s in services.values())}

        def handle_add(payload):
            sizes = {}
            for shard, points in payload.items():
                service = service_for(shard)
                service.add(points)
                sizes[shard] = len(service)
            return sizes

        def handle_knn(payload):
            shards, (queries, fetch) = payload
            out = {}
            for shard in shards:
                service = service_for(shard)
                if len(service) == 0:
                    # An empty shard (database smaller than the cluster)
                    # contributes an all-padding pool.
                    out[shard] = (
                        np.full((len(queries), fetch), np.inf),
                        np.full((len(queries), fetch), -1, dtype=np.int64))
                else:
                    # No exclude/dedupe here: the coordinator filters after
                    # the merge, where global ids are known.
                    out[shard] = service.knn(queries, k=fetch)
            return out

        def handle_pairwise(payload):
            shards, queries = payload
            return {shard: service_for(shard).pairwise(queries)
                    for shard in shards}

        def handle_export(payload):
            shards, _ = payload
            if shards is None:
                shards = sorted(self._services)
            return {shard: list(service_for(shard).trajectories)
                    for shard in shards}

        def handle_len(_payload):
            return sum(len(s) for s in self._services.values())

        def handle_stats(_payload):
            services = self._services
            info: Dict = {
                "type": type(self).__name__,
                "joined": bool(services),
                "pid": os.getpid(),
                "worker_id": self._worker_id,
                "shards": {s: len(svc) for s, svc in services.items()},
                "size": sum(len(svc) for svc in services.values()),
            }
            if services:
                per_service = [svc.stats() for svc in services.values()]
                first = per_service[0]
                for key in ("backend", "kind", "index"):
                    if key in first:
                        info[key] = first[key]
                info["cache"] = merge_cache_counters(
                    [s["cache"] for s in per_service if "cache" in s])
            return info

        def handle_shutdown(_payload):
            self._shutdown.set()
            return None

        locked = {name: self._locked(fn) for name, fn in {
            "join": handle_join,
            "host": handle_host,
            "leave": handle_leave,
            "add": handle_add,
            "knn": handle_knn,
            "pairwise": handle_pairwise,
            "export": handle_export,
            "len": handle_len,
            "stats": handle_stats,
        }.items()}
        # ping/shutdown bypass the shard lock: liveness checks and kill
        # switches must answer while a long request holds the shards busy
        # (they only read or flip flag state).
        return {**locked, "ping": handle_ping, "shutdown": handle_shutdown}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop serving and drop open connections (idempotent)."""
        super().close(abort_connections=True)

    def __enter__(self) -> "ShardWorker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "listening"
        if not self._services:
            hosted = "no shards"
        else:
            hosted = (f"shards {sorted(self._services)} of "
                      f"{sum(len(s) for s in self._services.values())}")
        return (f"ShardWorker({self.address[0]}:{self.address[1]}, "
                f"{state}, {hosted})")


def run_worker(host: str = "127.0.0.1", port: int = 0,
               ready_file: Optional[str] = None) -> int:
    """Boot a :class:`ShardWorker` and serve until shutdown (the CLI body)."""
    worker = ShardWorker(host, port)
    # SIGTERM runs the same graceful shutdown as Ctrl-C / a coordinator's
    # shutdown command, so launcher teardown never needs terminate→kill.
    install_signal_shutdown(worker.shutdown)
    bound_host, bound_port = worker.address
    print(f"cluster worker listening on {bound_host}:{bound_port}",
          flush=True)
    # Off-machine callers rely on the coordinator's connect retries.
    write_ready_file(ready_file, worker.address)
    try:
        worker.serve_forever()
    except KeyboardInterrupt:
        worker.close()
    return 0


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
class _WorkerLink:
    """Coordinator-side state for one shard worker."""

    __slots__ = ("worker", "worker_id", "address", "transport", "heartbeat",
                 "alive", "reason", "shards", "catchup", "catchup_overflow")

    def __init__(self, worker: int, address: Tuple[str, int],
                 shards: Sequence[int]):
        self.worker = worker
        self.worker_id = f"worker-{worker}"
        self.address = address
        self.transport = None
        self.heartbeat = None
        self.alive = False
        self.reason: Optional[str] = None
        #: logical shards this worker hosts (mirrors coordinator placement)
        self.shards: List[int] = list(shards)
        #: per-shard (global_id, points) adds committed while this worker
        #: was down — replayed on rejoin, bounded by catchup_limit
        self.catchup: Dict[int, deque] = {}
        #: shards whose catch-up log overflowed (replay no longer possible)
        self.catchup_overflow: Set[int] = set()

    @property
    def label(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"


class ClusterCoordinator(ShardMergeMixin):
    """kNN serving over a database partitioned across remote shard workers.

    The multi-machine sibling of
    :class:`~repro.api.serving.ShardedSimilarityService`: trajectories
    are dealt across ``len(workers)`` logical shards (each placed on
    ``replication`` distinct workers), the backend ships once per worker
    in the ``join`` handshake, and queries merge per-shard top-k through
    the shared :class:`~repro.api.serving.ShardMergeMixin` —
    bit-identical to a single
    :class:`~repro.api.service.SimilarityService` for exact shard
    indexes, recall-≥ for IVF.

    ``heartbeat_interval > 0`` starts a background pinger; a worker whose
    process or link has died (pings answer lock-free on the worker, so a
    busy shard never trips this) is marked degraded within
    ``heartbeat_timeout`` and failed over — in-flight requests against it
    unblock and re-route to the surviving replicas instead of hanging.
    With ``replication >= 2`` the same loop also re-replicates
    under-copied shards onto spare workers. Worker RPC is serialized
    through an internal lock, so ``stats()`` from a monitoring thread can
    never interleave frames with a query in flight; for concurrent
    *callers*, put a :class:`~repro.api.serving.QueryQueue` or
    :class:`~repro.api.remote.SimilarityServer` in front — both compose
    unchanged because the coordinator satisfies
    :class:`~repro.api.protocols.KnnService`.
    """

    def __init__(
        self,
        workers: Sequence[Union[str, Tuple[str, int]]],
        backend: Union[str, SimilarityBackend, object] = "trajcl",
        index: Optional[str] = None,
        *,
        replication: int = 1,
        backend_kwargs: Optional[Dict] = None,
        index_kwargs: Optional[Dict] = None,
        batch_size: int = 256,
        cache_size: int = 4096,
        heartbeat_interval: float = 2.0,
        heartbeat_timeout: float = 10.0,
        connect_retries: int = 5,
        retry_wait: float = 0.1,
        shutdown_workers_on_close: bool = False,
        chaos: Union[ChaosConfig, str, None] = None,
        catchup_limit: int = 4096,
        rereplicate: bool = True,
    ):
        addresses = [parse_address(worker) for worker in workers]
        if not addresses:
            raise ValueError("workers must name at least one host:port")
        replication = int(replication)
        if not 1 <= replication <= len(addresses):
            raise ValueError(
                f"replication must be between 1 and the worker count "
                f"({len(addresses)}), got {replication}")
        if index is not None and not isinstance(index, str):
            raise TypeError(
                "cluster workers build one index each; pass the index by "
                "name (or None for the backend's default)"
            )
        if isinstance(backend, str):
            backend = get_backend(backend, **(backend_kwargs or {}))
        else:
            backend = as_backend(backend)
        self.backend = backend
        if index is None:
            index = _default_index_for(backend)
        self.index_name = index
        self._exact_shards = index_is_exact(index)
        self._index_kwargs = index_kwargs
        self._batch_size = int(batch_size)
        self._cache_size = int(cache_size)
        self.heartbeat_interval = float(heartbeat_interval or 0.0)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.shutdown_workers_on_close = bool(shutdown_workers_on_close)
        self.replication = replication
        self._connect_retries = int(connect_retries)
        self._connect_wait = float(retry_wait)
        self._catchup_limit = int(catchup_limit)
        self._rereplicate_enabled = bool(rereplicate)
        self._rereplications = 0
        self._chaos = (ChaosConfig.from_spec(chaos)
                       if isinstance(chaos, str) else chaos)
        self._chaos_children = 0
        self._last_snapshot: Optional[str] = None
        self._route_counter = 0
        self._num_shards = len(addresses)
        # shard s lives on workers placement[s] (R distinct, ring layout);
        # re-replication and rejoin keep this and link.shards in step.
        self._placement: List[List[int]] = [
            [(s + j) % len(addresses) for j in range(replication)]
            for s in range(self._num_shards)]
        self._shard_ids: List[List[int]] = [[] for _ in range(self._num_shards)]
        # Per-shard id arrays the query path reads; refreshed on add.
        self._shard_id_arrays: List[np.ndarray] = [
            freeze_shard_ids(()) for _ in range(self._num_shards)]
        self._size = 0
        self._closed = False
        self._stop = threading.Event()
        self._heartbeat_thread: Optional[threading.Thread] = None
        # Serializes every exchange on the request transports: a stats()
        # probe (e.g. a server's handler thread) must never interleave
        # frames with a query another thread has in flight.
        self._rpc_lock = threading.Lock()
        self._links = [
            _WorkerLink(worker, address,
                        [s for s in range(self._num_shards)
                         if worker in self._placement[s]])
            for worker, address in enumerate(addresses)]

        try:
            for link in self._links:
                link.transport = self._new_transport(link.address)
                link.heartbeat = self._new_transport(link.address)
                request(link.transport, "join", self._join_payload(link),
                        who=f"cluster worker {link.label}")
                link.alive = True
        except (TransportError, RemoteCallError):
            self.close()
            raise
        if self.heartbeat_interval > 0:
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop, daemon=True,
                name="repro-cluster-heartbeat",
            )
            self._heartbeat_thread.start()

    # ------------------------------------------------------------------
    # Connections / placement
    # ------------------------------------------------------------------
    def _new_transport(self, address: Tuple[str, int]):
        transport = SocketTransport.connect(
            *address, retries=self._connect_retries,
            retry_wait=self._connect_wait)
        if self._chaos is not None and self._chaos.active:
            # Distinct per-connection seed: the fault schedules of
            # different links are decorrelated but still reproducible.
            self._chaos_children += 1
            transport = ChaosTransport(
                transport, self._chaos.spawn(self._chaos_children))
        return transport

    def _join_payload(self, link: _WorkerLink) -> Dict:
        meta, arrays = backend_state(self.backend)  # wire-portable form
        return {
            "backend": (meta, arrays),
            "index": self.index_name,
            "index_kwargs": self._index_kwargs,
            "service_kwargs": {"batch_size": self._batch_size,
                               "cache_size": self._cache_size},
            "shards": list(link.shards),
            "worker_id": link.worker_id,
        }

    @property
    def num_workers(self) -> int:
        return len(self._links)

    @property
    def degraded_shards(self) -> List[int]:
        """Shards with *zero* healthy replicas (their data is unreachable)."""
        return [s for s in range(self._num_shards) if not self._replicas(s)]

    @property
    def underreplicated_shards(self) -> List[int]:
        """Shards still served but below the configured replication."""
        return [s for s in range(self._num_shards)
                if 0 < len(self._replicas(s)) < self.replication]

    @property
    def shard_sizes(self) -> List[int]:
        with self._rpc_lock:  # atomic with the add() commit
            return [len(ids) for ids in self._shard_ids]

    def _replicas(self, shard: int) -> List[_WorkerLink]:
        """Alive links hosting ``shard``, in placement order."""
        return [self._links[w] for w in self._placement[shard]
                if self._links[w].alive]

    def _pick_replica(self, shard: int,
                      exclude: Sequence[int] = ()) -> Optional[_WorkerLink]:
        candidates = [link for link in self._replicas(shard)
                      if link.worker not in exclude]
        if not candidates:
            return None
        # Rotate reads across replicas so load spreads; deterministic in
        # the call sequence, and irrelevant to results (replicas hold
        # byte-identical shard state).
        return candidates[self._route_counter % len(candidates)]

    def _resolve_link(self, worker) -> _WorkerLink:
        if isinstance(worker, int):
            return self._links[worker]
        for link in self._links:
            if link.worker_id == worker:
                return link
        try:
            address = parse_address(worker)
        except (TypeError, ValueError):
            address = None
        if address is not None:
            for link in self._links:
                if link.address == address:
                    return link
        raise KeyError(f"no cluster worker {worker!r}")

    def _degrade(self, link: _WorkerLink, reason: str) -> None:
        """Mark a worker dead and sever its channels (idempotent).

        Closing the request transport also unblocks any caller currently
        waiting on that worker — its ``recv`` raises instead of hanging,
        and the query re-routes to the surviving replicas.
        """
        if not link.alive:
            return
        link.alive = False
        link.reason = str(reason)
        for transport in (link.transport, link.heartbeat):
            if transport is not None:
                try:
                    transport.close()
                except Exception:
                    pass

    def _alive_links(self) -> List[_WorkerLink]:
        links = [link for link in self._links if link.alive]
        if not links:
            raise RuntimeError(
                f"no alive cluster workers ({len(self._links)} degraded)")
        return links

    # ------------------------------------------------------------------
    # Query routing
    # ------------------------------------------------------------------
    def _shard_query(self, command, payload):
        """The :class:`ShardMergeMixin` hook, with replica failover.

        Routes each logical shard to one healthy replica, groups shards
        by worker, and re-routes mid-request: a worker whose channel
        fails between frames is degraded in place and its shards are
        asked again on the surviving replicas instead of aborting the
        query. A worker that *answers* but reports an error is degraded
        only when another replica can serve its shards (differential
        diagnosis: if the alternative also fails, the request itself was
        bad and the error propagates without degrading anyone). Returns
        one ``(global_ids, reply)`` entry per answering shard.
        """
        if self._closed:
            raise RuntimeError("coordinator is closed")
        with self._rpc_lock:
            answered = self._routed_query(command, payload)
            if not answered:
                raise RuntimeError(
                    "all cluster workers failed; no shards left to answer")
            return [(self._shard_id_arrays[shard], answered[shard])
                    for shard in sorted(answered)]

    def _routed_query(self, command, payload) -> Dict[int, object]:
        """Route/fail-over loop; caller holds ``_rpc_lock``."""
        self._route_counter += 1
        remaining = set(range(self._num_shards))
        tried: Dict[int, Set[int]] = {s: set() for s in remaining}
        answered: Dict[int, object] = {}
        while remaining:
            plan: Dict[int, List[int]] = {}
            for shard in sorted(remaining):
                link = self._pick_replica(shard, tried[shard])
                if link is None:
                    if self.replication > 1:
                        raise ShardLostError(
                            f"shard {shard} has no healthy replica "
                            f"(replication={self.replication}); rejoin a "
                            "worker or wait for re-replication")
                    # Legacy unreplicated semantics: a lost shard costs
                    # capacity, the survivors still answer.
                    remaining.discard(shard)
                    continue
                plan.setdefault(link.worker, []).append(shard)
            if not plan:
                break
            sent = []
            for worker in sorted(plan):
                link, shards = self._links[worker], plan[worker]
                for shard in shards:
                    tried[shard].add(worker)
                try:
                    link.transport.send((command, (shards, payload)))
                    sent.append((link, shards))
                except TransportError as error:
                    self._degrade(link, f"send failed: {error}")
            errored = []
            for link, shards in sent:
                try:
                    status, result = link.transport.recv()
                except TransportError as error:
                    self._degrade(link, f"recv failed: {error}")
                    continue
                if status != OK:
                    errored.append((link, shards, str(result)))
                    continue
                for shard in shards:
                    answered[shard] = result[shard]
                    remaining.discard(shard)
            for link, shards, message in errored:
                if any(self._pick_replica(shard, tried[shard]) is not None
                       for shard in shards):
                    # Another replica can answer: the worker demonstrably
                    # fails commands its peers serve (ping-alive but
                    # broken) — degrade it and let the loop re-route.
                    self._degrade(
                        link, f"{command} failed on worker: {message}")
                else:
                    raise RemoteCallError(
                        f"cluster worker {link.label} failed:\n{message}")
        return answered

    # ------------------------------------------------------------------
    # Heartbeat + background repair
    # ------------------------------------------------------------------
    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            for link in list(self._links):
                if self._stop.is_set():
                    return
                if not link.alive:
                    continue
                try:
                    link.heartbeat.send(("ping", None))
                    if not link.heartbeat.poll(self.heartbeat_timeout):
                        raise TransportClosed(
                            f"no heartbeat reply within "
                            f"{self.heartbeat_timeout}s")
                    status, _result = link.heartbeat.recv()
                    if status != OK:
                        raise TransportClosed("heartbeat error reply")
                except TransportError as error:
                    if self._stop.is_set():
                        # close() severs the heartbeat channels to wake
                        # this thread; that hangup is not a worker death.
                        return
                    self._degrade(link, f"heartbeat failed: {error}")
            if self._rereplicate_enabled and not self._stop.is_set():
                try:
                    self._rereplicate_once()
                except Exception:
                    # Background repair must never kill the pinger; link
                    # failures were already recorded via _degrade.
                    pass

    def _rereplicate_once(self) -> bool:
        """Copy one under-replicated shard onto a spare worker.

        One copy per heartbeat sweep keeps the pinger responsive; the
        next sweep picks up the next shard. Returns True when a copy
        landed (placement updated), False when there was nothing to do
        or the attempt failed (the failure degrades the guilty link and
        a later sweep retries).
        """
        if self.replication <= 1 or self._closed:
            return False
        with self._rpc_lock:
            if self._closed:
                return False
            for shard in range(self._num_shards):
                replicas = self._replicas(shard)
                if not replicas or len(replicas) >= self.replication:
                    continue
                hosts = set(self._placement[shard])
                spares = [link for link in self._links
                          if link.alive and link.worker not in hosts]
                if not spares:
                    continue
                target = min(spares, key=lambda l: (len(l.shards), l.worker))
                source = replicas[0]
                try:
                    # repro: allow[C204] repair copies must hold _rpc_lock so the exported shard is consistent with the committed ids; bounded by the worker answering or _degrade
                    exported = request(
                        source.transport, "export", ([shard], None),
                        who=f"cluster worker {source.label}")[shard]
                except TransportError as error:
                    self._degrade(
                        source, f"re-replication export failed: {error}")
                    return False
                except RemoteCallError:
                    return False
                if len(exported) != len(self._shard_ids[shard]):
                    return False  # torn view; retry next sweep
                try:
                    # repro: allow[C204] same repair transaction as the export above; the host/add pair must not interleave with queries
                    request(target.transport, "host", [shard],
                            who=f"cluster worker {target.label}")
                    if exported:
                        # repro: allow[C204] same repair transaction as the export above
                        request(target.transport, "add", {shard: exported},
                                who=f"cluster worker {target.label}")
                except TransportError as error:
                    self._degrade(
                        target, f"re-replication copy failed: {error}")
                    return False
                except RemoteCallError:
                    return False
                self._placement[shard].append(target.worker)
                target.shards.append(shard)
                self._rereplications += 1
                return True
        return False

    # ------------------------------------------------------------------
    # Database
    # ------------------------------------------------------------------
    def add(self, trajectories: Sequence[TrajectoryLike]) -> "ClusterCoordinator":
        """Deal the trajectories across shards; write-all to the replicas.

        Each trajectory goes to the currently-smallest eligible shard
        (ties broken by shard id — identical to round-robin while shards
        are balanced, and self-healing when they are not). Every alive
        replica of a shard receives the write; the chunk commits on the
        first ack, replicas that missed it get catch-up log entries
        (replayed on rejoin), and a chunk *no* replica acked is requeued
        onto the surviving shards — global ids are independent of shard
        placement, so the reassignment is invisible to queries. A dead
        worker can never answer again without a state-rebuilding rejoin,
        so a write it applied without acking can never surface twice.
        """
        if self._closed:
            raise RuntimeError("coordinator is closed")
        batch = [as_points(t) for t in _as_batch(trajectories)]
        if not batch:
            return self
        with self._rpc_lock:
            self._add_locked(batch)
        return self

    def _eligible_shards(self) -> List[int]:
        shards = [s for s in range(self._num_shards) if self._replicas(s)]
        if not shards:
            degraded = sum(1 for link in self._links if not link.alive)
            raise RuntimeError(
                f"no alive cluster workers ({degraded} degraded)")
        return shards

    def _add_locked(self, batch: List[np.ndarray]) -> None:
        eligible = self._eligible_shards()
        sizes = {s: len(self._shard_ids[s]) for s in eligible}
        chunks: Dict[int, Tuple[List[np.ndarray], List[int]]] = {}
        for offset, points in enumerate(batch):
            shard = min(eligible, key=lambda s: (sizes[s], s))
            sizes[shard] += 1
            chunk = chunks.setdefault(shard, ([], []))
            chunk[0].append(points)
            chunk[1].append(self._size + offset)
        while chunks:
            # (Re)plan against the currently-alive replicas.
            plan: Dict[int, Dict[int, List[np.ndarray]]] = {}
            orphans = []
            for shard in sorted(chunks):
                replicas = self._replicas(shard)
                if not replicas:
                    orphans.append(shard)
                    continue
                for link in replicas:
                    plan.setdefault(link.worker, {})[shard] = chunks[shard][0]
            if orphans:
                # Every replica of these shards died before any ack:
                # requeue the chunks onto shards that can still commit.
                spilled: List[Tuple[np.ndarray, int]] = []
                for shard in orphans:
                    points, ids = chunks.pop(shard)
                    spilled.extend(zip(points, ids))
                eligible = self._eligible_shards()
                sizes = {s: len(self._shard_ids[s]) + len(chunks[s][1])
                         if s in chunks else len(self._shard_ids[s])
                         for s in eligible}
                for points, global_id in spilled:
                    shard = min(eligible, key=lambda s: (sizes[s], s))
                    sizes[shard] += 1
                    chunk = chunks.setdefault(shard, ([], []))
                    chunk[0].append(points)
                    chunk[1].append(global_id)
                continue
            sent = []
            for worker in sorted(plan):
                link = self._links[worker]
                try:
                    link.transport.send(("add", plan[worker]))
                    sent.append(link)
                except TransportError as error:
                    self._degrade(link, f"send failed: {error}")
            acks: Dict[int, int] = {shard: 0 for shard in chunks}
            errored = []
            for link in sent:
                try:
                    status, result = link.transport.recv()
                except TransportError as error:
                    self._degrade(link, f"recv failed: {error}")
                    continue
                if status != OK:
                    errored.append((link, str(result)))
                    continue
                for shard in plan[link.worker]:
                    acks[shard] += 1
            for link, message in errored:
                if self.replication > 1:
                    # The replica *executed* add and failed: its copy may
                    # be torn. Degrade it — rejoin rebuilds worker state
                    # from scratch, so the tear cannot survive — and let
                    # the acked replicas carry the shard.
                    self._degrade(link, f"add failed on worker: {message}")
                else:
                    # Unreplicated: shards now disagree about the
                    # database. Refuse further use rather than
                    # misattribute neighbour ids (same policy as the
                    # process-sharded service).
                    self.close()
                    raise RemoteCallError(
                        "cluster worker add failed:\n" + message)
            for shard in sorted(chunks):
                if acks.get(shard, 0) < 1:
                    continue  # no replica acked; the loop requeues it
                points, ids = chunks.pop(shard)
                # Commit the ids AND the size together, still under
                # _rpc_lock: a concurrent stats() snapshot must always
                # see sum(shard_sizes) == size, even between requeue
                # rounds of a partially failed add.
                # repro: allow[C202] add() wraps this whole method in _rpc_lock; the commit is not reachable any other way
                self._shard_ids[shard].extend(ids)
                # repro: allow[C202] same _rpc_lock transaction as the line above
                self._shard_id_arrays[shard] = freeze_shard_ids(
                    self._shard_ids[shard])
                # repro: allow[C202] same _rpc_lock transaction as the line above
                self._size += len(ids)
                for worker in self._placement[shard]:
                    dead = self._links[worker]
                    if not dead.alive:
                        self._log_catchup(dead, shard, points, ids)

    def _log_catchup(self, link: _WorkerLink, shard: int,
                     points: Sequence[np.ndarray],
                     ids: Sequence[int]) -> None:
        """Record a committed write a dead replica missed (bounded)."""
        if shard in link.catchup_overflow:
            return
        log = link.catchup.setdefault(shard, deque())
        for pts, global_id in zip(points, ids):
            if len(log) >= self._catchup_limit:
                # Overflow: the tail is no longer complete, so replay is
                # off the table — drop the log (rejoin falls back to a
                # replica export or a full-coverage snapshot).
                link.catchup_overflow.add(shard)
                link.catchup.pop(shard, None)
                return
            log.append((global_id, pts))

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def rejoin(self, worker, address=None, *,
               snapshot: Optional[str] = None) -> Dict[int, str]:
        """Bring a degraded worker back and promote it to up.

        ``worker`` is the worker id presented by the restarted process
        (``"worker-0"``), its index, or its ``host:port``; ``address``
        points at the replacement when it came back on a different port.
        Each of the worker's shards is restored from the first available
        source — a healthy replica (authoritative ``export``/re-``add``),
        else the latest snapshot (from :meth:`save`, or ``snapshot=``)
        plus the catch-up log, else the catch-up log alone when it covers
        the whole shard — and shards that were re-replicated elsewhere in
        the meantime are shed from the assignment. Returns
        ``{shard: source}`` with source one of ``"replica"``,
        ``"snapshot"``, ``"catchup"``; raises
        :class:`~repro.api.serving.ShardLostError` when a shard cannot be
        reconstructed from any source.
        """
        if self._closed:
            raise RuntimeError("coordinator is closed")
        link = self._resolve_link(worker)
        with self._rpc_lock:
            if link.alive:
                raise ValueError(
                    f"worker {link.worker_id} ({link.label}) is already up")
            if address is not None:
                link.address = parse_address(address)
            # Shards re-replicated onto spares while this worker was down
            # are fully covered; shed them instead of hosting extras.
            for shard in list(link.shards):
                if len(self._replicas(shard)) >= self.replication:
                    link.shards.remove(shard)
                    self._placement[shard].remove(link.worker)
                    link.catchup.pop(shard, None)
                    link.catchup_overflow.discard(shard)
            transport = heartbeat = None
            try:
                transport = self._new_transport(link.address)
                heartbeat = self._new_transport(link.address)
                # repro: allow[C204] the rejoin handshake+restore is one transaction under _rpc_lock: queries must not observe a half-restored replica
                request(transport, "join", self._join_payload(link),
                        who=f"cluster worker {link.label}")
                restored = {}
                for shard in list(link.shards):
                    restored[shard] = self._restore_shard(
                        link, shard, transport, snapshot)
                link.transport = transport
                link.heartbeat = heartbeat
                link.alive = True
                link.reason = None
                return restored
            except BaseException:
                for channel in (transport, heartbeat):
                    if channel is not None:
                        try:
                            channel.close()
                        except Exception:
                            pass
                raise

    def _restore_shard(self, link: _WorkerLink, shard: int, transport,
                       snapshot: Optional[str]) -> str:
        """Refill one shard on a rejoining worker; caller holds _rpc_lock."""
        want = self._shard_ids[shard]
        while True:
            source = self._pick_replica(shard)  # link itself is not up yet
            if source is None:
                break
            try:
                exported = request(
                    source.transport, "export", ([shard], None),
                    who=f"cluster worker {source.label}")[shard]
            except TransportError as error:
                # A nominally-alive replica that died unnoticed (no query
                # or heartbeat touched it since): degrade it and try the
                # next one rather than failing the rejoin.
                self._degrade(source, f"rejoin export failed: {error}")
                continue
            if len(exported) != len(want):
                raise RuntimeError(
                    f"replica of shard {shard} exported {len(exported)} "
                    f"trajectories but the coordinator owns {len(want)} ids")
            if exported:
                request(transport, "add", {shard: exported},
                        who=f"cluster worker {link.label}")
            link.catchup.pop(shard, None)
            link.catchup_overflow.discard(shard)
            return "replica"
        tail = list(link.catchup.get(shard, ()))
        tail_usable = shard not in link.catchup_overflow
        restored_ids: List[int] = []
        restored_points: List[np.ndarray] = []
        directory = snapshot if snapshot is not None else self._last_snapshot
        used_snapshot = False
        if directory is not None:
            loaded = self._load_snapshot_shard(directory, shard)
            if loaded is not None:
                snap_ids, snap_points = loaded
                if snap_ids == list(want[:len(snap_ids)]):
                    restored_ids = snap_ids
                    restored_points = snap_points
                    used_snapshot = bool(snap_ids)
        # The snapshot may already contain adds the catch-up log also
        # recorded (it exports live replicas); replay only the ids the
        # snapshot does not cover.
        remaining_want = list(want[len(restored_ids):])
        tail_map = {global_id: pts for global_id, pts in tail}
        if remaining_want:
            if not (tail_usable
                    and all(g in tail_map for g in remaining_want)):
                raise ShardLostError(
                    f"shard {shard} has no healthy replica and the "
                    f"snapshot/catch-up log cannot reconstruct it "
                    f"({len(restored_ids)} of {len(want)} trajectories "
                    "recoverable); restore from an older snapshot or "
                    "accept the loss")
            restored_ids += remaining_want
            restored_points += [tail_map[g] for g in remaining_want]
        if restored_points:
            request(transport, "add", {shard: restored_points},
                    who=f"cluster worker {link.label}")
        link.catchup.pop(shard, None)
        link.catchup_overflow.discard(shard)
        return "snapshot" if used_snapshot else "catchup"

    @staticmethod
    def _load_snapshot_shard(directory: str, shard: int):
        path = os.path.join(directory, f"shard_{shard:04d}.npz")
        if not os.path.exists(path):
            return None
        with np.load(path) as archive:
            if ("format_version" not in archive.files
                    or int(archive["format_version"])
                    != SNAPSHOT_FORMAT_VERSION):
                return None
            ids = [int(g) for g in archive["ids"]]
            points = [archive[f"traj_{j}"].copy() for j in range(len(ids))]
        return ids, points

    # ``pairwise``/``knn``/``__len__`` come from ShardMergeMixin.

    def stats(self) -> Dict:
        """Cluster health on the shared key set, with per-shard replicas.

        ``"degraded"`` lists shards with *zero* healthy replicas (their
        data is unreachable), ``"underreplicated"`` those still served
        but below the replication factor; each ``"shards"`` entry carries
        its replica set (worker, address, alive, failure reason). Worker-
        level detail (hosted shards, catch-up backlog, cache counters)
        lives under ``"worker_links"``; cache and transport counters
        aggregate over the alive workers.
        """
        per_worker: Dict[int, Dict] = {}
        if not self._closed:
            with self._rpc_lock:
                for link in list(self._links):
                    if not link.alive:
                        continue
                    try:
                        # repro: allow[C204] per-worker stats RPC must hold _rpc_lock to keep frames paired; bounded by the worker answering or _degrade
                        per_worker[link.worker] = request(
                            link.transport, "stats",
                            who=f"cluster worker {link.label}")
                    except TransportError as error:
                        self._degrade(link, f"stats failed: {error}")
                    except RemoteCallError:
                        pass
        with self._rpc_lock:  # one atomic snapshot of the bookkeeping
            shard_sizes = [len(ids) for ids in self._shard_ids]
            size = self._size
            placement = [list(hosts) for hosts in self._placement]
            transport_stats = merge_transport_stats(
                [link.transport.stats() for link in self._links
                 if link.alive and link.transport is not None])
            chaos_stats = self._chaos_stats() if self._chaos else None
        shards = []
        for shard in range(self._num_shards):
            replicas = []
            for worker in placement[shard]:
                link = self._links[worker]
                replica: Dict = {"worker": worker,
                                 "worker_id": link.worker_id,
                                 "address": link.label,
                                 "alive": link.alive}
                if not link.alive and link.reason:
                    replica["reason"] = link.reason
                replicas.append(replica)
            healthy = sum(1 for replica in replicas if replica["alive"])
            entry: Dict = {
                "shard": shard,
                "size": shard_sizes[shard],
                "alive": healthy > 0,
                "healthy_replicas": healthy,
                "replicas": replicas,
            }
            if replicas:
                entry["address"] = replicas[0]["address"]
            if healthy == 0:
                reasons = [replica.get("reason") for replica in replicas
                           if replica.get("reason")]
                if reasons:
                    entry["reason"] = "; ".join(reasons)
            shards.append(entry)
        worker_links = []
        for link in self._links:
            entry = {
                "worker": link.worker,
                "worker_id": link.worker_id,
                "address": link.label,
                "alive": link.alive,
                "shards": sorted(link.shards),
            }
            if not link.alive:
                entry["reason"] = link.reason
                entry["catchup"] = sum(
                    len(log) for log in link.catchup.values())
            info = per_worker.get(link.worker)
            if info is not None and "cache" in info:
                entry["cache"] = info["cache"]
            worker_links.append(entry)
        result = {
            "type": type(self).__name__,
            "backend": self.backend.name,
            "kind": self.backend.kind,
            "index": self.index_name or "scan",
            "size": size,
            "workers": len(self._links),
            "alive_workers": sum(1 for link in self._links if link.alive),
            "replication": self.replication,
            "degraded": [entry["shard"] for entry in shards
                         if entry["healthy_replicas"] == 0],
            "underreplicated": [
                entry["shard"] for entry in shards
                if 0 < entry["healthy_replicas"] < self.replication],
            "rereplications": self._rereplications,
            "shard_sizes": shard_sizes,
            "shards": shards,
            "worker_links": worker_links,
            "transport": transport_stats,
            "cache": merge_cache_counters(
                [entry["cache"] for entry in worker_links
                 if "cache" in entry]),
        }
        if chaos_stats is not None:
            result["chaos"] = chaos_stats
        return result

    def _chaos_stats(self) -> Dict:
        total = {"drops": 0, "truncations": 0, "latency": 0, "kills": 0,
                 "operations": 0}
        for link in self._links:
            for transport in (link.transport, link.heartbeat):
                if isinstance(transport, ChaosTransport):
                    for key, value in transport.injected.items():
                        total[key] += value
                    total["operations"] += transport.operations
        return total

    # ------------------------------------------------------------------
    # Sharded snapshots
    # ------------------------------------------------------------------
    def save(self, directory: str) -> None:
        """Snapshot the cluster: one ``.npz`` per shard plus a manifest.

        Layout: ``shard_NNNN.npz`` (trajectories + their global ids),
        ``backend.npz`` (backend weights) and ``manifest.json`` (format
        version, shard count, backend config, index kind). Each shard is
        exported from one healthy replica, so an *under-replicated*
        cluster still snapshots; a cluster with a *lost* shard (zero
        healthy replicas) refuses — the snapshot would silently drop its
        trajectories. The directory is remembered as the latest snapshot
        for :meth:`rejoin`'s snapshot-restore path.
        """
        degraded = self.degraded_shards
        if degraded:
            raise RuntimeError(
                f"cannot snapshot a degraded cluster (lost shards "
                f"{degraded}); the snapshot would drop their trajectories")
        exports = self._shard_query("export", None)
        if len(exports) != self._num_shards:
            raise RuntimeError(
                "a shard was lost while exporting; snapshot aborted")
        os.makedirs(directory, exist_ok=True)
        shard_files = []
        for shard, (ids, trajectories) in enumerate(exports):
            if len(ids) != len(trajectories):
                raise RuntimeError(
                    f"shard {shard} exported {len(trajectories)} "
                    f"trajectories but owns {len(ids)} ids")
            name = f"shard_{shard:04d}.npz"
            payload = {
                "format_version": np.array(SNAPSHOT_FORMAT_VERSION),
                "count": np.array(len(trajectories)),
                "ids": np.asarray(ids, dtype=np.int64),
            }
            for j, points in enumerate(trajectories):
                payload[f"traj_{j}"] = np.asarray(points)
            np.savez_compressed(os.path.join(directory, name), **payload)
            shard_files.append(name)
        backend_meta, backend_arrays = backend_state(self.backend)
        np.savez_compressed(os.path.join(directory, _BACKEND_FILE),
                            **backend_arrays)
        manifest = {
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "kind": _SNAPSHOT_KIND,
            "size": self._size,
            "shards": self._num_shards,
            "replication": self.replication,
            "shard_files": shard_files,
            "shard_sizes": self.shard_sizes,
            "backend": backend_meta,
            "index": self.index_name,
            "index_kwargs": self._index_kwargs,
            "batch_size": self._batch_size,
            "cache_size": self._cache_size,
        }
        with open(os.path.join(directory, MANIFEST_NAME), "w") as handle:
            json.dump(manifest, handle, indent=2)
        self._last_snapshot = os.path.abspath(directory)

    @classmethod
    def load(cls, directory: str,
             workers: Sequence[Union[str, Tuple[str, int]]],
             **kwargs) -> "ClusterCoordinator":
        """Restore a cluster from :meth:`save` onto ``workers``.

        The worker count may differ from the snapshot's: trajectories are
        reassembled in global-id order and re-dealt, so ids — and
        therefore every kNN answer over an exact index — are preserved
        bit-for-bit regardless of the new shard layout. The snapshot's
        replication factor carries over (clamped to the new worker
        count) unless overridden.
        """
        with open(os.path.join(directory, MANIFEST_NAME)) as handle:
            manifest = json.load(handle)
        if manifest.get("kind") != _SNAPSHOT_KIND:
            raise ValueError(f"{directory!r} is not a cluster snapshot")
        version = manifest.get("format_version")
        if version != SNAPSHOT_FORMAT_VERSION:
            raise ValueError(
                f"unsupported cluster snapshot version {version!r}")
        with np.load(os.path.join(directory, _BACKEND_FILE)) as archive:
            arrays = {key: archive[key].copy() for key in archive.files}
        backend = restore_backend(manifest["backend"], arrays)
        kwargs.setdefault("index_kwargs", manifest.get("index_kwargs"))
        kwargs.setdefault("batch_size", manifest.get("batch_size", 256))
        kwargs.setdefault("cache_size", manifest.get("cache_size", 4096))
        kwargs.setdefault("replication",
                          min(int(manifest.get("replication", 1)),
                              len(list(workers))))
        coordinator = cls(workers, backend=backend,
                          index=manifest.get("index"), **kwargs)
        try:
            slots: List[Optional[np.ndarray]] = [None] * int(manifest["size"])
            for name in manifest["shard_files"]:
                with np.load(os.path.join(directory, name)) as archive:
                    ids = archive["ids"]
                    for j, global_id in enumerate(ids):
                        slots[int(global_id)] = archive[f"traj_{j}"].copy()
            missing = [i for i, points in enumerate(slots) if points is None]
            if missing:
                raise ValueError(
                    f"cluster snapshot {directory!r} is missing "
                    f"trajectories {missing[:5]}"
                    f"{'...' if len(missing) > 5 else ''}")
            coordinator.add(slots)
        except Exception:
            coordinator.close()
            raise
        return coordinator

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, shutdown_workers: Optional[bool] = None) -> None:
        """Detach from the workers (idempotent).

        By default the workers keep running (``leave`` clears this
        coordinator's shards so a future one can ``join`` fresh); with
        ``shutdown_workers=True`` — or ``shutdown_workers_on_close`` set
        at construction — each worker is told to exit instead, including
        a best-effort fresh connection to workers that were degraded but
        whose process may still be running. A worker that died after
        being degraded can neither hang the cascade nor leak a
        transport error out of it.
        """
        if self._closed:
            return
        self._closed = True
        if shutdown_workers is None:
            shutdown_workers = self.shutdown_workers_on_close
        self._stop.set()
        # Sever the heartbeat channels first: the pinger may be blocked
        # in a poll() of up to heartbeat_timeout, and a closed socket
        # wakes it now (its error path sees _stop and returns instead of
        # degrading anyone).
        for link in self._links:
            if link.heartbeat is not None:
                try:
                    link.heartbeat.close()
                except Exception:
                    pass
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout=2.0)
        # Bounded wait for any in-flight RPC; a wedged exchange must delay
        # close, never block it.
        acquired = self._rpc_lock.acquire(timeout=5.0)
        try:
            for link in self._links:
                try:
                    self._farewell(link, shutdown_workers)
                except Exception:
                    # A worker that died mid-farewell (FrameError, reset,
                    # anything) must not break the cascade for the links
                    # behind it.
                    pass
                for transport in (link.transport, link.heartbeat):
                    if transport is not None:
                        try:
                            transport.close()
                        except Exception:
                            pass
        finally:
            if acquired:
                self._rpc_lock.release()

    def _farewell(self, link: _WorkerLink, shutdown_workers: bool) -> None:
        """Best-effort goodbye to one worker; all failures stay inside."""
        transport = link.transport if link.alive else None
        if transport is None and shutdown_workers:
            # A degraded worker may still be running (only its link
            # died); a cascade shutdown owes it a fresh, short-lived
            # connection attempt.
            try:
                transport = SocketTransport.connect(
                    *link.address, timeout=1.0)
            except (TransportError, OSError):
                return
            link.transport = transport  # closed by close()'s sweep
        if transport is None:
            return
        for command in (("shutdown",) if shutdown_workers
                        else ("leave", "stop")):
            try:
                transport.send((command, None))
                if transport.poll(1.0):
                    transport.recv()
            except Exception:
                break

    def __enter__(self) -> "ClusterCoordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        alive = sum(1 for link in self._links if link.alive)
        return (
            f"ClusterCoordinator(backend={self.backend.name!r}, "
            f"index={self.index_name!r}, replication={self.replication}, "
            f"workers={alive}/{len(self._links)} alive, size={self._size})"
        )
