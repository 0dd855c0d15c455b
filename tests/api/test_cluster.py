"""Tests for the cluster subsystem: coordinator parity with a single
service, the join handshake, heartbeat/failover (a killed worker degrades
its shard and the survivors keep answering), add-requeue, sharded
snapshots restored onto a different worker count, and composition with
the serving front-ends."""

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.api import (
    ClusterCoordinator,
    KnnService,
    QueryQueue,
    RemoteCallError,
    RemoteSimilarityClient,
    ShardWorker,
    SimilarityServer,
    SimilarityService,
    get_backend,
)
from repro.api.transport import SocketTransport, request

from .test_registry import make_trajectories


@pytest.fixture(scope="module")
def trajectories():
    return make_trajectories(n=18, seed=11)


@pytest.fixture(scope="module")
def single_service(trajectories):
    return SimilarityService(backend="hausdorff").add(trajectories)


@pytest.fixture()
def workers():
    pair = [ShardWorker(), ShardWorker()]
    yield pair
    for worker in pair:
        worker.close()


def make_cluster(workers, **kwargs):
    kwargs.setdefault("backend", "hausdorff")
    kwargs.setdefault("heartbeat_interval", 0)  # tests ping explicitly
    return ClusterCoordinator([w.address for w in workers], **kwargs)


def free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestCoordinatorParity:
    def test_knn_bit_identical_to_single_service(self, workers,
                                                 single_service,
                                                 trajectories):
        with make_cluster(workers) as cluster:
            cluster.add(trajectories)
            assert len(cluster) == len(trajectories)
            local_d, local_i = single_service.knn(trajectories[:5], k=4,
                                                  exclude=2)
            cluster_d, cluster_i = cluster.knn(trajectories[:5], k=4,
                                               exclude=2)
        assert local_d.tobytes() == cluster_d.tobytes()
        assert local_i.tobytes() == cluster_i.tobytes()

    def test_knn_with_dedupe(self, workers, single_service, trajectories):
        with make_cluster(workers) as cluster:
            cluster.add(trajectories)
            local = single_service.knn(trajectories[0], k=3, dedupe_eps=1e-9)
            remote = cluster.knn(trajectories[0], k=3, dedupe_eps=1e-9)
        np.testing.assert_array_equal(local[1], remote[1])
        np.testing.assert_array_equal(local[0], remote[0])

    def test_incremental_add_keeps_parity(self, workers, single_service,
                                          trajectories):
        with make_cluster(workers) as cluster:
            cluster.add(trajectories[:7]).add(trajectories[7:])
            local = single_service.knn(trajectories[:4], k=5)
            merged = cluster.knn(trajectories[:4], k=5)
        assert local[0].tobytes() == merged[0].tobytes()
        assert local[1].tobytes() == merged[1].tobytes()

    def test_pairwise_parity(self, workers, single_service, trajectories):
        with make_cluster(workers) as cluster:
            cluster.add(trajectories)
            np.testing.assert_allclose(
                cluster.pairwise(trajectories[:3]),
                single_service.pairwise(trajectories[:3]))
            np.testing.assert_allclose(
                cluster.pairwise(trajectories[:2], trajectories[3:6]),
                single_service.pairwise(trajectories[:2], trajectories[3:6]))

    def test_satisfies_knn_service_protocol(self, workers):
        with make_cluster(workers) as cluster:
            assert isinstance(cluster, KnnService)

    def test_trajcl_backend_ships_over_the_wire(self, workers, trajectories):
        backend = get_backend("trajcl", trajectories=trajectories, dim=8,
                              max_len=16, epochs=1, seed=3)
        local = SimilarityService(backend=backend).add(trajectories)
        with make_cluster(workers, backend=backend) as cluster:
            cluster.add(trajectories)
            local_d, local_i = local.knn(trajectories[:4], k=5, exclude=1)
            got_d, got_i = cluster.knn(trajectories[:4], k=5, exclude=1)
        # Same convention as the sharded-service trajcl parity tests:
        # identical neighbours, distances to float tolerance (BLAS kernels
        # vary with the encode batch shape).
        np.testing.assert_array_equal(local_i, got_i)
        np.testing.assert_allclose(local_d, got_d)

    def test_stats_common_shape(self, workers, trajectories):
        with make_cluster(workers) as cluster:
            cluster.add(trajectories)
            stats = cluster.stats()
        for key in ("type", "backend", "index", "size", "cache", "shards",
                    "degraded", "workers", "alive_workers"):
            assert key in stats
        assert stats["workers"] == 2
        assert stats["alive_workers"] == 2
        assert stats["degraded"] == []
        assert stats["size"] == len(trajectories)
        assert sum(entry["size"] for entry in stats["shards"]) == \
            len(trajectories)

    def test_parity_and_transport_stats(self, single_service, trajectories):
        pair = [ShardWorker() for _ in range(2)]
        try:
            with make_cluster(pair) as cluster:
                cluster.add(trajectories)
                local_d, local_i = single_service.knn(trajectories[:4], k=3)
                got_d, got_i = cluster.knn(trajectories[:4], k=3)
                stats = cluster.stats()
        finally:
            for worker in pair:
                worker.close()
        assert local_d.tobytes() == got_d.tobytes()
        assert local_i.tobytes() == got_i.tobytes()
        transport = stats["transport"]
        assert transport["frames_sent"] > 0
        assert transport["bytes_sent"] > 0


class TestFailover:
    def test_killed_worker_degrades_and_survivors_answer(
            self, workers, single_service, trajectories):
        with make_cluster(workers) as cluster:
            cluster.add(trajectories)
            surviving = np.asarray(cluster._shard_ids[1], dtype=np.int64)
            workers[0].close()  # abrupt: sockets drop mid-conversation
            distances, ids = cluster.knn(trajectories[:4], k=3)
            stats = cluster.stats()
        assert stats["degraded"] == [0]
        assert stats["alive_workers"] == 1
        dead = [entry for entry in stats["shards"] if not entry["alive"]]
        assert len(dead) == 1 and dead[0]["reason"]
        # Survivor-only answer == the single service restricted to the
        # surviving shard's ids (same distance-then-id ordering).
        full = single_service.pairwise(trajectories[:4])
        for row in range(4):
            row_d = full[row, surviving]
            order = np.lexsort((surviving, row_d))[:3]
            np.testing.assert_array_equal(ids[row], surviving[order])
            np.testing.assert_allclose(distances[row], row_d[order])

    def test_heartbeat_marks_dead_worker_without_a_query(self, workers,
                                                         trajectories):
        with make_cluster(workers, heartbeat_interval=0.1,
                          heartbeat_timeout=2.0) as cluster:
            cluster.add(trajectories)
            workers[1].close()
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline and not cluster.degraded_shards:
                time.sleep(0.05)
            assert cluster.degraded_shards == [1]

    def test_add_requeues_onto_survivors(self, workers, trajectories):
        with make_cluster(workers) as cluster:
            cluster.add(trajectories[:8])
            workers[0].close()
            cluster.add(trajectories[8:12])
            assert len(cluster) == 12
            # Every requeued id landed on the surviving shard.
            assert set(cluster._shard_ids[1]) >= {8, 9, 10, 11}
            distances, ids = cluster.knn(trajectories[10], k=1)
            assert ids[0, 0] == 10
            assert distances[0, 0] == 0.0

    def test_all_workers_dead_raises(self, workers, trajectories):
        cluster = make_cluster(workers)
        try:
            cluster.add(trajectories[:4])
            workers[0].close()
            workers[1].close()
            with pytest.raises(RuntimeError, match="workers"):
                cluster.knn(trajectories[0], k=1)
        finally:
            cluster.close()


class TestSnapshots:
    def test_save_load_across_worker_counts(self, tmp_path, trajectories,
                                            single_service):
        snapshot = str(tmp_path / "cluster")
        two = [ShardWorker(), ShardWorker()]
        three = [ShardWorker() for _ in range(3)]
        try:
            with ClusterCoordinator([w.address for w in two],
                                    backend="hausdorff",
                                    heartbeat_interval=0) as cluster:
                cluster.add(trajectories)
                expected = cluster.knn(trajectories[:4], k=5, exclude=1)
                cluster.save(snapshot)
            manifest = json.loads(
                (tmp_path / "cluster" / "manifest.json").read_text())
            assert manifest["shards"] == 2
            assert manifest["size"] == len(trajectories)
            assert manifest["format_version"] == 1
            assert len(manifest["shard_files"]) == 2
            restored = ClusterCoordinator.load(
                snapshot, [w.address for w in three], heartbeat_interval=0)
            try:
                assert len(restored) == len(trajectories)
                assert restored.stats()["workers"] == 3
                got = restored.knn(trajectories[:4], k=5, exclude=1)
                # Bit-identical across the 2 -> 3 worker reassignment, and
                # to the unsharded service.
                assert expected[0].tobytes() == got[0].tobytes()
                assert expected[1].tobytes() == got[1].tobytes()
                single = single_service.knn(trajectories[:4], k=5, exclude=1)
                assert single[0].tobytes() == got[0].tobytes()
                assert single[1].tobytes() == got[1].tobytes()
            finally:
                restored.close()
        finally:
            for worker in two + three:
                worker.close()

    def test_save_refuses_a_degraded_cluster(self, workers, trajectories,
                                             tmp_path):
        with make_cluster(workers) as cluster:
            cluster.add(trajectories)
            workers[0].close()
            cluster.knn(trajectories[0], k=1)  # notice the death
            with pytest.raises(RuntimeError, match="degraded"):
                cluster.save(str(tmp_path / "snap"))


class TestWorkerProtocol:
    def test_worker_requires_join(self, workers, trajectories):
        transport = SocketTransport.connect(*workers[0].address)
        try:
            with pytest.raises(RemoteCallError, match="join"):
                request(transport, "knn", ([0], ([trajectories[0]], 1)))
            # ping and len answer without a shard; the connection survived
            # the error above.
            assert request(transport, "ping")["joined"] is False
            assert request(transport, "len") == 0
        finally:
            transport.close()

    def test_leave_drops_the_shard(self, workers, trajectories):
        with make_cluster(workers) as cluster:
            cluster.add(trajectories)
        # close() sent "leave": a fresh connection sees no shard.
        transport = SocketTransport.connect(*workers[0].address)
        try:
            assert request(transport, "ping")["joined"] is False
        finally:
            transport.close()

    def test_ping_answers_while_the_shard_is_busy(self, workers):
        """Heartbeats are lock-free on the worker: a long add/knn holding
        the shard lock must not read as a dead worker."""
        worker = workers[0]
        transport = SocketTransport.connect(*worker.address)
        try:
            with worker._lock:  # simulate a long request owning the shard
                assert request(transport, "ping")["joined"] is False
        finally:
            transport.close()

    def test_join_retries_until_worker_boots(self):
        port = free_port()
        box = {}

        def boot():
            time.sleep(0.5)
            box["worker"] = ShardWorker(port=port)

        thread = threading.Thread(target=boot)
        thread.start()
        try:
            with ClusterCoordinator([("127.0.0.1", port)], backend="frechet",
                                    heartbeat_interval=0,
                                    connect_retries=20,
                                    retry_wait=0.1) as cluster:
                assert len(cluster) == 0
                assert cluster.stats()["alive_workers"] == 1
        finally:
            thread.join(timeout=10)
            if "worker" in box:
                box["worker"].close()


class TestComposition:
    def test_cluster_behind_queue_and_server(self, workers, single_service,
                                             trajectories):
        """The coordinator is a KnnService: QueryQueue, SimilarityServer
        and RemoteSimilarityClient stack on it unchanged."""
        with make_cluster(workers) as cluster:
            cluster.add(trajectories)
            with QueryQueue(cluster, max_batch=8, max_wait=0.01) as queue:
                with SimilarityServer(queue) as server:
                    with RemoteSimilarityClient(*server.address) as client:
                        remote_d, remote_i = client.knn(trajectories[:4], k=5)
                        stats = client.stats()
        local_d, local_i = single_service.knn(trajectories[:4], k=5)
        assert local_d.tobytes() == remote_d.tobytes()
        assert local_i.tobytes() == remote_i.tobytes()
        # Unified stats flow through queue and server unchanged.
        assert stats["backend"] == "hausdorff"
        assert stats["size"] == len(trajectories)
        assert stats["requests"] >= 1

    def test_stats_probe_does_not_desync_in_flight_queries(
            self, workers, single_service, trajectories):
        """stats() gathers per-worker reports over the same transports the
        query path uses; the internal RPC lock must keep a concurrent
        monitoring probe from interleaving frames with a kNN exchange."""
        with make_cluster(workers) as cluster:
            cluster.add(trajectories)
            expected = single_service.knn(trajectories[:2], k=3)
            errors = []
            stop = threading.Event()

            def probe():
                try:
                    while not stop.is_set():
                        assert cluster.stats()["size"] == len(trajectories)
                except Exception as error:  # surfaced below
                    errors.append(error)

            thread = threading.Thread(target=probe)
            thread.start()
            try:
                for _ in range(50):
                    got = cluster.knn(trajectories[:2], k=3)
                    assert got[0].tobytes() == expected[0].tobytes()
                    assert got[1].tobytes() == expected[1].tobytes()
            finally:
                stop.set()
                thread.join(timeout=30)
            assert not errors


class TestStatsLockScope:
    """Regression tests for the unlocked _size commit that `repro lint`
    (C202) flagged: the coordinator's add() bumped _size outside the RPC
    lock that guards the _shard_ids commits, so a concurrent stats()
    could see the extends without the size bump (or a torn pair)."""

    def test_stats_bookkeeping_is_atomic_during_adds(self, workers,
                                                     trajectories):
        with make_cluster(workers) as cluster:
            cluster.add(trajectories[:2])
            errors = []
            stop = threading.Event()

            def probe():
                try:
                    while not stop.is_set():
                        stats = cluster.stats()
                        assert sum(stats["shard_sizes"]) == stats["size"], \
                            (stats["shard_sizes"], stats["size"])
                except Exception as error:  # surfaced below
                    errors.append(error)

            thread = threading.Thread(target=probe, daemon=True)
            thread.start()
            try:
                for i in range(20):
                    cluster.add([trajectories[i % len(trajectories)]])
            finally:
                stop.set()
                thread.join(timeout=30)
            assert not errors, errors
            final = cluster.stats()
            assert final["size"] == 2 + 20
            assert sum(final["shard_sizes"]) == final["size"]


# ----------------------------------------------------------------------
# Replication + recovery (PR 9)
# ----------------------------------------------------------------------
@pytest.fixture()
def trio():
    three = [ShardWorker() for _ in range(3)]
    yield three
    for worker in three:
        worker.close()


class TestReplication:
    def test_replication_parity_and_kill_mid_traffic(self, trio,
                                                     single_service,
                                                     trajectories):
        """The headline: replication=2, a worker killed mid-traffic, and
        every query (before, during, after the death) answers bit-exact —
        zero failed queries, zero shrunken answers."""
        with make_cluster(trio, replication=2) as cluster:
            cluster.add(trajectories)
            expected = single_service.knn(trajectories[:4], k=5, exclude=1)
            failures = 0
            for round_number in range(12):
                if round_number == 5:
                    trio[1].close()  # abrupt, mid-traffic
                try:
                    got = cluster.knn(trajectories[:4], k=5, exclude=1)
                except Exception:
                    failures += 1
                    continue
                assert got[0].tobytes() == expected[0].tobytes()
                assert got[1].tobytes() == expected[1].tobytes()
            assert failures == 0
            stats = cluster.stats()
        assert stats["alive_workers"] == 2
        assert stats["degraded"] == []  # every shard still has a replica
        assert set(stats["underreplicated"]) == {0, 1}

    def test_write_all_replicas_hold_identical_shards(self, trio,
                                                      trajectories):
        with make_cluster(trio, replication=2) as cluster:
            cluster.add(trajectories)
            stats = cluster.stats()
            assert stats["replication"] == 2
            # Each worker hosts two of the three logical shards, and the
            # per-worker totals cover every shard twice.
            hosted = sum(len(entry["shards"])
                         for entry in stats["worker_links"])
            assert hosted == 2 * 3
            for entry in stats["shards"]:
                assert entry["healthy_replicas"] == 2
                assert len(entry["replicas"]) == 2

    def test_degraded_add_logs_catchup_and_rejoin_replays(
            self, trio, single_service, trajectories):
        with make_cluster(trio, replication=2) as cluster:
            cluster.add(trajectories[:12])
            trio[2].close()
            cluster.knn(trajectories[0], k=1)  # notice the death
            cluster.add(trajectories[12:])    # committed on survivors
            stats = cluster.stats()
            dead = [entry for entry in stats["worker_links"]
                    if not entry["alive"]]
            assert len(dead) == 1 and dead[0]["catchup"] >= 0
            replacement = ShardWorker()
            try:
                restored = cluster.rejoin("worker-2",
                                          address=replacement.address)
                assert set(restored) == set(dead[0]["shards"])
                assert set(restored.values()) <= {"replica"}
                stats = cluster.stats()
                assert stats["degraded"] == []
                assert stats["underreplicated"] == []
                expected = single_service.knn(trajectories[:3], k=6)
                got = cluster.knn(trajectories[:3], k=6)
                assert got[0].tobytes() == expected[0].tobytes()
                assert got[1].tobytes() == expected[1].tobytes()
            finally:
                replacement.close()

    def test_lost_shard_raises_shard_lost_error(self, trio, trajectories):
        from repro.api import ShardLostError

        with make_cluster(trio, replication=2) as cluster:
            cluster.add(trajectories)
            # shard 1 lives on workers 1 and 2 (ring placement).
            trio[1].close()
            trio[2].close()
            with pytest.raises(ShardLostError, match="shard"):
                cluster.knn(trajectories[0], k=1)
            stats = cluster.stats()
            assert 1 in stats["degraded"]

    def test_snapshot_plus_catchup_restores_a_lost_shard(
            self, trio, single_service, trajectories, tmp_path):
        with make_cluster(trio, replication=2) as cluster:
            cluster.add(trajectories[:12])
            cluster.save(str(tmp_path / "snap"))
            trio[1].close()
            cluster.knn(trajectories[0], k=1)  # notice the death
            cluster.add(trajectories[12:])     # post-snapshot adds
            trio[2].close()                    # shard 1 now has no replica
            replacement = ShardWorker()
            try:
                restored = cluster.rejoin(1, address=replacement.address)
                # shard 1 came back from the snapshot prefix + the
                # catch-up tail; worker 1's other shard from worker 0.
                assert restored[1] in ("snapshot", "catchup")
                got = cluster.knn(trajectories[:3], k=5)
                expected = single_service.knn(trajectories[:3], k=5)
                assert got[0].tobytes() == expected[0].tobytes()
                assert got[1].tobytes() == expected[1].tobytes()
            finally:
                replacement.close()

    def test_background_rereplication_heals_the_copy_count(
            self, single_service, trajectories):
        four = [ShardWorker() for _ in range(4)]
        try:
            with ClusterCoordinator([w.address for w in four],
                                    backend="hausdorff", replication=2,
                                    heartbeat_interval=0.1,
                                    heartbeat_timeout=1.0) as cluster:
                cluster.add(trajectories)
                four[0].close()
                deadline = time.monotonic() + 20
                while time.monotonic() < deadline:
                    stats = cluster.stats()
                    if (not stats["underreplicated"]
                            and not stats["degraded"]):
                        break
                    time.sleep(0.1)
                stats = cluster.stats()
                assert stats["underreplicated"] == []
                assert stats["degraded"] == []
                assert stats["rereplications"] >= 1
                expected = single_service.knn(trajectories[:3], k=4)
                got = cluster.knn(trajectories[:3], k=4)
                assert got[0].tobytes() == expected[0].tobytes()
                assert got[1].tobytes() == expected[1].tobytes()
        finally:
            for worker in four:
                worker.close()

    def test_replication_factor_is_validated(self, workers):
        with pytest.raises(ValueError, match="replication"):
            make_cluster(workers, replication=3)
        with pytest.raises(ValueError, match="replication"):
            make_cluster(workers, replication=0)


class TestFailoverEdgeCases:
    def test_worker_dies_during_join_handshake(self):
        """A listener that accepts and immediately hangs up must fail the
        constructor with a transport error, not a hang — and close()
        still runs cleanly afterwards."""
        from repro.api import TransportError

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        address = listener.getsockname()[:2]
        stop = threading.Event()

        def accept_and_drop():
            listener.settimeout(0.2)
            while not stop.is_set():
                try:
                    sock, _peer = listener.accept()
                except socket.timeout:
                    continue
                sock.close()  # dies mid-handshake

        thread = threading.Thread(target=accept_and_drop, daemon=True)
        thread.start()
        try:
            with pytest.raises((TransportError, OSError)):
                ClusterCoordinator([address], backend="hausdorff",
                                   heartbeat_interval=0,
                                   connect_retries=1, retry_wait=0.01)
        finally:
            stop.set()
            thread.join(timeout=5)
            listener.close()

    def test_two_workers_die_in_one_heartbeat_interval(self, single_service,
                                                       trajectories):
        """W=4, R=2, workers 1 and 3 die together: every shard keeps one
        replica, so the heartbeat degrades both without losing a query."""
        four = [ShardWorker() for _ in range(4)]
        try:
            with ClusterCoordinator([w.address for w in four],
                                    backend="hausdorff", replication=2,
                                    heartbeat_interval=0.1,
                                    heartbeat_timeout=1.0,
                                    rereplicate=False) as cluster:
                cluster.add(trajectories)
                four[1].close()
                four[3].close()
                deadline = time.monotonic() + 15
                while (time.monotonic() < deadline
                       and cluster.stats()["alive_workers"] != 2):
                    time.sleep(0.05)
                stats = cluster.stats()
                assert stats["alive_workers"] == 2
                assert stats["degraded"] == []
                expected = single_service.knn(trajectories[:3], k=4)
                got = cluster.knn(trajectories[:3], k=4)
                assert got[0].tobytes() == expected[0].tobytes()
                assert got[1].tobytes() == expected[1].tobytes()
        finally:
            for worker in four:
                worker.close()

    def test_ping_alive_but_command_failing_worker_is_degraded(
            self, single_service, trajectories):
        """Differential diagnosis: a worker that answers ping but errors
        on shard commands is degraded (its replicas cover for it) instead
        of failing the query or surviving as a zombie."""

        class FlakyWorker(ShardWorker):
            def _handlers(self):
                handlers = dict(super()._handlers())

                def broken_knn(_payload):
                    raise RuntimeError("simulated shard fault")

                handlers["knn"] = broken_knn
                return handlers

        flaky = FlakyWorker()
        healthy = ShardWorker()
        try:
            with ClusterCoordinator([flaky.address, healthy.address],
                                    backend="hausdorff", replication=2,
                                    heartbeat_interval=0) as cluster:
                cluster.add(trajectories)
                expected = single_service.knn(trajectories[:3], k=4)
                got = cluster.knn(trajectories[:3], k=4)
                assert got[0].tobytes() == expected[0].tobytes()
                assert got[1].tobytes() == expected[1].tobytes()
                stats = cluster.stats()
                dead = [entry for entry in stats["worker_links"]
                        if not entry["alive"]]
                assert len(dead) == 1
                assert "knn failed" in dead[0]["reason"]
        finally:
            flaky.close()
            healthy.close()

    def test_unreplicated_worker_error_propagates(self, trajectories):
        """R=1 keeps the legacy contract: an error reply with no replica
        to re-route to propagates as RemoteCallError and degrades no one."""

        class FlakyWorker(ShardWorker):
            def _handlers(self):
                handlers = dict(super()._handlers())

                def broken_knn(_payload):
                    raise RuntimeError("simulated shard fault")

                handlers["knn"] = broken_knn
                return handlers

        flaky = FlakyWorker()
        healthy = ShardWorker()
        try:
            with ClusterCoordinator([flaky.address, healthy.address],
                                    backend="hausdorff",
                                    heartbeat_interval=0) as cluster:
                cluster.add(trajectories)
                with pytest.raises(RemoteCallError,
                                   match="simulated shard fault"):
                    cluster.knn(trajectories[0], k=2)
                # No replica could have answered instead, so nobody was
                # degraded: the failure is the request's, not a worker's.
                assert cluster.stats()["alive_workers"] == 2
        finally:
            flaky.close()
            healthy.close()


class TestCloseRegression:
    def test_close_survives_workers_that_died_after_degrade(
            self, trio, trajectories):
        """close(shutdown_workers=True) over a mix of up and dead-after-
        degrade workers: no hang, no FrameError escaping the cascade."""
        cluster = ClusterCoordinator([w.address for w in trio],
                                     backend="hausdorff", replication=2,
                                     heartbeat_interval=0.1,
                                     heartbeat_timeout=1.0)
        cluster.add(trajectories[:6])
        trio[0].close()
        deadline = time.monotonic() + 15
        while (time.monotonic() < deadline
               and cluster.stats()["alive_workers"] != 2):
            time.sleep(0.05)
        start = time.monotonic()
        cluster.close(shutdown_workers=True)  # must not raise
        assert time.monotonic() - start < 10.0
        # Idempotent, still quiet.
        cluster.close()

    def test_close_is_prompt_with_live_heartbeat(self, workers,
                                                 trajectories):
        cluster = make_cluster(workers, heartbeat_interval=0.5,
                               heartbeat_timeout=8.0)
        cluster.add(trajectories[:4])
        start = time.monotonic()
        cluster.close()
        # The old close() joined the heartbeat for heartbeat_timeout+1s;
        # the severed-channel wakeup must beat that by a wide margin.
        assert time.monotonic() - start < 5.0
