"""Tests for the serving layer: sharded kNN parity with the single-process
service, the batched query queue under concurrent callers, and incremental
IVF behaviour through the service stack."""

import threading

import numpy as np
import pytest

from repro.api import (
    DeadlineExceededError,
    QueryQueue,
    QueueFullError,
    ShardedSimilarityService,
    SimilarityService,
    get_backend,
)

from .test_registry import make_trajectories


@pytest.fixture(scope="module")
def trajectories():
    return make_trajectories(n=20, seed=11)


@pytest.fixture(scope="module")
def trajcl_backend(trajectories):
    return get_backend("trajcl", trajectories=trajectories, dim=8, max_len=16,
                       epochs=1, seed=0)


@pytest.fixture(scope="module")
def single_service(trajcl_backend, trajectories):
    return SimilarityService(backend=trajcl_backend).add(trajectories)


@pytest.fixture(scope="module")
def sharded_service(trajcl_backend, trajectories):
    service = ShardedSimilarityService(backend=trajcl_backend, num_workers=3)
    service.add(trajectories)
    yield service
    service.close()


class TestShardedParity:
    def test_knn_identical_to_single_service(self, single_service,
                                             sharded_service, trajectories):
        queries = trajectories[:6]
        d_single, i_single = single_service.knn(queries, k=5)
        d_sharded, i_sharded = sharded_service.knn(queries, k=5)
        np.testing.assert_array_equal(i_single, i_sharded)
        np.testing.assert_allclose(d_single, d_sharded)

    def test_knn_parity_with_exclude_and_dedupe(self, single_service,
                                                sharded_service,
                                                trajectories):
        for kwargs in ({"exclude": 3}, {"dedupe_eps": 1e-9},
                       {"exclude": 3, "dedupe_eps": 1e-9}):
            d_single, i_single = single_service.knn(
                trajectories[3], k=4, **kwargs)
            d_sharded, i_sharded = sharded_service.knn(
                trajectories[3], k=4, **kwargs)
            np.testing.assert_array_equal(i_single, i_sharded)
            np.testing.assert_allclose(d_single, d_sharded)

    def test_distance_backend_parity(self, trajectories):
        single = SimilarityService(backend="hausdorff").add(trajectories)
        with ShardedSimilarityService(backend="hausdorff",
                                      num_workers=2) as sharded:
            sharded.add(trajectories)
            d_single, i_single = single.knn(trajectories[1], k=4, exclude=1)
            d_sharded, i_sharded = sharded.knn(trajectories[1], k=4, exclude=1)
            np.testing.assert_array_equal(i_single, i_sharded)
            np.testing.assert_allclose(d_single, d_sharded)

    def test_more_workers_than_trajectories_pads(self, trajcl_backend,
                                                 trajectories):
        with ShardedSimilarityService(backend=trajcl_backend,
                                      num_workers=4) as sharded:
            sharded.add(trajectories[:2])
            distances, ids = sharded.knn(trajectories[0], k=5, exclude=0)
            assert ids.shape == (1, 5)
            assert (ids[0, 1:] == -1).all()
            assert np.isinf(distances[0, 1:]).all()

    def test_pairwise_matches_single_service(self, single_service,
                                             sharded_service, trajectories):
        queries = trajectories[:4]
        np.testing.assert_allclose(single_service.pairwise(queries),
                                   sharded_service.pairwise(queries))
        np.testing.assert_allclose(
            single_service.pairwise(queries, trajectories[:3]),
            sharded_service.pairwise(queries, trajectories[:3]),
        )

    def test_incremental_add_keeps_parity(self, trajcl_backend, trajectories):
        single = SimilarityService(backend=trajcl_backend)
        with ShardedSimilarityService(backend=trajcl_backend,
                                      num_workers=2) as sharded:
            for chunk in (trajectories[:7], trajectories[7:12],
                          trajectories[12:]):
                single.add(chunk)
                sharded.add(chunk)
            assert len(sharded) == len(single) == len(trajectories)
            assert sum(sharded.shard_sizes) == len(trajectories)
            d_single, i_single = single.knn(trajectories[9], k=6, exclude=9)
            d_sharded, i_sharded = sharded.knn(trajectories[9], k=6, exclude=9)
            np.testing.assert_array_equal(i_single, i_sharded)
            np.testing.assert_allclose(d_single, d_sharded)

    def test_ivf_recall_at_least_single_service(self, trajcl_backend,
                                                trajectories):
        queries = trajectories[:8]
        exact = SimilarityService(backend=trajcl_backend).add(trajectories)
        _, truth = exact.knn(queries, k=3)
        ivf_single = SimilarityService(
            backend=trajcl_backend, index="ivf",
            index_kwargs={"n_lists": 4, "n_probe": 2, "seed": 0},
        ).add(trajectories)
        _, approx_single = ivf_single.knn(queries, k=3)
        with ShardedSimilarityService(
            backend=trajcl_backend, index="ivf", num_workers=2,
            index_kwargs={"n_lists": 4, "n_probe": 2, "seed": 0},
        ) as sharded:
            sharded.add(trajectories)
            _, approx_sharded = sharded.knn(queries, k=3)

        def recall(approx):
            return sum(
                len(set(approx[i]) & set(truth[i])) for i in range(len(truth))
            ) / truth.size

        assert recall(approx_sharded) >= recall(approx_single)

    def test_empty_query_batch(self, sharded_service):
        distances, ids = sharded_service.knn([], k=3)
        assert distances.shape == (0, 3)
        assert ids.shape == (0, 3)

    def test_worker_error_keeps_rpc_in_sync(self, sharded_service,
                                            trajectories):
        # A failing command must drain every shard's reply before raising,
        # or the next command would read a stale buffered response.
        with pytest.raises(RuntimeError, match="unknown command"):
            sharded_service._broadcast(
                "no-such-command", [None] * sharded_service.num_workers)
        assert sum(sharded_service._broadcast(
            "len", [None] * sharded_service.num_workers)
        ) == len(trajectories)
        _, ids = sharded_service.knn(trajectories[0], k=3)
        assert ids.shape == (1, 3)

    def test_validation_and_lifecycle(self, trajcl_backend, trajectories):
        with pytest.raises(ValueError, match="num_workers"):
            ShardedSimilarityService(backend=trajcl_backend, num_workers=0)
        service = ShardedSimilarityService(backend=trajcl_backend,
                                           num_workers=2)
        with pytest.raises(RuntimeError, match="empty"):
            service.knn(trajectories[0], k=1)
        service.close()
        service.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            service.add(trajectories)

    def test_close_survives_a_dead_worker(self, trajectories):
        """close() must stay bounded when a worker already died — reap it,
        never hang on the handshake or the join."""
        import time

        service = ShardedSimilarityService(backend="hausdorff",
                                           num_workers=2)
        service.add(trajectories)
        victim = service._processes[0]
        victim.terminate()
        victim.join(timeout=5)
        start = time.monotonic()
        service.close()
        assert time.monotonic() - start < 10.0
        service.close()  # still idempotent afterwards
        assert all(not p.is_alive() for p in service._processes)

    def test_stats(self, sharded_service, trajectories):
        stats = sharded_service.stats()
        assert stats["workers"] == 3
        assert stats["size"] == len(trajectories)
        assert sum(stats["shard_sizes"]) == len(trajectories)


class TestWireTransportParity:
    """The binary codec and shared-memory transport must be invisible to
    callers: bit-identical answers, counters in stats, no /dev/shm litter."""

    @staticmethod
    def _shm_segments():
        import glob
        import os
        return {os.path.basename(p)
                for p in glob.glob("/dev/shm/repro_wire_*")}

    def test_tiny_shm_threshold_parity_and_cleanup(self, trajcl_backend,
                                                   single_service,
                                                   trajectories):
        import os
        check_fs = os.path.isdir("/dev/shm")
        baseline = self._shm_segments() if check_fs else set()
        service = ShardedSimilarityService(backend=trajcl_backend,
                                           num_workers=2, shm_threshold=1)
        try:
            service.add(trajectories)
            queries = trajectories[:5]
            d_single, i_single = single_service.knn(queries, k=4)
            d_sharded, i_sharded = service.knn(queries, k=4)
            assert i_single.tobytes() == i_sharded.tobytes()
            np.testing.assert_allclose(d_single, d_sharded)
            assert service.stats()["transport"]["shm_hits"] > 0
        finally:
            service.close()
        if check_fs:
            assert self._shm_segments() <= baseline

    def test_stats_expose_transport_counters(self, sharded_service):
        transport = sharded_service.stats()["transport"]
        for key in ("bytes_sent", "frames_sent", "bytes_recv",
                    "frames_recv", "shm_hits"):
            assert key in transport
            assert transport[key] >= 0
        assert transport["frames_sent"] > 0
        assert transport["bytes_sent"] > transport["frames_sent"] * 8


class TestQueryQueue:
    def test_concurrent_callers_get_correct_results(self, single_service,
                                                    trajectories):
        expected = {
            i: single_service.knn(trajectories[i], k=4, exclude=i)
            for i in range(len(trajectories))
        }
        results = {}
        errors = []

        def caller(i):
            try:
                barrier.wait(timeout=10)
                results[i] = queue.knn(trajectories[i], k=4, exclude=i,
                                       timeout=30)
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        barrier = threading.Barrier(len(trajectories))
        with QueryQueue(single_service, max_batch=32,
                        max_wait=0.05) as queue:
            threads = [threading.Thread(target=caller, args=(i,))
                       for i in range(len(trajectories))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            stats = queue.queue_stats
        assert not errors
        assert stats.queries == len(trajectories)
        for i, (row_d, row_i) in results.items():
            exp_d, exp_i = expected[i]
            np.testing.assert_array_equal(row_i, exp_i[0])
            np.testing.assert_allclose(row_d, exp_d[0])

    def test_coalesces_submissions_into_batches(self, single_service,
                                                trajectories):
        with QueryQueue(single_service, max_batch=64, max_wait=0.5) as queue:
            futures = [queue.submit(t, k=3) for t in trajectories]
            for future in futures:
                future.result(timeout=30)
            stats = queue.queue_stats
        assert stats.queries == len(trajectories)
        # The 0.5s window is far longer than the submission loop, so the
        # flush thread must have coalesced (at most one straggler batch).
        assert stats.batches <= 2
        assert stats.largest_batch >= len(trajectories) - 1

    def test_groups_by_query_signature(self, single_service, trajectories):
        with QueryQueue(single_service, max_batch=64, max_wait=0.5) as queue:
            mixed = [queue.submit(trajectories[0], k=2),
                     queue.submit(trajectories[1], k=5),
                     queue.submit(trajectories[2], k=2)]
            (d2a, i2a), (d5, i5), (d2b, i2b) = [
                f.result(timeout=30) for f in mixed
            ]
        assert len(i2a) == len(i2b) == 2
        assert len(i5) == 5

    def test_errors_propagate_to_futures(self, single_service, trajectories):
        with QueryQueue(single_service, max_wait=0.01) as queue:
            future = queue.submit(trajectories[0], k=0)  # invalid k
            with pytest.raises(ValueError, match="k must be"):
                future.result(timeout=30)

    def test_cancelled_future_does_not_kill_the_queue(self, single_service,
                                                      trajectories):
        with QueryQueue(single_service, max_batch=8, max_wait=0.2) as queue:
            doomed = queue.submit(trajectories[0], k=2)
            assert doomed.cancel()
            row_d, row_i = queue.knn(trajectories[1], k=2, timeout=30)
            assert row_i.shape == (2,)
        assert queue.queue_stats.queries == 1  # the cancelled query never ran

    def test_close_drains_then_refuses(self, single_service, trajectories):
        queue = QueryQueue(single_service, max_wait=0.2)
        future = queue.submit(trajectories[0], k=2)
        queue.close()
        assert future.result(timeout=30)[1].shape == (2,)
        with pytest.raises(RuntimeError, match="closed"):
            queue.submit(trajectories[0], k=2)

    def test_works_over_sharded_service(self, sharded_service, single_service,
                                        trajectories):
        with QueryQueue(sharded_service, max_batch=16, max_wait=0.05) as queue:
            futures = [queue.submit(t, k=3, exclude=i)
                       for i, t in enumerate(trajectories[:6])]
            rows = [f.result(timeout=30) for f in futures]
        for i, (row_d, row_i) in enumerate(rows):
            exp_d, exp_i = single_service.knn(trajectories[i], k=3, exclude=i)
            np.testing.assert_array_equal(row_i, exp_i[0])
            np.testing.assert_allclose(row_d, exp_d[0])

    def test_validation(self, single_service):
        with pytest.raises(ValueError, match="max_batch"):
            QueryQueue(single_service, max_batch=0)
        with pytest.raises(ValueError, match="max_wait"):
            QueryQueue(single_service, max_wait=-1.0)


class TestQueuePairwise:
    def test_concurrent_pairwise_coalesce_into_one_call(self, single_service,
                                                        trajectories):
        calls = []
        original = single_service.pairwise

        def counting_pairwise(queries, database=None):
            calls.append(len(queries))
            return original(queries, database)

        full = original(trajectories[:6])
        single_service.pairwise = counting_pairwise
        try:
            with QueryQueue(single_service, max_batch=16,
                            max_wait=0.5) as queue:
                futures = [queue.submit_pairwise(trajectories[i])
                           for i in range(6)]
                rows = [f.result(timeout=30) for f in futures]
        finally:
            single_service.pairwise = original
        # One stacked service call for the whole burst (at most one
        # straggler flush), not six.
        assert len(calls) <= 2
        assert sum(calls) == 6
        for i, block in enumerate(rows):
            assert block.shape == (1, len(trajectories))
            np.testing.assert_allclose(block[0], full[i])

    def test_multi_query_blocks_split_correctly(self, single_service,
                                                trajectories):
        with QueryQueue(single_service, max_batch=16, max_wait=0.5) as queue:
            first = queue.submit_pairwise(trajectories[:2])
            second = queue.submit_pairwise(trajectories[2:5])
            a = first.result(timeout=30)
            b = second.result(timeout=30)
        full = single_service.pairwise(trajectories[:5])
        np.testing.assert_allclose(a, full[:2])
        np.testing.assert_allclose(b, full[2:5])

    def test_explicit_database_is_served_unshared(self, single_service,
                                                  trajectories):
        with QueryQueue(single_service, max_wait=0.05) as queue:
            block = queue.pairwise(trajectories[:2], trajectories[5:9],
                                   timeout=30)
        np.testing.assert_allclose(
            block, single_service.pairwise(trajectories[:2],
                                           trajectories[5:9]))

    def test_mixed_knn_and_pairwise_batch(self, single_service, trajectories):
        with QueryQueue(single_service, max_batch=16, max_wait=0.3) as queue:
            knn_future = queue.submit(trajectories[0], k=3)
            matrix_future = queue.submit_pairwise(trajectories[1])
            row_d, row_i = knn_future.result(timeout=30)
            block = matrix_future.result(timeout=30)
        exp_d, exp_i = single_service.knn(trajectories[0], k=3)
        np.testing.assert_array_equal(row_i, exp_i[0])
        np.testing.assert_allclose(block,
                                   single_service.pairwise(trajectories[1]))

    def test_pairwise_over_sharded_service(self, sharded_service,
                                           single_service, trajectories):
        with QueryQueue(sharded_service, max_batch=8, max_wait=0.05) as queue:
            futures = [queue.submit_pairwise(trajectories[i])
                       for i in range(4)]
            rows = [f.result(timeout=30) for f in futures]
        full = single_service.pairwise(trajectories[:4])
        for i, block in enumerate(rows):
            np.testing.assert_allclose(block[0], full[i])

    def test_pairwise_errors_propagate(self, single_service):
        with QueryQueue(single_service, max_wait=0.01) as queue:
            future = queue.submit_pairwise(
                np.zeros((3, 2)), database=object())  # unusable database
            with pytest.raises(Exception):
                future.result(timeout=30)
        # The flush thread survived the failure.
        assert queue.queue_stats.batches >= 0


class _GatedService:
    """Wraps a service so knn blocks until released — makes queue-depth
    tests deterministic instead of racing the flush thread."""

    def __init__(self, inner):
        self.inner = inner
        self.started = threading.Event()
        self.gate = threading.Event()

    def knn(self, queries, k, exclude=None, dedupe_eps=None):
        self.started.set()
        assert self.gate.wait(timeout=30)
        return self.inner.knn(queries, k, exclude=exclude,
                              dedupe_eps=dedupe_eps)


class TestQueueAdmission:
    """Bounded admission (max_pending) and per-request deadlines."""

    def test_validation(self, single_service):
        with pytest.raises(ValueError, match="max_pending"):
            QueryQueue(single_service, max_pending=0)

    def test_queue_full_sheds_and_counts(self, single_service, trajectories):
        gated = _GatedService(single_service)
        with QueryQueue(gated, max_batch=1, max_wait=0.001,
                        max_pending=2) as queue:
            first = queue.submit(trajectories[0], k=2)
            # The flush thread is now parked inside the gated knn; anything
            # submitted from here on sits in the pending deque.
            assert gated.started.wait(timeout=30)
            second = queue.submit(trajectories[1], k=2)
            third = queue.submit(trajectories[2], k=2)
            with pytest.raises(QueueFullError, match="full"):
                queue.submit(trajectories[3], k=2)
            assert queue.pending == 2
            gated.gate.set()
            for future in (first, second, third):
                distances, ids = future.result(timeout=30)
                assert ids.shape == (2,)
            stats = queue.queue_stats
        assert stats.rejected == 1
        assert stats.queries == 3

    def test_expired_deadline_fails_future(self, single_service,
                                           trajectories):
        import time

        with QueryQueue(single_service, max_wait=0.01) as queue:
            expired = queue.submit(trajectories[0], k=2,
                                   deadline=time.monotonic() - 1.0)
            alive = queue.submit(trajectories[1], k=2,
                                 deadline=time.monotonic() + 30.0)
            with pytest.raises(DeadlineExceededError, match="deadline"):
                expired.result(timeout=30)
            distances, ids = alive.result(timeout=30)
            assert ids.shape == (2,)
            stats = queue.queue_stats
        assert stats.expired == 1
        # The expired entry never reached the service.
        assert stats.queries == 1

    def test_expired_pairwise_deadline(self, single_service, trajectories):
        import time

        with QueryQueue(single_service, max_wait=0.01) as queue:
            future = queue.submit_pairwise(trajectories[0],
                                           deadline=time.monotonic() - 1.0)
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=30)
        assert queue.queue_stats.expired == 1

    def test_counters_surface_in_stats(self, single_service, trajectories):
        with QueryQueue(single_service, max_wait=0.01,
                        max_pending=8) as queue:
            queue.knn(trajectories[0], k=2, timeout=30)
            report = queue.stats()["queue"]
        assert {"queries", "batches", "largest_batch", "rejected",
                "expired", "pending"} <= set(report)
        assert report["rejected"] == 0
        assert report["expired"] == 0
        assert report["pending"] == 0


class TestUnifiedStats:
    """Every serving layer answers stats() on one shared key set, so
    cluster/fleet health reporting never special-cases a layer."""

    COMMON_KEYS = {"type", "backend", "index", "size", "cache"}

    def test_single_sharded_and_queue_share_the_shape(self, single_service,
                                                      sharded_service,
                                                      trajectories):
        with QueryQueue(single_service, max_wait=0.01) as queue:
            queue.knn(trajectories[0], k=2, timeout=30)
            reports = {
                "single": single_service.stats(),
                "sharded": sharded_service.stats(),
                "queue": queue.stats(),
            }
        for label, stats in reports.items():
            assert self.COMMON_KEYS <= set(stats), label
            assert stats["backend"] == "trajcl", label
            assert stats["size"] == len(trajectories), label
            assert set(stats["cache"]) == {"hits", "misses", "size",
                                           "maxsize"}, label
        assert reports["queue"]["queue"]["queries"] == 1
        # The sharded breakdown covers the whole database.
        shards = reports["sharded"]["shards"]
        assert len(shards) == 3
        assert sum(entry["size"] for entry in shards) == len(trajectories)
        assert reports["sharded"]["cache"]["misses"] > 0

    def test_remote_client_relays_the_shape(self, single_service,
                                            trajectories):
        from repro.api import RemoteSimilarityClient, SimilarityServer

        with SimilarityServer(single_service) as server:
            with RemoteSimilarityClient(*server.address) as client:
                stats = client.stats()
        assert self.COMMON_KEYS <= set(stats)
        assert stats["requests"] >= 1
        assert stats["size"] == len(trajectories)

    def test_stats_probe_does_not_desync_in_flight_queries(
            self, single_service, sharded_service, trajectories):
        """Sharded stats() now does per-worker RPC over the same pipes the
        query path uses; the internal RPC lock must keep a concurrent
        probe (e.g. a server handler thread beside a QueryQueue flush
        thread) from interleaving frames with a kNN broadcast."""
        expected = single_service.knn(trajectories[:2], k=3)
        errors = []
        stop = threading.Event()

        def probe():
            try:
                while not stop.is_set():
                    assert sharded_service.stats()["size"] == \
                        len(trajectories)
            except Exception as error:  # surfaced below
                errors.append(error)

        thread = threading.Thread(target=probe)
        thread.start()
        try:
            for _ in range(50):
                got = sharded_service.knn(trajectories[:2], k=3)
                np.testing.assert_array_equal(got[1], expected[1])
                np.testing.assert_allclose(got[0], expected[0])
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not errors


class TestStatsLockScope:
    """Regression tests for the unlocked id-bookkeeping commit that
    `repro lint` (C202) flagged: add() used to extend _shard_ids and bump
    _size outside any lock, so a concurrent stats() probe could observe
    shard_sizes summing to something other than size."""

    def test_stats_never_observes_a_half_committed_add(self, trajectories):
        with ShardedSimilarityService(backend=get_backend("hausdorff"),
                                      num_workers=3) as service:
            service.add(trajectories[:3])
            errors = []
            stop = threading.Event()

            def probe():
                try:
                    while not stop.is_set():
                        stats = service.stats()
                        assert sum(stats["shard_sizes"]) == stats["size"], \
                            (stats["shard_sizes"], stats["size"])
                except Exception as error:  # surfaced below
                    errors.append(error)

            thread = threading.Thread(target=probe, daemon=True)
            thread.start()
            try:
                for i in range(25):
                    service.add([trajectories[i % len(trajectories)]])
            finally:
                stop.set()
                thread.join(timeout=30)
            assert not errors, errors
            final = service.stats()
            assert final["size"] == 3 + 25
            assert sum(final["shard_sizes"]) == final["size"]

    def test_shard_sizes_snapshot_is_atomic(self, sharded_service,
                                            trajectories):
        sizes = sharded_service.shard_sizes
        assert sum(sizes) == len(trajectories)
