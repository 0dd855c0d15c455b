"""Tests for the HTTP/JSON gateway: JSON round-trip parity with the
wrapped service, traffic controls (rate limiting, shedding, deadlines),
input validation, and the Prometheus metrics exposition."""

import json
import re
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import QueryQueue, SimilarityService
from repro.api.gateway import (
    AdmissionController,
    LatencyHistogram,
    SimilarityGateway,
    TokenBucketLimiter,
)

from .test_registry import make_trajectories


# ----------------------------------------------------------------------
# HTTP helpers
# ----------------------------------------------------------------------
def request(gateway, path, body=None, headers=None, method=None):
    """One HTTP request; returns (status, headers, raw body) and never
    raises on 4xx/5xx so tests can assert on error replies."""
    data = None
    if body is not None:
        data = body if isinstance(body, bytes) else json.dumps(body).encode()
    req = urllib.request.Request(gateway.url + path, data=data,
                                 headers=headers or {}, method=method)
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        with error:
            return error.code, dict(error.headers), error.read()


def request_json(gateway, path, body=None, headers=None, method=None):
    status, reply_headers, raw = request(gateway, path, body, headers, method)
    return status, reply_headers, json.loads(raw)


def as_lists(trajectories):
    return [np.asarray(t).tolist() for t in trajectories]


class _SlowService:
    """Delays every knn so deadline plumbing is observable."""

    def __init__(self, inner, delay):
        self.inner = inner
        self.delay = delay

    def knn(self, queries, k, exclude=None, dedupe_eps=None):
        time.sleep(self.delay)
        return self.inner.knn(queries, k=k, exclude=exclude,
                              dedupe_eps=dedupe_eps)


class _GatedService:
    """Blocks knn until released — holds a request in flight on demand."""

    def __init__(self, inner):
        self.inner = inner
        self.started = threading.Event()
        self.gate = threading.Event()

    def knn(self, queries, k, exclude=None, dedupe_eps=None):
        self.started.set()
        assert self.gate.wait(timeout=30)
        return self.inner.knn(queries, k=k, exclude=exclude,
                              dedupe_eps=dedupe_eps)

    def pairwise(self, queries, database=None):
        return self.inner.pairwise(queries, database)


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def trajectories():
    return make_trajectories(n=16, seed=3)


@pytest.fixture(scope="module")
def service(trajectories):
    return SimilarityService(backend="hausdorff").add(trajectories)


@pytest.fixture()
def gateway(service):
    with SimilarityGateway(service) as gw:
        yield gw


# ----------------------------------------------------------------------
# JSON round-trip parity
# ----------------------------------------------------------------------
class TestRoutes:
    def test_knn_matches_local_service(self, gateway, service, trajectories):
        status, _, reply = request_json(
            gateway, "/knn",
            {"queries": as_lists(trajectories[:3]), "k": 4})
        assert status == 200
        expected_d, expected_i = service.knn(trajectories[:3], k=4)
        np.testing.assert_array_equal(np.asarray(reply["ids"]), expected_i)
        np.testing.assert_allclose(np.asarray(reply["distances"]), expected_d)
        assert reply["k"] == 4

    def test_knn_exclude_and_dedupe(self, gateway, service, trajectories):
        status, _, reply = request_json(
            gateway, "/knn",
            {"queries": as_lists(trajectories[2:3]), "k": 3, "exclude": 2,
             "dedupe_eps": 1e-9})
        assert status == 200
        expected_d, expected_i = service.knn(trajectories[2], k=3, exclude=2,
                                             dedupe_eps=1e-9)
        np.testing.assert_array_equal(np.asarray(reply["ids"]), expected_i)
        np.testing.assert_allclose(np.asarray(reply["distances"]), expected_d)
        assert 2 not in reply["ids"][0]

    def test_single_trajectory_body(self, gateway, service, trajectories):
        # A bare [[x, y], ...] list (not wrapped in a batch) is one query.
        status, _, reply = request_json(
            gateway, "/knn",
            {"queries": np.asarray(trajectories[0]).tolist(), "k": 2})
        assert status == 200
        assert np.asarray(reply["ids"]).shape == (1, 2)

    def test_default_k(self, gateway, trajectories):
        status, _, reply = request_json(
            gateway, "/knn", {"queries": as_lists(trajectories[:1])})
        assert status == 200
        assert reply["k"] == 10

    def test_pairwise_matches_local_service(self, gateway, service,
                                            trajectories):
        status, _, reply = request_json(
            gateway, "/pairwise", {"queries": as_lists(trajectories[:2])})
        assert status == 200
        np.testing.assert_allclose(np.asarray(reply["distances"]),
                                   service.pairwise(trajectories[:2]))

    def test_pairwise_explicit_database(self, gateway, service, trajectories):
        status, _, reply = request_json(
            gateway, "/pairwise",
            {"queries": as_lists(trajectories[:2]),
             "database": as_lists(trajectories[5:8])})
        assert status == 200
        np.testing.assert_allclose(
            np.asarray(reply["distances"]),
            service.pairwise(trajectories[:2], trajectories[5:8]))

    def test_add_grows_the_database(self, trajectories):
        own = SimilarityService(backend="hausdorff").add(trajectories[:10])
        with SimilarityGateway(own) as gw:
            status, _, reply = request_json(
                gw, "/add", {"trajectories": as_lists(trajectories[10:13])})
            assert status == 200
            assert reply == {"size": 13, "added": 3}
            status, _, reply = request_json(
                gw, "/knn", {"queries": as_lists(trajectories[12:13]),
                             "k": 1})
        assert reply["ids"][0][0] == 12

    def test_stats_reports_service_and_gateway(self, gateway, trajectories):
        request_json(gateway, "/knn",
                     {"queries": as_lists(trajectories[:1]), "k": 2})
        status, _, stats = request_json(gateway, "/stats")
        assert status == 200
        assert stats["backend"] == "hausdorff"
        assert stats["size"] == len(trajectories)
        gw_stats = stats["gateway"]
        assert gw_stats["requests_total"] >= 1
        assert gw_stats["inflight"] >= 0
        assert {"qps", "shed_total", "ratelimited_total",
                "deadline_expired_total"} <= set(gw_stats)

    def test_healthz_ok(self, gateway, trajectories):
        status, _, reply = request_json(gateway, "/healthz")
        assert status == 200
        assert reply["status"] == "ok"
        assert reply["size"] == len(trajectories)

    def test_index_lists_routes(self, gateway):
        status, _, reply = request_json(gateway, "/")
        assert status == 200
        assert "/knn" in reply["routes"]["POST"]

    def test_unknown_route_404(self, gateway):
        status, _, reply = request_json(gateway, "/nope", {"x": 1})
        assert status == 404
        assert "no such route" in reply["error"]

    def test_method_mismatch_405(self, gateway, trajectories):
        status, headers, _ = request_json(gateway, "/knn")  # GET
        assert status == 405
        assert headers["Allow"] == "POST"
        status, headers, _ = request_json(gateway, "/stats", {"x": 1})  # POST
        assert status == 405
        assert headers["Allow"] == "GET"


class TestValidation:
    def test_malformed_json_400(self, gateway):
        status, _, reply = request_json(gateway, "/knn", b"{not json")
        assert status == 400
        assert "malformed JSON" in reply["error"]

    def test_non_object_body_400(self, gateway):
        status, _, reply = request_json(gateway, "/knn", b"[1, 2, 3]")
        assert status == 400
        assert "must be an object" in reply["error"]

    def test_missing_queries_400(self, gateway):
        status, _, reply = request_json(gateway, "/knn", {"k": 3})
        assert status == 400
        assert "'queries'" in reply["error"]

    def test_non_numeric_points_400(self, gateway):
        status, _, reply = request_json(
            gateway, "/knn", {"queries": [[["a", "b"]]], "k": 2})
        assert status == 400

    def test_bad_shape_400(self, gateway):
        status, _, reply = request_json(
            gateway, "/knn", {"queries": [[[1, 2, 3]]], "k": 2})
        assert status == 400
        assert "shape" in reply["error"]

    def test_non_finite_points_400(self, gateway):
        status, _, reply = request_json(
            gateway, "/knn", {"queries": [[[1, float("nan")]]], "k": 2})
        assert status == 400
        assert "non-finite" in reply["error"]

    def test_bad_k_400(self, gateway, trajectories):
        for bad_k in (0, "three"):
            status, _, reply = request_json(
                gateway, "/knn",
                {"queries": as_lists(trajectories[:1]), "k": bad_k})
            assert status == 400

    def test_oversized_body_413(self, service, trajectories):
        with SimilarityGateway(service, max_body=256) as gw:
            status, _, reply = request_json(
                gw, "/knn", {"queries": as_lists(trajectories[:8]), "k": 2})
            assert status == 413
            assert "exceeds" in reply["error"]
            # The gateway must stay usable for well-sized requests.
            status, _, _ = request_json(gw, "/healthz")
            assert status == 200

    def test_missing_content_length_411(self, gateway):
        with socket.create_connection(gateway.address, timeout=10) as sock:
            sock.sendall(b"POST /knn HTTP/1.1\r\nHost: t\r\n\r\n")
            reply = sock.recv(4096)
        assert b"411" in reply.split(b"\r\n", 1)[0]

    def test_bad_deadline_header_400(self, gateway, trajectories):
        for bad in ("soon", "-5"):
            status, _, reply = request_json(
                gateway, "/knn",
                {"queries": as_lists(trajectories[:1]), "k": 2},
                headers={"X-Deadline-Ms": bad})
            assert status == 400
            assert "X-Deadline-Ms" in reply["error"]


# ----------------------------------------------------------------------
# Traffic controls
# ----------------------------------------------------------------------
class TestTrafficControls:
    def test_flood_sheds_with_429_and_correct_survivors(self, service,
                                                        trajectories):
        gated = _GatedService(service)
        body = {"queries": as_lists(trajectories[:1]), "k": 3}
        expected_d, expected_i = service.knn(trajectories[0], k=3)
        with SimilarityGateway(gated, max_inflight=1) as gw:
            outcomes = []

            def blocked():
                outcomes.append(request_json(gw, "/knn", body))

            holder = threading.Thread(target=blocked)
            holder.start()
            assert gated.started.wait(timeout=30)
            # The slot is taken: every concurrent request sheds immediately.
            shed = [request_json(gw, "/knn", body) for _ in range(4)]
            gated.gate.set()
            holder.join(timeout=30)
            assert not holder.is_alive()
            for status, headers, reply in shed:
                assert status == 429
                assert "Retry-After" in headers
                assert "overloaded" in reply["error"]
            status, _, reply = outcomes[0]
            assert status == 200
            np.testing.assert_array_equal(np.asarray(reply["ids"]),
                                          expected_i)
            _, _, metrics = request(gw, "/metrics")
        assert b"repro_gateway_shed_total 4" in metrics

    def test_rate_limit_isolates_clients(self, service, trajectories):
        body = {"queries": as_lists(trajectories[:1]), "k": 2}
        with SimilarityGateway(service, rate_limit=0.001, burst=1) as gw:
            status, _, _ = request_json(gw, "/knn", body,
                                        headers={"X-Api-Key": "alice"})
            assert status == 200
            status, headers, reply = request_json(
                gw, "/knn", body, headers={"X-Api-Key": "alice"})
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert "rate limit" in reply["error"]
            # A different client still has a full bucket.
            status, _, _ = request_json(gw, "/knn", body,
                                        headers={"X-Api-Key": "bob"})
            assert status == 200
            # GET routes are never rate limited.
            status, _, _ = request_json(gw, "/healthz",
                                        headers={"X-Api-Key": "alice"})
            assert status == 200
            _, _, metrics = request(gw, "/metrics")
        assert b"repro_gateway_ratelimited_total 1" in metrics

    def test_deadline_expiry_direct_service_504(self, service, trajectories):
        slow = _SlowService(service, delay=0.15)
        with SimilarityGateway(slow) as gw:
            status, _, reply = request_json(
                gw, "/knn", {"queries": as_lists(trajectories[:1]), "k": 2},
                headers={"X-Deadline-Ms": "30"})
            assert status == 504
            assert "deadline" in reply["error"]
            _, _, metrics = request(gw, "/metrics")
        assert b"repro_gateway_deadline_expired_total 1" in metrics

    def test_deadline_expiry_through_query_queue_504(self, service,
                                                     trajectories):
        # max_wait far beyond the deadline: the entry expires while queued,
        # so the flush thread drops it without a service call.
        with QueryQueue(service, max_batch=64, max_wait=0.25) as queue:
            with SimilarityGateway(queue) as gw:
                status, _, reply = request_json(
                    gw, "/knn",
                    {"queries": as_lists(trajectories[:1]), "k": 2},
                    headers={"X-Deadline-Ms": "20"})
                assert status == 504
                assert "deadline" in reply["error"]
            assert queue.queue_stats.expired == 1

    def test_generous_deadline_succeeds(self, gateway, service, trajectories):
        status, _, reply = request_json(
            gateway, "/knn", {"queries": as_lists(trajectories[:1]), "k": 2},
            headers={"X-Deadline-Ms": "30000"})
        assert status == 200
        _, expected_i = service.knn(trajectories[0], k=2)
        np.testing.assert_array_equal(np.asarray(reply["ids"]), expected_i)


class TestQueueIntegration:
    def test_knn_parity_through_queue(self, service, trajectories):
        body = {"queries": as_lists(trajectories[:4]), "k": 3, "exclude": 1}
        with QueryQueue(service, max_batch=16, max_wait=0.01) as queue:
            with SimilarityGateway(queue) as gw:
                status, _, reply = request_json(gw, "/knn", body)
                assert status == 200
                stats = request_json(gw, "/stats")[2]
        expected_d, expected_i = service.knn(trajectories[:4], k=3, exclude=1)
        np.testing.assert_array_equal(np.asarray(reply["ids"]), expected_i)
        np.testing.assert_allclose(np.asarray(reply["distances"]), expected_d)
        assert stats["queue"]["queries"] == 4  # fed query by query

    def test_pairwise_and_full_queue_shed(self, service, trajectories):
        gated = _GatedService(service)
        body = {"queries": as_lists(trajectories[:1]), "k": 2}
        with QueryQueue(gated, max_batch=1, max_wait=0.001,
                        max_pending=1) as queue:
            with SimilarityGateway(queue) as gw:
                matrix = request_json(
                    gw, "/pairwise",
                    {"queries": as_lists(trajectories[:2])})[2]
                opener = threading.Thread(
                    target=request_json, args=(gw, "/knn", body))
                opener.start()
                assert gated.started.wait(timeout=30)
                filler = threading.Thread(
                    target=request_json, args=(gw, "/knn", body))
                filler.start()
                deadline = time.monotonic() + 30
                while (queue.pending < 1
                       and time.monotonic() < deadline):
                    time.sleep(0.005)
                # Flush thread busy + one pending: the next request hits
                # QueueFullError and the gateway sheds it as 429.
                status, headers, reply = request_json(gw, "/knn", body)
                assert status == 429
                assert "Retry-After" in headers
                assert "full" in reply["error"]
                gated.gate.set()
                opener.join(timeout=30)
                filler.join(timeout=30)
        np.testing.assert_allclose(np.asarray(matrix["distances"]),
                                   service.pairwise(trajectories[:2]))


# ----------------------------------------------------------------------
# Metrics and health
# ----------------------------------------------------------------------
METRIC_LINE = re.compile(
    r"^[A-Za-z_:][A-Za-z0-9_:]*(\{[^}]*\})? -?[0-9.+eEInf]+$")


class TestMetrics:
    def test_exposition_format(self, gateway, trajectories):
        request_json(gateway, "/knn",
                     {"queries": as_lists(trajectories[:2]), "k": 3})
        request_json(gateway, "/healthz")
        status, headers, raw = request(gateway, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = raw.decode()
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
            else:
                assert METRIC_LINE.match(line), line
        for name in ("repro_gateway_requests_total",
                     "repro_gateway_request_latency_ms_bucket",
                     "repro_gateway_request_latency_ms_count",
                     "repro_gateway_latency_quantile_ms",
                     "repro_gateway_qps",
                     "repro_gateway_inflight",
                     "repro_gateway_shed_total",
                     "repro_gateway_queue_depth",
                     "repro_gateway_cache_hit_rate",
                     "repro_gateway_database_size",
                     "repro_gateway_uptime_seconds"):
            assert name in text, name
        assert 'repro_gateway_requests_total{route="/knn",status="200"} 1' \
            in text
        assert f"repro_gateway_database_size {len(trajectories)}" in text
        assert 'le="+Inf"' in text
        for quantile in ("0.5", "0.95", "0.99"):
            assert (f'repro_gateway_latency_quantile_ms{{route="/knn",'
                    f'quantile="{quantile}"}}') in text

    def test_histogram_buckets_are_cumulative(self, gateway, trajectories):
        for _ in range(5):
            request_json(gateway, "/knn",
                         {"queries": as_lists(trajectories[:1]), "k": 2})
        text = request(gateway, "/metrics")[2].decode()
        buckets = [int(line.rsplit(" ", 1)[1])
                   for line in text.splitlines()
                   if line.startswith(
                       'repro_gateway_request_latency_ms_bucket'
                       '{route="/knn"')]
        assert buckets == sorted(buckets)
        assert buckets[-1] == 5  # +Inf bucket counts everything

    def test_queue_metrics_surface(self, service, trajectories):
        with QueryQueue(service, max_wait=0.01) as queue:
            with SimilarityGateway(queue) as gw:
                request_json(gw, "/knn",
                             {"queries": as_lists(trajectories[:1]), "k": 2})
                text = request(gw, "/metrics")[2].decode()
        assert "repro_gateway_queue_depth 0" in text
        assert "repro_gateway_queue_rejected_total 0" in text
        assert "repro_gateway_queue_expired_total 0" in text

    def test_healthz_degraded_503_and_shard_up(self):
        class DegradedService:
            def stats(self):
                return {"size": 40, "degraded": [1],
                        "shards": [{"shard": 0, "size": 20},
                                   {"shard": 1, "size": 20}]}

        with SimilarityGateway(DegradedService()) as gw:
            status, _, reply = request_json(gw, "/healthz")
            assert status == 503
            assert reply["status"] == "degraded"
            assert reply["degraded"] == [1]
            text = request(gw, "/metrics")[2].decode()
        assert 'repro_gateway_shard_up{shard="0"} 1' in text
        assert 'repro_gateway_shard_up{shard="1"} 0' in text

    def test_healthz_replica_health_and_shard_replicas_metric(self):
        """A replicated cluster's stats surface per-shard replica rows in
        /healthz and a healthy-replica gauge in /metrics; an
        under-replicated (but fully served) cluster stays 200."""

        class ReplicatedService:
            def stats(self):
                return {
                    "size": 40, "degraded": [], "replication": 2,
                    "underreplicated": [1],
                    "shards": [
                        {"shard": 0, "size": 20, "alive": True,
                         "healthy_replicas": 2, "replicas": []},
                        {"shard": 1, "size": 20, "alive": True,
                         "healthy_replicas": 1, "replicas": []},
                    ],
                }

        with SimilarityGateway(ReplicatedService()) as gw:
            status, _, reply = request_json(gw, "/healthz")
            assert status == 200
            assert reply["status"] == "underreplicated"
            assert reply["replication"] == 2
            assert reply["underreplicated"] == [1]
            assert reply["shards"] == [
                {"shard": 0, "healthy_replicas": 2, "alive": True},
                {"shard": 1, "healthy_replicas": 1, "alive": True}]
            text = request(gw, "/metrics")[2].decode()
        assert 'repro_gateway_shard_replicas{shard="0"} 2' in text
        assert 'repro_gateway_shard_replicas{shard="1"} 1' in text

    def test_shard_lost_maps_to_503(self, trajectories):
        from repro.api import ShardLostError

        class LostShardService:
            def stats(self):
                return {"size": 0, "degraded": [0]}

            def knn(self, queries, k, exclude=None, dedupe_eps=None):
                raise ShardLostError("shard 0 has no healthy replica")

        with SimilarityGateway(LostShardService()) as gw:
            status, headers, reply = request_json(
                gw, "/knn", {"queries": as_lists(trajectories[:1]), "k": 2})
        assert status == 503
        assert "no healthy replica" in reply["error"]
        assert headers.get("Retry-After") == "1"

    def test_internal_error_logs_traceback_but_never_returns_it(
            self, trajectories, caplog):
        class BrokenService:
            def knn(self, queries, k, exclude=None, dedupe_eps=None):
                raise RuntimeError("index exploded at row 42")

        with caplog.at_level("ERROR", logger="repro.api.gateway"):
            with SimilarityGateway(BrokenService()) as gw:
                status, _headers, raw = request(
                    gw, "/knn",
                    {"queries": as_lists(trajectories[:1]), "k": 2})
        assert status == 500
        assert json.loads(raw) == {"error": "internal error"}
        assert b"Traceback" not in raw and b"exploded" not in raw
        logged = "\n".join(record.getMessage() + (record.exc_text or "")
                           for record in caplog.records)
        assert "POST /knn failed" in logged
        assert "Traceback" in logged and "index exploded" in logged


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_max_requests_trips_shutdown(self, service, trajectories):
        gw = SimilarityGateway(service, max_requests=2)
        try:
            request_json(gw, "/healthz")
            request_json(gw, "/healthz")
            start = time.monotonic()
            gw.serve_forever(poll_interval=0.01)
            assert time.monotonic() - start < 10
            assert gw.closed
        finally:
            gw.close()

    def test_shutdown_refuses_new_requests(self, service):
        with SimilarityGateway(service) as gw:
            gw.shutdown()
            status, _, reply = request_json(gw, "/healthz")
            assert status == 503
            assert reply["status"] == "stopping"

    def test_close_is_idempotent(self, service):
        gw = SimilarityGateway(service)
        gw.close()
        gw.close()
        assert "closed" in repr(gw)


# ----------------------------------------------------------------------
# Traffic-control primitives in isolation
# ----------------------------------------------------------------------
class TestPrimitives:
    def test_token_bucket_refills(self):
        limiter = TokenBucketLimiter(rate=10, burst=2)
        assert limiter.allow("a", now=0.0) == (True, 0.0)
        assert limiter.allow("a", now=0.0) == (True, 0.0)
        admitted, retry_after = limiter.allow("a", now=0.0)
        assert not admitted
        assert retry_after == pytest.approx(0.1)
        # Refill at 10/s: one token back after 0.1s.
        assert limiter.allow("a", now=0.11)[0]
        # Other keys are untouched by "a"'s spend.
        assert limiter.allow("b", now=0.11)[0]

    def test_token_bucket_validation(self):
        with pytest.raises(ValueError, match="rate"):
            TokenBucketLimiter(rate=0)
        with pytest.raises(ValueError, match="burst"):
            TokenBucketLimiter(rate=1, burst=0.2)

    def test_admission_controller(self):
        admission = AdmissionController(max_inflight=2)
        assert admission.try_acquire()
        assert admission.try_acquire()
        assert not admission.try_acquire()
        admission.release()
        assert admission.inflight == 1
        assert admission.try_acquire()
        with pytest.raises(ValueError, match="max_inflight"):
            AdmissionController(0)

    def test_latency_histogram_percentiles(self):
        histogram = LatencyHistogram(bounds=(1.0, 10.0, 100.0))
        assert histogram.percentile(0.5) is None
        for value in (0.5, 5.0, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(60.5)
        p50 = histogram.percentile(0.5)
        assert 1.0 <= p50 <= 10.0
        assert histogram.percentile(1.0) == pytest.approx(100.0)
        histogram.observe(1e9)  # beyond the last bound: clamps, not crashes
        assert histogram.percentile(0.999) == pytest.approx(100.0)
