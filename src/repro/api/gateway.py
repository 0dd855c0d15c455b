"""The production edge: an HTTP/JSON gateway over any kNN service.

Non-Python clients cannot speak the binary frame protocol of
:mod:`repro.api.transport`; this module gives the serving stack an
HTTP/1.1 front door with the traffic machinery heavy load needs. It is
stdlib-only (:mod:`http.server` with one thread per connection) and wraps
**any** :class:`~repro.api.protocols.KnnService` — a plain
:class:`~repro.api.service.SimilarityService`, a
:class:`~repro.api.serving.ShardedSimilarityService`, a
:class:`~repro.api.serving.QueryQueue`, a
:class:`~repro.api.remote.RemoteSimilarityClient`, or a
:class:`~repro.api.cluster.ClusterCoordinator` — so one gateway can front
anything from a single process to a whole cluster.

Routes (JSON in, JSON out; trajectories are ``[[x, y], ...]`` lists):

* ``POST /knn``      — ``{"queries": [...], "k": 5, "exclude": null,
  "dedupe_eps": null}`` → ``{"distances": [[...]], "ids": [[...]]}``;
* ``POST /pairwise`` — ``{"queries": [...], "database": [...]?}`` →
  ``{"distances": [[...]]}`` (``database`` defaults to the served one);
* ``POST /add``      — ``{"trajectories": [...]}`` → ``{"size": N}``;
* ``GET /stats``     — the unified ``stats()`` report plus gateway
  counters;
* ``GET /healthz``   — ``200`` when healthy, ``503`` when shutting down
  or when the wrapped service reports degraded shards;
* ``GET /metrics``   — Prometheus text format: request counts by
  route/status, latency histograms with p50/p95/p99 gauges, q/s, queue
  depth, cache hit rate, per-shard health.

Traffic controls, applied in order on the POST routes:

1. **rate limiting** — a token bucket per client (keyed by the
   ``X-Api-Key`` header, else the peer address); an empty bucket gets
   ``429`` with ``Retry-After``, and one client's flood never consumes
   another's budget;
2. **deadlines** — ``X-Deadline-Ms: 250`` bounds how long the caller
   will wait. The deadline propagates into :class:`QueryQueue.submit`,
   so work whose caller has given up is dropped server-side (``504``)
   instead of computed for nobody;
3. **bounded admission** — at most ``max_inflight`` requests execute at
   once; excess load is shed immediately with ``429`` + ``Retry-After``
   instead of queueing unboundedly (a full ``QueryQueue`` —
   :class:`~repro.api.serving.QueueFullError` — sheds the same way).

Quickstart::

    from repro.api import SimilarityService
    from repro.api.gateway import SimilarityGateway

    service = SimilarityService(backend="hausdorff").add(database)
    with SimilarityGateway(service, port=8080) as gateway:
        gateway.serve_forever()     # or: requests against gateway.address

or from the shell: ``python -m repro serve-http --data city.npz
--backend hausdorff --port 8080`` and then::

    curl -s localhost:8080/knn -d '{"queries": [[[0,0],[1,1]]], "k": 3}'
"""

from __future__ import annotations

import json
import logging
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

import numpy as np

from .serving import DeadlineExceededError, QueueFullError, ShardLostError
from .transport import TransportError

logger = logging.getLogger("repro.api.gateway")

__all__ = [
    "SimilarityGateway",
    "TokenBucketLimiter",
    "AdmissionController",
    "LatencyHistogram",
    "GatewayMetrics",
]

#: histogram bucket upper bounds, milliseconds (+Inf bucket is implicit).
LATENCY_BUCKETS_MS = (1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
                      500.0, 1000.0, 2500.0, 5000.0)

#: the routes metrics are labelled with; anything else aggregates under
#: "other" so a URL-scanning client cannot blow up label cardinality.
ROUTES = ("/knn", "/pairwise", "/add", "/stats", "/healthz", "/metrics")


# ----------------------------------------------------------------------
# Traffic-control primitives
# ----------------------------------------------------------------------
class TokenBucketLimiter:
    """Per-client token buckets: ``rate`` requests/second, ``burst`` deep.

    Each client key owns an independent bucket, so one tenant's flood
    exhausts its own budget only. Buckets refill continuously; ``allow``
    returns ``(admitted, retry_after_seconds)``. Idle full buckets are
    pruned so a long-lived gateway does not accumulate one entry per
    client ever seen.
    """

    _PRUNE_ABOVE = 1024  # keys held before idle buckets are swept

    def __init__(self, rate: float, burst: Optional[float] = None):
        if rate <= 0:
            raise ValueError("rate must be > 0 requests/second")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(1.0, rate)
        if self.burst < 1:
            raise ValueError("burst must allow at least one request")
        self._buckets: Dict[str, List[float]] = {}  # key -> [tokens, stamp]
        self._lock = threading.Lock()

    def allow(self, key: str, now: Optional[float] = None) -> Tuple[bool, float]:
        now = time.monotonic() if now is None else now
        with self._lock:
            tokens, stamp = self._buckets.get(key, (self.burst, now))
            tokens = min(self.burst, tokens + (now - stamp) * self.rate)
            if tokens >= 1.0:
                self._buckets[key] = [tokens - 1.0, now]
                admitted, retry_after = True, 0.0
            else:
                self._buckets[key] = [tokens, now]
                admitted, retry_after = False, (1.0 - tokens) / self.rate
            if len(self._buckets) > self._PRUNE_ABOVE:
                full_at = self.burst - 0.5
                self._buckets = {
                    k: bucket for k, bucket in self._buckets.items()
                    if k == key or bucket[0] < full_at
                }
            return admitted, retry_after


class AdmissionController:
    """Bounds concurrently executing requests to ``max_inflight``.

    ``try_acquire`` never blocks: the caller either gets a slot or sheds
    the request (``429``) immediately — queueing happens in the
    :class:`~repro.api.serving.QueryQueue` (where it is itself bounded),
    never invisibly in the HTTP layer.
    """

    def __init__(self, max_inflight: int):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.max_inflight = int(max_inflight)
        self._inflight = 0
        self._lock = threading.Lock()

    def try_acquire(self) -> bool:
        with self._lock:
            if self._inflight >= self.max_inflight:
                return False
            self._inflight += 1
            return True

    def release(self) -> None:
        with self._lock:
            self._inflight -= 1

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight


class LatencyHistogram:
    """Fixed-bucket latency histogram with interpolated percentiles.

    Prometheus-shaped (cumulative ``le`` buckets plus sum/count) and
    bounded-memory: percentiles come from linear interpolation inside the
    winning bucket, not from storing samples.
    """

    def __init__(self, bounds=LATENCY_BUCKETS_MS):
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)  # trailing +Inf bucket
        self.count = 0
        self.sum = 0.0

    def observe(self, value_ms: float) -> None:
        slot = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value_ms <= bound:
                slot = i
                break
        self.counts[slot] += 1
        self.count += 1
        self.sum += value_ms

    def percentile(self, q: float) -> Optional[float]:
        """Interpolated ``q``-th percentile (``q`` in [0, 1]); None if empty."""
        if self.count == 0:
            return None
        target = q * self.count
        cumulative = 0
        lower = 0.0
        for bound, bucket_count in zip(self.bounds, self.counts):
            if bucket_count:
                cumulative += bucket_count
                if cumulative >= target:
                    fraction = (target - (cumulative - bucket_count)) / bucket_count
                    return lower + (bound - lower) * fraction
            lower = bound
        # Everything beyond the last finite bound: the best bounded answer.
        return self.bounds[-1]


class GatewayMetrics:
    """Thread-safe request accounting behind ``/metrics``.

    Counters by ``(route, status)``, one latency histogram per route, and
    the shed/rate-limited/expired totals the traffic controls bump. All
    reads go through :meth:`snapshot` so rendering never holds the lock
    across service calls.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.started = time.monotonic()
        self.requests: Dict[Tuple[str, int], int] = {}
        self.latency: Dict[str, LatencyHistogram] = {}
        self.shed = 0          # admission-control rejections (429)
        self.ratelimited = 0   # token-bucket rejections (429)
        self.expired = 0       # deadline expiries (504)

    def observe(self, route: str, status: int, elapsed_ms: float) -> None:
        route = route if route in ROUTES else "other"
        with self._lock:
            key = (route, int(status))
            self.requests[key] = self.requests.get(key, 0) + 1
            histogram = self.latency.get(route)
            if histogram is None:
                histogram = self.latency[route] = LatencyHistogram()
            histogram.observe(elapsed_ms)

    def bump(self, counter: str) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    @property
    def total_requests(self) -> int:
        with self._lock:
            return sum(self.requests.values())

    def snapshot(self) -> Dict:
        """A consistent copy for rendering (/stats and /metrics)."""
        with self._lock:
            uptime = max(time.monotonic() - self.started, 1e-9)
            total = sum(self.requests.values())
            return {
                "uptime_seconds": uptime,
                "requests_total": total,
                "qps": total / uptime,
                "requests": dict(self.requests),
                "latency": {route: (hist.counts[:], hist.count, hist.sum,
                                    hist.percentile(0.5), hist.percentile(0.95),
                                    hist.percentile(0.99))
                            for route, hist in self.latency.items()},
                "shed_total": self.shed,
                "ratelimited_total": self.ratelimited,
                "deadline_expired_total": self.expired,
            }


# ----------------------------------------------------------------------
# JSON plumbing
# ----------------------------------------------------------------------
class _HttpError(Exception):
    """An error reply decided before (or instead of) a service call."""

    def __init__(self, status: int, message: str,
                 headers: Optional[Dict[str, str]] = None,
                 close: bool = False):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}
        self.close = close


def _jsonable(value):
    """Numpy-to-JSON coercion; non-finite floats become null."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (np.integer, int)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if math.isfinite(value) else None
    return value


def _parse_trajectories(raw, field: str) -> List[np.ndarray]:
    """JSON ``[[x, y], ...]`` lists (one trajectory or a batch) to arrays."""
    if not isinstance(raw, list) or not raw:
        raise _HttpError(400, f"'{field}' must be a non-empty list of "
                              "trajectories ([[x, y], ...] point lists)")
    first = raw[0]
    if (isinstance(first, list) and first
            and isinstance(first[0], (int, float))):
        raw = [raw]  # a single trajectory, not a batch
    out = []
    for position, entry in enumerate(raw):
        try:
            points = np.asarray(entry, dtype=np.float64)
        except (TypeError, ValueError):
            raise _HttpError(400, f"'{field}'[{position}] is not numeric")
        if points.ndim != 2 or points.shape[1] != 2 or len(points) == 0:
            raise _HttpError(
                400, f"'{field}'[{position}] must be a non-empty "
                     f"[[x, y], ...] list, got shape {points.shape}")
        if not np.isfinite(points).all():
            raise _HttpError(400, f"'{field}'[{position}] contains "
                                  "non-finite coordinates")
        out.append(points)
    return out


def _optional_number(body: Dict, field: str, kind, default=None):
    value = body.get(field, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _HttpError(400, f"'{field}' must be a number")
    return kind(value)


class _GatewayHandler(BaseHTTPRequestHandler):
    """One instance per request; all logic delegates to the gateway."""

    gateway: "SimilarityGateway"  # bound via subclassing in the gateway
    protocol_version = "HTTP/1.1"
    timeout = 60  # a wedged client must not pin a handler thread forever

    # http.server logs every request to stderr by default; the gateway
    # accounts through GatewayMetrics instead.
    def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
        pass

    def do_GET(self):
        self.gateway._dispatch(self, "GET")

    def do_POST(self):
        self.gateway._dispatch(self, "POST")


# ----------------------------------------------------------------------
# Gateway
# ----------------------------------------------------------------------
class SimilarityGateway:
    """HTTP/JSON edge over any kNN service (see the module docstring).

    ``port=0`` binds an ephemeral port; read :attr:`address` after
    construction. The listener runs on a daemon thread from construction
    on — :meth:`serve_forever` only blocks the caller until
    :meth:`shutdown`/:meth:`close` (or ``max_requests``), mirroring
    :class:`~repro.api.remote.SimilarityServer`.

    When the wrapped service is a :class:`~repro.api.serving.QueryQueue`,
    ``/knn`` feeds it query by query so concurrent HTTP callers coalesce
    into batched service calls, and request deadlines ride into the queue.
    Any other service is thread-oblivious and is serialized behind one
    lock, exactly like the TCP front-end.
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        rate_limit: Optional[float] = None,
        burst: Optional[float] = None,
        max_inflight: int = 64,
        max_body: int = 8 << 20,
        max_requests: Optional[int] = None,
    ):
        self.service = service
        self.metrics = GatewayMetrics()
        self.limiter = (TokenBucketLimiter(rate_limit, burst)
                        if rate_limit else None)
        self.admission = AdmissionController(max_inflight)
        self.max_body = int(max_body)
        self._max_requests = max_requests
        self._request_count = 0
        self._count_lock = threading.Lock()
        self._service_lock = threading.Lock()
        self._shutdown = threading.Event()
        self._closed = False

        handler = type("BoundGatewayHandler", (_GatewayHandler,),
                       {"gateway": self})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self.address: Tuple[str, int] = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.1},
            daemon=True, name=f"repro-gateway:{self.address[1]}",
        )
        self._thread.start()

    @property
    def host(self) -> str:
        return self.address[0]

    @property
    def port(self) -> int:
        return self.address[1]

    @property
    def url(self) -> str:
        return f"http://{self.address[0]}:{self.address[1]}"

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, handler: _GatewayHandler, method: str) -> None:
        start = time.monotonic()
        path = handler.path.split("?", 1)[0]
        if len(path) > 1:
            path = path.rstrip("/")
        try:
            status, body, content_type, headers = self._handle(
                handler, method, path, start)
        except _HttpError as error:
            status = error.status
            body = json.dumps({"error": error.message}).encode()
            content_type, headers = "application/json", dict(error.headers)
            if error.close:
                handler.close_connection = True
        except (DeadlineExceededError, TimeoutError) as error:
            self.metrics.bump("expired")
            status = 504
            body = json.dumps({"error": f"deadline exceeded: {error}"}).encode()
            content_type, headers = "application/json", {}
        except QueueFullError as error:
            self.metrics.bump("shed")
            status = 429
            body = json.dumps({"error": str(error)}).encode()
            content_type, headers = "application/json", {"Retry-After": "1"}
        except (ShardLostError, TransportError) as error:
            # Part of the database is unreachable (every replica of a
            # shard down, or the backing connection died): that is a
            # service-availability condition, not a caller error or a
            # gateway bug — 503 so load balancers retry elsewhere while
            # rejoin/re-replication repairs the cluster.
            status = 503
            body = json.dumps(
                {"error": f"shard unavailable: {error}"}).encode()
            content_type, headers = "application/json", {"Retry-After": "1"}
        except Exception:
            # The traceback is for the operator's log, never the client.
            logger.exception("%s %s failed", method, path)
            status = 500
            body = json.dumps({"error": "internal error"}).encode()
            content_type, headers = "application/json", {}
        # Account before the reply bytes leave: a client that fires a
        # follow-up /stats the instant it reads this response must already
        # see this request in the counters.
        self.metrics.observe(path, status, (time.monotonic() - start) * 1000)
        try:
            handler.send_response(status)
            handler.send_header("Content-Type", content_type)
            handler.send_header("Content-Length", str(len(body)))
            for name, value in headers.items():
                handler.send_header(name, value)
            handler.end_headers()
            handler.wfile.write(body)
        except (BrokenPipeError, ConnectionError, OSError):
            handler.close_connection = True  # caller hung up; just account
        if self._max_requests is not None:
            with self._count_lock:
                self._request_count += 1
                if self._request_count >= self._max_requests:
                    self._shutdown.set()

    def _handle(self, handler, method: str, path: str, start: float):
        if self._shutdown.is_set() and path != "/healthz":
            # /healthz stays answerable during drain so probes see a
            # structured "stopping" report instead of a generic refusal.
            raise _HttpError(503, "gateway is shutting down", close=True)
        if method == "GET":
            if path == "/healthz":
                return self._healthz()
            if path == "/stats":
                return self._json(200, self._stats_payload())
            if path == "/metrics":
                return 200, self.render_metrics().encode(), \
                    "text/plain; version=0.0.4", {}
            if path == "/":
                return self._json(200, {
                    "routes": {"POST": ["/knn", "/pairwise", "/add"],
                               "GET": ["/stats", "/healthz", "/metrics"]}})
            if path in ("/knn", "/pairwise", "/add"):
                raise _HttpError(405, f"{path} requires POST",
                                 {"Allow": "POST"})
            raise _HttpError(404, f"no such route: {path}")
        # POST
        if path not in ("/knn", "/pairwise", "/add"):
            if path in ("/stats", "/healthz", "/metrics", "/"):
                raise _HttpError(405, f"{path} requires GET", {"Allow": "GET"})
            raise _HttpError(404, f"no such route: {path}")

        client = (handler.headers.get("X-Api-Key")
                  or handler.client_address[0])
        if self.limiter is not None:
            admitted, retry_after = self.limiter.allow(client)
            if not admitted:
                self.metrics.bump("ratelimited")
                raise _HttpError(
                    429, f"rate limit exceeded for client {client!r}",
                    {"Retry-After": str(max(1, math.ceil(retry_after)))},
                    close=True)
        deadline = self._parse_deadline(handler, start)
        body = self._read_json(handler)
        if not self.admission.try_acquire():
            self.metrics.bump("shed")
            raise _HttpError(
                429, f"gateway overloaded "
                     f"({self.admission.max_inflight} requests in flight)",
                {"Retry-After": "1"})
        try:
            if path == "/knn":
                return self._post_knn(body, deadline)
            if path == "/pairwise":
                return self._post_pairwise(body, deadline)
            return self._post_add(body)
        finally:
            self.admission.release()

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _parse_deadline(handler, start: float) -> Optional[float]:
        raw = handler.headers.get("X-Deadline-Ms")
        if raw is None:
            return None
        try:
            budget_ms = float(raw)
        except ValueError:
            raise _HttpError(400, f"X-Deadline-Ms must be a number of "
                                  f"milliseconds, got {raw!r}")
        if budget_ms <= 0:
            raise _HttpError(400, "X-Deadline-Ms must be > 0")
        return start + budget_ms / 1000.0

    def _read_json(self, handler) -> Dict:
        length = handler.headers.get("Content-Length")
        if length is None:
            raise _HttpError(411, "Content-Length required", close=True)
        try:
            length = int(length)
        except ValueError:
            raise _HttpError(400, "malformed Content-Length", close=True)
        if length > self.max_body:
            # The body is never read: close the connection so unread bytes
            # cannot be misparsed as a follow-up request.
            raise _HttpError(
                413, f"body of {length} bytes exceeds the gateway limit "
                     f"of {self.max_body}", close=True)
        raw = handler.rfile.read(length)
        if len(raw) < length:
            raise _HttpError(400, "request body shorter than Content-Length",
                             close=True)
        try:
            body = json.loads(raw)
        except ValueError as error:
            raise _HttpError(400, f"malformed JSON body: {error}")
        if not isinstance(body, dict):
            raise _HttpError(400, "JSON body must be an object")
        return body

    def _json(self, status: int, payload: Dict):
        return status, json.dumps(_jsonable(payload)).encode(), \
            "application/json", {}

    # ------------------------------------------------------------------
    # POST routes
    # ------------------------------------------------------------------
    def _post_knn(self, body: Dict, deadline: Optional[float]):
        queries = _parse_trajectories(body.get("queries"), "queries")
        k = _optional_number(body, "k", int, default=10)
        if k is None or k < 1:
            raise _HttpError(400, "'k' must be an integer >= 1")
        exclude = _optional_number(body, "exclude", int)
        dedupe_eps = _optional_number(body, "dedupe_eps", float)
        service = self.service
        if hasattr(service, "submit"):
            # A QueryQueue underneath: feed it query by query so concurrent
            # HTTP callers coalesce, and the deadline rides along.
            futures = [service.submit(q, k, exclude, dedupe_eps,
                                      deadline=deadline) for q in queries]
            rows = [future.result() for future in futures]
            distances = np.stack([d for d, _ in rows])
            ids = np.stack([i for _, i in rows])
        else:
            self._check_deadline(deadline)
            with self._service_lock:
                distances, ids = service.knn(queries, k=k, exclude=exclude,
                                             dedupe_eps=dedupe_eps)
            self._check_deadline(deadline)
        return self._json(200, {"distances": distances, "ids": ids, "k": k})

    def _post_pairwise(self, body: Dict, deadline: Optional[float]):
        queries = _parse_trajectories(body.get("queries"), "queries")
        database = body.get("database")
        if database is not None:
            database = _parse_trajectories(database, "database")
        service = self.service
        if hasattr(service, "submit_pairwise"):
            matrix = service.submit_pairwise(queries, database,
                                             deadline=deadline).result()
        else:
            self._check_deadline(deadline)
            with self._service_lock:
                matrix = service.pairwise(queries, database)
            self._check_deadline(deadline)
        return self._json(200, {"distances": matrix})

    def _post_add(self, body: Dict):
        trajectories = _parse_trajectories(body.get("trajectories"),
                                           "trajectories")
        service = self.service
        target = service.service if hasattr(service, "submit") else service
        if not hasattr(target, "add"):
            raise _HttpError(
                400, f"{type(target).__name__} does not accept add()")
        with self._service_lock:
            result = target.add(trajectories)
        # RemoteSimilarityClient.add returns the new size; local services
        # return self — normalize to a size either way.
        size = result if isinstance(result, int) else len(target)
        return self._json(200, {"size": int(size), "added": len(trajectories)})

    @staticmethod
    def _check_deadline(deadline: Optional[float]) -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise DeadlineExceededError("request deadline passed")

    # ------------------------------------------------------------------
    # GET routes
    # ------------------------------------------------------------------
    def _service_stats(self) -> Dict:
        stats = getattr(self.service, "stats", None)
        if not callable(stats):
            return {"type": type(self.service).__name__}
        return dict(stats())

    def _gateway_stats(self) -> Dict:
        snapshot = self.metrics.snapshot()
        return {
            "address": list(self.address),
            "uptime_seconds": round(snapshot["uptime_seconds"], 3),
            "requests_total": snapshot["requests_total"],
            "qps": round(snapshot["qps"], 3),
            "inflight": self.admission.inflight,
            "max_inflight": self.admission.max_inflight,
            "shed_total": snapshot["shed_total"],
            "ratelimited_total": snapshot["ratelimited_total"],
            "deadline_expired_total": snapshot["deadline_expired_total"],
            "rate_limit": self.limiter.rate if self.limiter else None,
        }

    def _stats_payload(self) -> Dict:
        try:
            info = self._service_stats()
        except Exception as error:
            info = {"error": f"service stats failed: {error}"}
        info["gateway"] = self._gateway_stats()
        return info

    def _healthz(self):
        if self._shutdown.is_set():
            return self._json_status(503, {"status": "stopping"})
        try:
            stats = self._service_stats()
        except Exception as error:
            return self._json_status(
                503, {"status": "error", "error": str(error)})
        degraded = list(stats.get("degraded") or [])
        underreplicated = list(stats.get("underreplicated") or [])
        if degraded:
            status = "degraded"
        elif underreplicated:
            # Still serving every shard, just with less headroom: the
            # probe stays green (a 503 would pull a healthy gateway from
            # rotation) but the report says repair is in progress.
            status = "underreplicated"
        else:
            status = "ok"
        payload = {
            "status": status,
            "size": stats.get("size"),
            "degraded": degraded,
        }
        if "replication" in stats:
            payload["replication"] = stats["replication"]
            payload["underreplicated"] = underreplicated
        replicas = [
            {"shard": entry.get("shard"),
             "healthy_replicas": entry.get("healthy_replicas"),
             "alive": entry.get("alive")}
            for entry in stats.get("shards") or []
            if isinstance(entry, dict) and "healthy_replicas" in entry]
        if replicas:
            payload["shards"] = replicas
        return self._json_status(503 if degraded else 200, payload)

    def _json_status(self, status: int, payload: Dict):
        return status, json.dumps(_jsonable(payload)).encode(), \
            "application/json", {}

    # ------------------------------------------------------------------
    # /metrics rendering
    # ------------------------------------------------------------------
    def render_metrics(self) -> str:
        """The Prometheus text-format exposition (also used by tests)."""
        snapshot = self.metrics.snapshot()
        try:
            stats = self._service_stats()
        except Exception:
            stats = {}
        lines = []

        def header(name, kind, help_text):
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")

        header("repro_gateway_requests_total", "counter",
               "Requests served, by route and HTTP status.")
        for (route, status), count in sorted(snapshot["requests"].items()):
            lines.append(f'repro_gateway_requests_total'
                         f'{{route="{route}",status="{status}"}} {count}')

        header("repro_gateway_request_latency_ms", "histogram",
               "Request latency by route, milliseconds.")
        for route, (counts, count, total,
                    p50, p95, p99) in sorted(snapshot["latency"].items()):
            cumulative = 0
            for bound, bucket in zip(LATENCY_BUCKETS_MS, counts):
                cumulative += bucket
                lines.append(f'repro_gateway_request_latency_ms_bucket'
                             f'{{route="{route}",le="{bound:g}"}} {cumulative}')
            lines.append(f'repro_gateway_request_latency_ms_bucket'
                         f'{{route="{route}",le="+Inf"}} {count}')
            lines.append(f'repro_gateway_request_latency_ms_sum'
                         f'{{route="{route}"}} {total:.6f}')
            lines.append(f'repro_gateway_request_latency_ms_count'
                         f'{{route="{route}"}} {count}')

        header("repro_gateway_latency_quantile_ms", "gauge",
               "Interpolated latency percentiles by route, milliseconds.")
        for route, (_, count, _, p50, p95, p99) in sorted(
                snapshot["latency"].items()):
            if not count:
                continue
            for quantile, value in (("0.5", p50), ("0.95", p95),
                                    ("0.99", p99)):
                lines.append(f'repro_gateway_latency_quantile_ms'
                             f'{{route="{route}",quantile="{quantile}"}} '
                             f'{value:.6f}')

        header("repro_gateway_qps", "gauge",
               "Requests per second over the gateway lifetime.")
        lines.append(f'repro_gateway_qps {snapshot["qps"]:.6f}')
        header("repro_gateway_inflight", "gauge",
               "Requests currently executing (admission-controlled).")
        lines.append(f"repro_gateway_inflight {self.admission.inflight}")
        for name, key in (("repro_gateway_shed_total", "shed_total"),
                          ("repro_gateway_ratelimited_total",
                           "ratelimited_total"),
                          ("repro_gateway_deadline_expired_total",
                           "deadline_expired_total")):
            header(name, "counter", "Traffic-control rejections.")
            lines.append(f"{name} {snapshot[key]}")

        queue = stats.get("queue") or {}
        header("repro_gateway_queue_depth", "gauge",
               "Requests pending in the wrapped QueryQueue.")
        lines.append(f'repro_gateway_queue_depth '
                     f'{int(queue.get("pending") or 0)}')
        for name, key in (("repro_gateway_queue_rejected_total", "rejected"),
                          ("repro_gateway_queue_expired_total", "expired")):
            header(name, "counter", "QueryQueue overload counters.")
            lines.append(f"{name} {int(queue.get(key) or 0)}")

        cache = stats.get("cache") or {}
        hits = int(cache.get("hits") or 0)
        misses = int(cache.get("misses") or 0)
        rate = hits / (hits + misses) if hits + misses else 0.0
        header("repro_gateway_cache_hit_rate", "gauge",
               "Embedding-cache hit rate of the wrapped service.")
        lines.append(f"repro_gateway_cache_hit_rate {rate:.6f}")

        header("repro_gateway_database_size", "gauge",
               "Trajectories in the served database.")
        lines.append(f'repro_gateway_database_size '
                     f'{int(stats.get("size") or 0)}')

        degraded = set(stats.get("degraded") or [])
        shards = stats.get("shards")
        if shards is None and "service" in stats:
            shards = stats["service"].get("shards")
            degraded |= set(stats["service"].get("degraded") or [])
        header("repro_gateway_shard_up", "gauge",
               "Per-shard health (1 = serving, 0 = degraded).")
        for entry in shards or []:
            shard = entry.get("shard")
            up = 0 if shard in degraded else 1
            lines.append(f'repro_gateway_shard_up{{shard="{shard}"}} {up}')

        replicated = [entry for entry in shards or []
                      if isinstance(entry, dict)
                      and "healthy_replicas" in entry]
        if replicated:
            header("repro_gateway_shard_replicas", "gauge",
                   "Healthy replicas per shard (replicated clusters).")
            for entry in replicated:
                lines.append(f'repro_gateway_shard_replicas'
                             f'{{shard="{entry.get("shard")}"}} '
                             f'{int(entry["healthy_replicas"])}')

        header("repro_gateway_uptime_seconds", "gauge",
               "Seconds since the gateway started.")
        lines.append(f'repro_gateway_uptime_seconds '
                     f'{snapshot["uptime_seconds"]:.3f}')
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._shutdown.is_set()

    def shutdown(self) -> None:
        """Request shutdown: :meth:`serve_forever` returns and closes.

        Safe from signal handlers and request threads (it only sets a
        flag); new requests are refused with ``503`` from this point on.
        """
        self._shutdown.set()

    def serve_forever(self, poll_interval: float = 0.1) -> None:
        """Block the calling thread until :meth:`shutdown` (or the
        ``max_requests`` budget), then run the graceful close."""
        while not self._shutdown.wait(poll_interval):
            pass
        self.close()

    def close(self, grace: float = 5.0) -> None:
        """Stop the listener and reap the serving thread (idempotent)."""
        self._shutdown.set()
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self._thread.join(timeout=grace)
        self._httpd.server_close()

    def __enter__(self) -> "SimilarityGateway":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "listening"
        return (f"SimilarityGateway({self.host}:{self.port}, {state}, "
                f"requests={self.metrics.total_requests})")
