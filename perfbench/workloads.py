"""The two workloads. Each returns a :class:`Result`.

Every workload sets the service up five times and measures a slice of
``--seconds`` on each set-up. A set-up's process placement on a small
machine shifts its latencies for as long as it lives, and CPU the
hypervisor takes comes in bursts that hit some slices and spare others.
So each set-up records the share of CPU stolen from its launch to the
end of its slice, and the figures come from the ``harness.KEEP_SETUPS``
set-ups with the least: figures read per set-up (set-up time, memory
growth, the ladder's p50 and top rate, the closed-loop rate) are medians
over the kept set-ups, and per-call figures are medians over their
calls. Every answer of every set-up is checked against an in-process
reference after the timed phase.
"""

from __future__ import annotations

import http.client
import json
import os
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional

import numpy as np

import harness
import procs
from inputs import K, Inputs, Oracle, raw_bytes

clock = time.perf_counter

BATCH = 64

#: http_cold: database size and set-ups; ladder of (rate q/s, share of
#: --seconds). Every set-up runs the whole ladder; the lowest rate gets
#: the largest share and p50 is read there, per set-up. From 26.5 q/s up
#: the steps are about 8 % apart, around where the service stops keeping
#: up (from 29 q/s on a busy host to past 42 on a calm one), so a set-up
#: that passes one step more or less moves ``sustained_qps`` by that much
#: and no more, and the run reports the median set-up.
HTTP_DB = 1000
HTTP_SETUPS = 5
HTTP_LADDER = ((15.0, 0.7), (20.0, 0.12), (26.5, 0.12), (29.0, 0.12),
               (31.5, 0.12), (34.0, 0.12), (36.5, 0.12), (39.5, 0.12),
               (42.5, 0.12), (46.0, 0.12), (50.0, 0.12))
HTTP_CONNECTIONS = 2
#: untimed requests (never-seen queries) each set-up gets first
HTTP_WARMUP = 8
#: closed loop on every set-up after its ladder: share of --seconds (over
#: all set-ups) and never-seen queries kept for each
HTTP_CLOSED_SHARE = 0.3
HTTP_CLOSED_MAX = 200
#: each set-up ends with this many 64-query requests, then 64-trajectory
#: ``POST /add`` calls
HTTP_BATCH_CALLS = 2
HTTP_ADD_CALLS = 3

#: cluster_ingest: starting database and set-ups; adds per set-up at
#: least INGEST_MIN_ADDS (4 adds on each of 5 set-ups give p90 its 100
#: calls); queries per call after an add. Calls of one query were
#: mostly process wake-ups between the coordinator and two workers, and
#: CPU the hypervisor took moved their rate by a third from run to run
#: (the ten-run spread of ``knn_qps`` reached 0.38 at 6-18 % steal);
#: eight queries a call put the encoder back in charge of the time.
INGEST_DB = 200
INGEST_SETUPS = 5
INGEST_MIN_ADDS = 4
INGEST_MAX_ADDS = 12
INGEST_CALL = 8


class Result:
    def __init__(self):
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.oracle = Oracle()
        self.notes: Dict = {"phase_s": {}}
        #: what layers.py needs: windows, dumps, client records
        self.trace: Dict = {}
        self._mark = clock()

    def phase(self, name: str) -> None:
        """Account the time since the previous mark to phase ``name``."""
        now = clock()
        self.notes["phase_s"][name] = now - self._mark
        self._mark = now

    def operation(self, ok: bool, label: str = "operation") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.oracle.fail(f"{label} failed")


def _median(values: List[float]) -> float:
    return statistics.median(values)


def _latency_metrics(result: Result, per_setup: List[List[float]],
                     kept: List[int]) -> None:
    """p50 per set-up, reported as the median over the ``kept`` set-ups;
    p90 (needs 100 samples) and p99 (needs 1000) pooled over all.

    Only p50 is an end-to-end metric: the tails moved by a third to a half
    between runs of the same code on a two-core machine, too far for a
    bound. They are kept in the notes and in the traced run's metrics.
    """
    ms = [s * 1000 for setup in per_setup for s in setup]
    if len(ms) < harness.min_samples(90):
        raise RuntimeError(f"{len(ms)} samples cannot support p90")
    for q in (50, 90, 99):
        result.metrics[f"knn_p{q}_ms"] = harness.percentile(ms, q)
    p50s = [harness.percentile([s * 1000 for s in setup], 50)
            for setup in per_setup]
    result.notes.update(pooled_knn_p50_ms=result.metrics["knn_p50_ms"],
                        setup_knn_p50_ms=p50s)
    result.metrics["knn_p50_ms"] = _median([p50s[i] for i in kept])
    result.notes.update(
        knn_samples=len(ms), knn_p90_ms=result.metrics["knn_p90_ms"],
        knn_p99_ms=result.metrics["knn_p99_ms"],
        p99_supported=len(ms) >= harness.min_samples(99))


def _timed(call, *args, **kwargs):
    t0 = clock()
    out = call(*args, **kwargs)
    return out, clock() - t0


# ----------------------------------------------------------------------
# http_cold
# ----------------------------------------------------------------------
class _Client:
    """One keep-alive ``http.client`` connection; counts reconnects."""

    def __init__(self, address: str):
        host, port = address.rsplit(":", 1)
        self.conn = http.client.HTTPConnection(host, int(port), timeout=60)
        self.used = False
        self.reconnects = 0
        self.port: Optional[int] = None
        #: when the last request was written, and when its reply's
        #: headers were parsed (the body follows)
        self.written_at: Optional[float] = None
        self.headers_at: Optional[float] = None

    def post(self, path: str, body: bytes):
        if self.conn.sock is None:
            if self.used:
                self.reconnects += 1
            self.conn.connect()
            self.port = self.conn.sock.getsockname()[1]
        self.used = True
        self.conn.request("POST", path, body,
                          {"Content-Type": "application/json"})
        self.written_at = clock()
        reply = self.conn.getresponse()
        self.headers_at = clock()
        return reply.status, reply.read()

    def get_json(self, path: str):
        self.conn.request("GET", path)
        return json.loads(self.conn.getresponse().read())

    def close(self) -> None:
        self.conn.close()


def _body(queries) -> bytes:
    return json.dumps({"queries": [q.tolist() for q in queries],
                       "k": K}).encode()


class _Ladder:
    """One open-loop run of ``bodies`` over ``steps`` on a connection pool.

    Each connection is a thread that takes the next request when it is
    free, sleeps until it is due, sends it and reads the reply. A request
    whose due time passes while every connection is busy is taken late;
    its latency still counts from its due time. The connections first
    send ``warmup`` (untimed), so connection set-up and the server's
    first requests stay out of the timed steps.
    """

    def __init__(self, address: str, bodies: List[bytes], steps,
                 warmup: List[bytes]):
        n = len(bodies)
        self.replies: List[Optional[bytes]] = [None] * n
        self.ports: List[Optional[int]] = [None] * n
        self.written_at: List[Optional[float]] = [None] * n
        self.headers_at: List[Optional[float]] = [None] * n
        clients = [_Client(address) for _ in range(HTTP_CONNECTIONS)]
        self.warm_ok = 0
        for n_warm, body in enumerate(warmup):
            status, _ = clients[n_warm % len(clients)].post("/knn", body)
            self.warm_ok += status == 200
        self.schedule = harness.ladder_schedule(steps, start=clock() + 0.05)
        self.records: List[Optional[harness.Sent]] = [None] * n
        cursor = harness.Cursor(n)
        threads = [threading.Thread(target=self._sender,
                                    args=(client, cursor, bodies))
                   for client in clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.reconnects = sum(c.reconnects for c in clients)
        for client in clients:
            client.close()

    def _sender(self, client: _Client, cursor, bodies) -> None:
        def post(index: int) -> bool:
            try:
                status, body = client.post("/knn", bodies[index])
            except http.client.HTTPException as error:
                client.conn.close()
                raise OSError(str(error)) from error
            except OSError:
                client.conn.close()
                raise
            finally:
                self.ports[index] = client.port
                self.written_at[index] = client.written_at
                self.headers_at[index] = client.headers_at
            self.replies[index] = body if status == 200 else None
            return status == 200

        harness.run_sender(cursor, self.schedule, post, self.records, clock,
                           time.sleep)

    def step(self, index: int) -> List[harness.Sent]:
        return [r for r in self.records if r.step == index]


def _check_http(result: Result, replies, wants, label: str) -> None:
    """One operation per reply; ``wants`` holds the reference answers."""
    for index, (reply, want) in enumerate(zip(replies, wants)):
        if reply is None:
            result.operation(False, f"{label} {index}")
            continue
        body = json.loads(reply)
        ok = result.oracle.check((body["distances"], body["ids"]), want,
                                 f"{label} {index}")
        result.attempted += 1
        result.failed += not ok


def _closed_loop(address: str, bodies: List[bytes], seconds: float):
    """Single-query requests back to back over ``HTTP_CONNECTIONS``
    keep-alive connections for ``seconds``; returns the closed-loop rate
    and the replies (``None`` where unanswered or not sent)."""
    replies: List[Optional[bytes]] = [None] * len(bodies)
    clients = [_Client(address) for _ in range(HTTP_CONNECTIONS)]
    cursor = harness.Cursor(len(bodies))
    calls: List[list] = [[] for _ in clients]
    until = clock() + seconds

    def sender(client: _Client, out: list) -> None:
        def post(index: int) -> bool:
            try:
                status, body = client.post("/knn", bodies[index])
            except (OSError, http.client.HTTPException) as error:
                client.conn.close()
                raise OSError(str(error)) from error
            replies[index] = body if status == 200 else None
            return status == 200

        out.extend(harness.run_closed_loop(cursor, post, clock, until))

    threads = [threading.Thread(target=sender, args=(client, out))
               for client, out in zip(clients, calls)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for client in clients:
        client.close()
    flat = [call for out in calls for call in out]
    return harness.closed_loop_rate(flat), replies, len(flat)


def http_cold(workdir: str, seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    steps = [(rate, seconds * share / HTTP_SETUPS)
             for rate, share in HTTP_LADDER]
    low_rate = steps[0][0]  # a whole number of baseline requests
    steps[0] = (low_rate, round(low_rate * steps[0][1]) / low_rate)
    ladder_n = len(harness.ladder_schedule(steps))
    closed_s = seconds * HTTP_CLOSED_SHARE / HTTP_SETUPS
    batch_n = HTTP_BATCH_CALLS * BATCH
    per_setup = HTTP_WARMUP + ladder_n + HTTP_CLOSED_MAX + batch_n
    inputs = Inputs(workdir, seed, HTTP_DB, HTTP_SETUPS * per_setup,
                    ingest_count=HTTP_ADD_CALLS * BATCH)
    result.phase("inputs")
    cli = ["serve-http", "--data", inputs.db_path,
           "--checkpoint", inputs.model_path]
    setup_s, growth, ladders, closed, tails = [], [], [], [], []
    steals = []
    server = None
    try:
        for attempt in range(HTTP_SETUPS):
            last = attempt == HTTP_SETUPS - 1
            mine = inputs.queries[attempt * per_setup:][:per_setup]
            warmup, mine = mine[:HTTP_WARMUP], mine[HTTP_WARMUP:]
            asked, mine = mine[:ladder_n], mine[ladder_n:]
            spare, batch_queries = mine[:HTTP_CLOSED_MAX], mine[-batch_n:]
            ticks = procs.cpu_ticks()
            t0 = clock()
            server = procs.Server(workdir, f"http{attempt}", cli,
                                  trace=trace and last, probe_first_add=True)
            address = server.wait_ready()
            setup_s.append(clock() - t0)
            probe = server.memory_probe()
            growth.append((probe["rss_after_add"] - probe["rss_before_add"])
                          / HTTP_DB)
            cpu0, t_start = procs.cpu_seconds(server.pid), clock()
            ladders.append(_Ladder(address, [_body([q]) for q in asked],
                                   steps, [_body([q]) for q in warmup]))
            t_ladder = clock()
            closed.append(_closed_loop(
                address, [_body([q]) for q in spare], closed_s))
            tails.append(_http_tail(address, server.pid, batch_queries,
                                    inputs.ingest, result))
            t_end = clock()
            steals.append(procs.steal_share(ticks, procs.cpu_ticks()))
            cpu1 = procs.cpu_seconds(server.pid)
            code = server.stop()
            server = None
            if code != 0:
                result.oracle.fail(f"serve-http exited with {code}")
    finally:
        if server is not None:
            server.stop()
    result.phase("setups+measure")

    # -- correctness, outside the timed phase ---------------------------
    reference = inputs.reference(inputs.db)
    for attempt, (ladder, (_, replies, sent), tail) in enumerate(
            zip(ladders, closed, tails)):
        first = attempt * per_setup + HTTP_WARMUP
        asked = inputs.queries[first:first + ladder_n]
        want_d, want_i = reference.knn(asked, k=K)
        _check_http(result, ladder.replies, list(zip(want_d, want_i)),
                    f"set-up {attempt} request")
        result.attempted += HTTP_WARMUP
        result.failed += HTTP_WARMUP - ladder.warm_ok
        asked = inputs.queries[first + ladder_n:][:sent]
        want_d, want_i = reference.knn(asked, k=K)
        _check_http(result, replies[:sent], list(zip(want_d, want_i)),
                    f"set-up {attempt} closed-loop request")
        _check_http(result, tail["replies"],
                    [reference.knn(batch, k=K) for batch in tail["batches"]],
                    f"set-up {attempt} batch request")
        size = tail["stats"].get("size")
        result.operation(size == HTTP_DB + HTTP_ADD_CALLS * BATCH,
                         f"set-up {attempt} /stats size {size} after adds")
    result.phase("check")

    # -- metrics --------------------------------------------------------
    kept = harness.calmest(steals, harness.KEEP_SETUPS)
    _latency_metrics(result, [[r.latency for r in ladder.step(0)]
                              for ladder in ladders], kept)
    sustained, passes = [], []
    for ladder in ladders:
        rule = [(rate, ladder.step(i)) for i, (rate, _) in enumerate(steps)]
        # The lowest rung is the baseline whose latency the run reports;
        # the ladder rule decides how far above it the service keeps up.
        above = harness.sustained_rate(rule[1:])
        best = 0 if above is None else above + 1
        sustained.append(harness.achieved_rate(rule[best][1]))
        passes.append([harness.step_passes(recs) for _, recs in rule])
    result.metrics["sustained_qps"] = _median([sustained[i] for i in kept])
    result.metrics["knn_qps"] = _median([closed[i][0] for i in kept])
    result.metrics["batch_knn_qps"] = _median(
        [BATCH / took for i in kept for took in tails[i]["batch_s"]])
    result.metrics["add_traj_per_s"] = _median(
        [BATCH / took for i in kept for took in tails[i]["add_s"]])
    result.metrics["setup_s"] = _median([setup_s[i] for i in kept])
    result.metrics["bytes_per_traj"] = _median([growth[i] for i in kept])

    records = [r for ladder in ladders for r in ladder.records]
    late_p99 = harness.percentile([r.lateness * 1000 for r in records], 99)
    result.notes.update(
        setup_s=setup_s, setup_bytes_per_traj=growth,
        setup_steal_share=steals, kept_setups=kept,
        sustained_per_setup=sustained, ladder_passes=passes,
        closed_loop_qps=[rate for rate, _, _ in closed],
        generator_lateness_p99_ms=late_p99,
        marginal_bytes_per_traj=_median(
            [harness.marginal_slope(tail["rss"]) for tail in tails]))
    last = ladders[-1]
    last_low = last.step(0)
    result.trace.update(
        window=(last.schedule[0][1], t_ladder), window_end=t_end,
        low_window=(last_low[0].due, last_low[-1].due),
        records=last.records, ports=last.ports, headers_at=last.headers_at,
        written_at=last.written_at,
        reconnects=sum(ladder.reconnects for ladder in ladders),
        cpu={"server": (cpu1 - cpu0) / (t_end - t_start)},
        dumps={"server": os.path.join(
            workdir, f"http{HTTP_SETUPS - 1}.dump.json")},
        queries_answered=len(last.records) + closed[-1][2] + batch_n,
        db_size=HTTP_DB, raw_bytes=raw_bytes(inputs.db))
    return result


def _http_tail(address: str, pid: int, batch_queries, ingest,
               result: Result) -> Dict:
    """After the closed loop: 64-query requests, then ``POST /add`` calls.

    The server's RSS is read from outside after each add, for the
    marginal growth per stored trajectory.
    """
    client = _Client(address)
    out: Dict = {"batches": [], "replies": [], "batch_s": [], "add_s": []}
    try:
        for i in range(HTTP_BATCH_CALLS):
            batch = batch_queries[i * BATCH:(i + 1) * BATCH]
            body = _body(batch)
            (status, reply), took = _timed(client.post, "/knn", body)
            out["batches"].append(batch)
            out["replies"].append(reply if status == 200 else None)
            out["batch_s"].append(took)
        out["rss"] = [(HTTP_DB, procs.rss_bytes(pid))]
        for i in range(HTTP_ADD_CALLS):
            body = json.dumps({"trajectories": [
                t.tolist() for t in ingest[i * BATCH:(i + 1) * BATCH]]
            }).encode()
            (status, _), took = _timed(client.post, "/add", body)
            out["add_s"].append(took)
            out["rss"].append((HTTP_DB + (i + 1) * BATCH,
                               procs.rss_bytes(pid)))
            result.operation(status == 200, f"POST /add {i}")
        out["stats"] = client.get_json("/stats")
    finally:
        client.close()
    return out


# ----------------------------------------------------------------------
# Cluster workloads
# ----------------------------------------------------------------------
class _Cluster:
    """Two ``repro cluster-worker`` processes behind an in-process
    :class:`ClusterCoordinator` with the class defaults."""

    def __init__(self, workdir: str, name: str, backend, replication: int,
                 trace: bool):
        from repro.api.cluster import ClusterCoordinator

        self.workers = [procs.Server(workdir, f"{name}w{i}",
                                     ["cluster-worker"], trace)
                        for i in range(2)]
        self.coordinator = None
        try:
            addresses = [w.wait_ready() for w in self.workers]
            self.coordinator = ClusterCoordinator(
                addresses, backend=backend, replication=replication,
                shutdown_workers_on_close=True)
        except Exception:
            self.close()
            raise

    def rss(self) -> int:
        return sum(procs.rss_bytes(w.pid) for w in self.workers)

    def trimmed_rss(self) -> int:
        """The workers' RSS once each has trimmed its allocator."""
        counts = [w.request_trim() for w in self.workers]
        return sum(w.trimmed_rss(c) for w, c in zip(self.workers, counts))

    def cpu(self) -> List[float]:
        return [procs.cpu_seconds(w.pid) for w in self.workers]

    def close(self) -> List[int]:
        if self.coordinator is not None:
            self.coordinator.close()
        return [w.wait() for w in self.workers]


def _cluster_slices(workdir: str, inputs: Inputs, replication: int,
                    trace: bool, result: Result,
                    measure: Callable[["_Cluster", bool], None]) -> List[int]:
    """Set the cluster up ``INGEST_SETUPS`` times and ``measure`` each one.

    Set-up time runs from launching the workers until ``add`` of the
    database returns, less the RSS readings; the workers' RSS growth
    across that add, each reading taken after the workers trimmed their
    allocators, is kept per trajectory. Only the last set-up's workers
    are traced. Returns the set-ups to report (``harness.calmest``).
    """
    backend = inputs.backend()
    setup_s, growth, steals = [], [], []
    for attempt in range(INGEST_SETUPS):
        ticks = procs.cpu_ticks()
        t0 = clock()
        cluster = _Cluster(workdir, f"c{attempt}", backend, replication,
                           trace=trace and attempt == INGEST_SETUPS - 1)
        try:
            joined = clock() - t0
            rss0 = cluster.trimmed_rss()
            _, add_s = _timed(cluster.coordinator.add, inputs.db)
            setup_s.append(joined + add_s)
            growth.append((cluster.trimmed_rss() - rss0) / len(inputs.db))
            measure(cluster, attempt == INGEST_SETUPS - 1)
            steals.append(procs.steal_share(ticks, procs.cpu_ticks()))
        finally:
            codes = cluster.close()
        if any(code != 0 for code in codes):
            result.oracle.fail(f"cluster workers exited with {codes}")
    kept = harness.calmest(steals, harness.KEEP_SETUPS)
    result.metrics["setup_s"] = _median([setup_s[i] for i in kept])
    result.metrics["bytes_per_traj"] = _median([growth[i] for i in kept])
    result.notes.update(setup_s=setup_s, setup_bytes_per_traj=growth,
                        setup_steal_share=steals, kept_setups=kept)
    result.trace["dumps"] = {
        f"worker{i}": os.path.join(workdir, f"c{INGEST_SETUPS - 1}w{i}.dump.json")
        for i in range(2)}
    return kept


class Replies:
    """Answer rows kept in preallocated arrays while timing.

    A growing list of reply tuples would give the garbage collector of
    the generator process, which also runs the coordinator, more to scan
    on every pass, and the timing would show it.
    """

    def __init__(self, capacity: int = 4096):
        self.n = 0
        self.calls = 0
        self.key = np.zeros(capacity, dtype=np.int64)
        self.call = np.zeros(capacity, dtype=np.int64)
        self.d = np.zeros((capacity, K))
        self.i = np.zeros((capacity, K), dtype=np.int64)

    def put(self, first_key: int, reply) -> None:
        """One call's answer rows, for queries ``first_key``, ``+1``, ..."""
        call = self.calls
        self.calls += 1
        d, i = (np.atleast_2d(a) for a in reply)
        rows = len(d)
        while self.n + rows > len(self.key):
            for name in ("key", "call", "d", "i"):
                old = getattr(self, name)
                grown = np.zeros((2 * len(old),) + old.shape[1:], old.dtype)
                grown[:len(old)] = old
                setattr(self, name, grown)
        end = self.n + rows
        self.key[self.n:end] = first_key + np.arange(rows)
        self.call[self.n:end] = call
        self.d[self.n:end], self.i[self.n:end] = d, i
        self.n = end

    def check(self, result: Result, want_d, want_i, label: str) -> None:
        """One attempted operation per call; a call with a wrong row fails."""
        wrong_calls = set()
        for row in range(self.n):
            key = self.key[row]
            if not result.oracle.check((self.d[row], self.i[row]),
                                       (want_d[key], want_i[key]),
                                       f"{label} call {self.call[row]}"):
                wrong_calls.add(int(self.call[row]))
        result.attempted += self.calls
        result.failed += len(wrong_calls)


def cluster_ingest(workdir: str, seed: int, seconds: float,
                   trace: bool) -> Result:
    result = Result()
    inputs = Inputs(workdir, seed, INGEST_DB, 0,
                    ingest_count=BATCH * INGEST_MAX_ADDS)
    result.phase("inputs")
    replies = Replies(BATCH * 2 * INGEST_MAX_ADDS * INGEST_SETUPS)
    call_times: List[List[float]] = []
    cycles: List[List[tuple]] = []
    slopes: List[float] = []
    most_adds = [0]

    def measure(cluster: _Cluster, last: bool) -> None:
        coordinator = cluster.coordinator
        rss0, cpu0, t_start = cluster.rss(), cluster.cpu(), clock()
        growth = [(INGEST_DB, rss0)]
        adds, slice_s = 0, seconds / INGEST_SETUPS
        call_times.append([])
        cycles.append([])
        while adds < INGEST_MAX_ADDS and (
                clock() - t_start < slice_s
                or (adds < INGEST_MIN_ADDS
                    and clock() - t_start < 3 * slice_s)):
            t0 = clock()
            chunk = inputs.ingest[adds * BATCH:(adds + 1) * BATCH]
            _, add_took = _timed(coordinator.add, chunk)
            times = []
            for row in range(0, BATCH, INGEST_CALL):
                reply, took = _timed(coordinator.knn,
                                     chunk[row:row + INGEST_CALL], k=K)
                times.append(took)
                replies.put(adds * BATCH + row, reply)
            reply, batch_took = _timed(coordinator.knn, chunk, k=K)
            replies.put(adds * BATCH, reply)
            call_times[-1].extend(times)
            cycles[-1].append((add_took, sum(times), batch_took,
                               clock() - t0))
            adds += 1
            growth.append((INGEST_DB + adds * BATCH, cluster.rss()))
        t_end = clock()
        slopes.append(harness.marginal_slope(growth))
        most_adds[0] = max(most_adds[0], adds)
        size = len(coordinator)
        result.operation(size == INGEST_DB + adds * BATCH,
                         f"cluster size {size} after {adds} adds")
        if last:
            cpu1 = cluster.cpu()
            result.trace.update(
                window=(t_start, t_end), window_end=t_end,
                low_window=(t_start, t_end), queries_answered=2 * BATCH * adds,
                db_size=size, raw_bytes=raw_bytes(inputs.db) + raw_bytes(
                    inputs.ingest[:adds * BATCH]),
                cpu={f"worker{i}": (b - a) / (t_end - t_start)
                     for i, (a, b) in enumerate(zip(cpu0, cpu1))})

    kept = _cluster_slices(workdir, inputs, 2, trace, result, measure)
    result.phase("setups+measure")

    # Every set-up adds the same chunks in the same order, so one
    # reference replay answers them all: each chunk's queries are asked
    # right after its add, as the cluster was asked.
    adds = most_adds[0]
    reference = inputs.reference(inputs.db)
    want_d = np.zeros((adds * BATCH, K))
    want_i = np.zeros((adds * BATCH, K), dtype=np.int64)
    for cycle in range(adds):
        rows = slice(cycle * BATCH, (cycle + 1) * BATCH)
        reference.add(inputs.ingest[rows])
        want_d[rows], want_i[rows] = reference.knn(inputs.ingest[rows], k=K)
    replies.check(result, want_d, want_i, "cluster_ingest")
    # the adds; their effect is checked
    result.attempted += sum(len(setup) for setup in cycles)
    result.phase("check")

    _latency_metrics(result, call_times, kept)
    mine = [cycle for i in kept for cycle in cycles[i]]
    result.metrics["knn_qps"] = _median(
        [BATCH / calls for _, calls, _, _ in mine])
    result.metrics["batch_knn_qps"] = _median(
        [BATCH / batch for _, _, batch, _ in mine])
    result.metrics["add_traj_per_s"] = _median(
        [BATCH / add for add, _, _, _ in mine])
    result.metrics["sustained_qps"] = _median(
        [2 * BATCH / wall for _, _, _, wall in mine])
    result.notes.update(cycles=[len(setup) for setup in cycles],
                        marginal_bytes_per_traj=_median(slopes),
                        set_up_marginal_bytes_per_traj=slopes)
    return result


WORKLOADS = {
    "http_cold": http_cold,
    "cluster_ingest": cluster_ingest,
}
