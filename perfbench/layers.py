"""Per-layer metrics of a traced run, computed from the recorded spans.

Inputs: the generator's spans, the span dumps the serving processes
wrote at exit (``launch.py``), and the client records a workload keeps.
A metric of a layer a workload does not reach reads 0.

Cross-process alignment: the program carries no request id yet, so a
worker's handling of a request is matched to the coordinator's RPC that
encloses it. Each coordinator connection is tied to a worker process by
the pid in that worker's ``join`` reply; requests on one connection are
strictly sequential, so the n-th request the coordinator sends on it is
the n-th one that worker's connection thread decodes (the command words
are compared to confirm it). An HTTP request is matched to the gateway
handler span on the same client port that lies inside its round trip.
"""

from __future__ import annotations

import bisect
import statistics
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

import harness
import tracing
from workloads import BATCH


class Span:
    __slots__ = ("name", "start", "end", "tid", "attrs", "proc")

    def __init__(self, raw, proc: str):
        self.name, self.start, self.end, self.tid, self.attrs = raw
        self.proc = proc

    @property
    def dur(self) -> float:
        return self.end - self.start

    def within(self, lo: float, hi: float) -> bool:
        return lo <= self.start and self.end <= hi

    def contains(self, other: "Span") -> bool:
        return (self.proc == other.proc and self.tid == other.tid
                and self.start <= other.start and other.end <= self.end)


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _ms(seconds: float) -> float:
    return seconds * 1000.0


class Spans:
    """Every span of a run, indexed by name."""

    def __init__(self, generator: list, dumps: Dict[str, dict]):
        self.by_name: Dict[str, List[Span]] = defaultdict(list)
        self.by_thread: Dict[tuple, List[Span]] = defaultdict(list)
        self.pids: Dict[str, int] = {}
        self.services: List[dict] = []
        for raw in generator:
            self._add(Span(raw, "generator"))
        for proc, dump in dumps.items():
            self.pids[proc] = dump["pid"]
            self.services.extend(s for s in dump.get("services", [])
                                 if "error" not in s)
            for raw in dump["spans"]:
                self._add(Span(raw, proc))
        for spans in self.by_name.values():
            spans.sort(key=lambda s: s.start)
        self._starts = {}
        for key, spans in self.by_thread.items():
            spans.sort(key=lambda s: s.start)
            self._starts[key] = [s.start for s in spans]

    def _add(self, span: Span) -> None:
        self.by_name[span.name].append(span)
        self.by_thread[(span.proc, span.tid)].append(span)

    def on_thread(self, proc: str, tid: int, lo: float,
                  hi: float) -> List[Span]:
        """Spans of one thread of ``proc`` that lie inside ``[lo, hi]``."""
        key = (proc, tid)
        spans = self.by_thread.get(key, [])
        first = bisect.bisect_left(self._starts.get(key, []), lo)
        out = []
        for index in range(first, len(spans)):
            span = spans[index]
            if span.start > hi:
                break
            if span.end <= hi:
                out.append(span)
        return out

    def get(self, name: str, lo: float = float("-inf"),
            hi: float = float("inf"), proc: Optional[str] = None):
        return [s for s in self.by_name.get(name, [])
                if s.within(lo, hi) and (proc is None or s.proc == proc)]


def _children(parent: Span, candidates: Sequence[Span]) -> List[Span]:
    return [c for c in candidates if parent.contains(c)]


# ----------------------------------------------------------------------
# Service, encoder and index layers (any serving process)
# ----------------------------------------------------------------------
def service_layers(spans: Spans, lo: float, hi: float,
                   queries: int) -> Dict[str, float]:
    knn = spans.get("service.knn", lo, hi)
    encodes = spans.get("service.encode", lo, hi)
    searches = spans.get("index.search", lo, hi)
    encoder = spans.get("encoder", lo, hi)
    knn_encodes = [e for e in encodes if any(k.contains(e) for k in knn)]
    hits = sum(e.attrs["hits"] for e in knn_encodes)
    misses = sum(e.attrs["misses"] for e in knn_encodes)
    self_ms = [_ms(harness.self_time(
        (k.start, k.end),
        [(c.start, c.end) for c in _children(k, encodes + searches)]))
        for k in knn]
    query_rows = sum(e.attrs["n"] for e in encoder
                     if any(k.contains(e) for k in knn))
    small = [s for s in searches if s.attrs["n"] < BATCH]
    batch = [s for s in searches if s.attrs["n"] >= BATCH]

    def per_row(group):
        rows = sum(s.attrs["n"] for s in group)
        return _ms(sum(s.dur for s in group)) / rows if rows else 0.0

    adds = spans.get("index.add", lo, hi) or spans.get("index.add")
    adds.sort(key=lambda s: s.start)
    tenth = max(1, len(adds) // 10)
    rows = sum(e.attrs["n"] for e in encoder)
    return {
        "service.cache_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "service.knn_self_ms": _mean(self_ms),
        "encoder.ms_per_traj": _ms(sum(e.dur for e in encoder)) / rows
        if rows else 0.0,
        "encoder.rows_per_call": rows / len(encoder) if encoder else 0.0,
        "encoder.rows_per_query": query_rows / queries if queries else 0.0,
        "index.search_ms_per_query.small": per_row(small),
        "index.search_ms_per_query.batch": per_row(batch),
        "index.add_ms_per_traj": per_row(adds),
        "index.add_ms_per_traj.first_tenth": per_row(adds[:tenth]),
        "index.add_ms_per_traj.last_tenth": per_row(adds[-tenth:]),
    }


def memory_layers(spans: Spans, trace: dict) -> Dict[str, float]:
    stored = sum(s["index_stats"]["size"] for s in spans.services
                 if "index_stats" in s)
    index_bytes = sum(s["index_stats"].get("memory_bytes", 0)
                      for s in spans.services if "index_stats" in s)
    per_vector = index_bytes / stored if stored else 0.0
    cached = sum(s["cache"]["size"] for s in spans.services)
    return {
        "index.bytes_per_vector": per_vector,
        "mem.raw_bytes_per_traj": trace["raw_bytes"] / trace["db_size"],
        "mem.cache_bytes": cached * per_vector,
    }


# ----------------------------------------------------------------------
# Wire, transport, RPC and cluster layers
# ----------------------------------------------------------------------
class Rpc:
    """One coordinator request/reply on a connection, with the worker side."""

    __slots__ = ("cmd", "send", "recv", "decode", "arrays", "bytes",
                 "worker", "handle")

    def __init__(self, cmd, send: Span, recv: Span, decode: Optional[Span],
                 arrays: int):
        self.cmd, self.send, self.recv = cmd, send, recv
        self.decode, self.arrays = decode, arrays
        self.bytes = send.attrs["bytes"] + (
            decode.attrs["bytes"] + 8 if decode is not None else 0)
        self.worker: Optional[str] = None
        #: (worker decode start, worker reply sent, worker thread)
        self.handle = None

    @property
    def net(self) -> Optional[float]:
        """Request transit plus reply transit while the coordinator waited."""
        if self.handle is None or self.decode is None:
            return None
        start, end, _tid = self.handle
        return max(0.0, start - self.send.end) + max(
            0.0, self.decode.start - max(end, self.recv.start))


def _generator_rpcs(spans: Spans) -> List[Rpc]:
    encodes = spans.get("wire.encode", proc="generator")
    decodes = spans.get("wire.decode", proc="generator")
    by_conn: Dict[int, List[Span]] = defaultdict(list)
    for span in (spans.get("transport.send", proc="generator")
                 + spans.get("transport.recv", proc="generator")):
        by_conn[span.attrs["conn"]].append(span)
    rpcs = []
    for events in by_conn.values():
        events.sort(key=lambda s: s.start)
        pending = None
        conn_rpcs = []
        for event in events:
            if event.name == "transport.send":
                pending = event
            elif pending is not None:
                encode = max((e for e in encodes if e.tid == pending.tid
                              and e.end <= pending.start),
                             key=lambda e: e.end, default=None)
                decode = next((d for d in decodes if event.contains(d)),
                              None)
                conn_rpcs.append(Rpc(
                    encode.attrs["cmd"] if encode else None, pending, event,
                    decode, encode.attrs["arrays"] if encode else 0))
                pending = None
        pid = next((r.decode.attrs.get("pid") for r in conn_rpcs
                    if r.decode is not None and r.decode.attrs.get("pid")),
                   None)
        if pid is None:
            continue  # heartbeat link: pings only, no join
        worker = next((p for p, known in spans.pids.items() if known == pid),
                      None)
        for rpc in conn_rpcs:
            rpc.worker = worker
        rpcs.extend(conn_rpcs)
    return rpcs


def _worker_handling(spans: Spans, worker: str) -> List[tuple]:
    """``(cmd, decode start, reply sent)`` per request, in order, per thread."""
    decodes = [d for d in spans.get("wire.decode", proc=worker)
               if d.attrs.get("cmd") not in (None, "ping")]
    sends = spans.get("transport.send", proc=worker)
    out = []
    for decode in decodes:
        reply = next((s for s in sends if s.tid == decode.tid
                      and s.start >= decode.end), None)
        if reply is not None:
            out.append((decode.attrs["cmd"], decode.start, reply.end,
                        decode.tid))
    return out


def align(spans: Spans, rpcs: List[Rpc]) -> int:
    """Attach worker handling spans to coordinator RPCs; returns mismatches."""
    mismatches = 0
    for worker in spans.pids:
        mine = sorted((r for r in rpcs if r.worker == worker),
                      key=lambda r: r.send.start)
        handled = _worker_handling(spans, worker)
        for rpc, (cmd, start, end, tid) in zip(mine, handled):
            if rpc.cmd != cmd or not rpc.send.start <= start <= rpc.recv.end:
                mismatches += 1
                continue
            rpc.handle = (start, end, tid)
        mismatches += abs(len(mine) - len(handled))
    return mismatches


def _measured_union(spans: Spans, call: Span, rpcs: List[Rpc],
                    io: List[Span]) -> float:
    """Time inside ``call`` that measured spans account for.

    Counted: the coordinator's own work (the call minus its encode, send
    and receive spans), its encode and send spans, the decode of each
    reply, and, on each worker, the spans its connection thread recorded
    while handling the request (decode, the service calls, the reply's
    encode and send). Not counted: transit between the processes and
    whatever a worker does between its wrapped calls; ``rpc.net_ms``
    reports the transit on its own.
    """
    mine = sorted((c.start, c.end) for c in io if call.contains(c))
    intervals, cursor = [], call.start
    for start, end in mine:  # the coordinator's own work: gaps between I/O
        if start > cursor:
            intervals.append((cursor, start))
        cursor = max(cursor, end)
    intervals.append((cursor, call.end))
    intervals += [(c.start, c.end) for c in io
                  if c.name != "transport.recv" and call.contains(c)]
    for rpc in rpcs:
        if rpc.decode is not None:
            intervals.append((rpc.decode.start, rpc.decode.end))
        if rpc.handle is not None:
            start, end, tid = rpc.handle
            intervals += [(w.start, w.end) for w in
                          spans.on_thread(rpc.worker, tid, start, end)]
    return harness.union_length(intervals, call.start, call.end)


def cluster_layers(spans: Spans, lo: float, hi: float) -> Dict[str, float]:
    rpcs = _generator_rpcs(spans)
    mismatches = align(spans, rpcs)
    calls = spans.get("cluster.knn", lo, hi)
    adds = spans.get("cluster.add", lo, hi) or spans.get("cluster.add")
    io = (spans.get("wire.encode", proc="generator")
          + spans.get("transport.send", proc="generator")
          + spans.get("transport.recv", proc="generator"))

    def rpcs_of(call: Span) -> List[Rpc]:
        return [r for r in rpcs if call.contains(r.send)]

    merge, straggler, coverage, query_bytes = [], [], [], 0
    for call in calls:
        mine = rpcs_of(call)
        own = harness.self_time((call.start, call.end),
                                [(c.start, c.end) for c in io
                                 if call.contains(c)])
        merge.append(_ms(own))
        query_bytes += sum(r.bytes for r in mine)
        handled = [r for r in mine if r.handle is not None]
        if len(handled) >= 2:
            reply_at = [r.handle[1] - r.send.start for r in handled]
            straggler.append(_ms(max(reply_at) - min(reply_at)))
        if handled and call.attrs["n"] < BATCH:
            coverage.append(_measured_union(spans, call, mine, io)
                            / call.dur)
    acks, frames = [], []
    for add in adds:
        mine = [r for r in rpcs_of(add) if r.cmd == "add"]
        handled = [r.handle[1] for r in mine if r.handle is not None]
        if len(handled) >= 2:
            acks.append(_ms(max(handled) - min(handled)))
        frames.append(sum(2 + r.arrays for r in mine))
    window_rpcs = [r for r in rpcs if lo <= r.send.start <= hi
                   and r.net is not None]
    codec_lo_hi = [s for s in spans.get("wire.encode", lo, hi)]
    decode_lo_hi = [s for s in spans.get("wire.decode", lo, hi)]
    queries = sum(c.attrs["n"] for c in calls)
    return {
        "wire.encode_ms": _mean([_ms(s.dur) for s in codec_lo_hi]),
        "wire.decode_ms": _mean([_ms(s.dur) for s in decode_lo_hi]),
        "transport.bytes_per_query": query_bytes / queries if queries else 0,
        "transport.frames_per_add": _mean(frames),
        "rpc.net_ms": _mean([_ms(r.net) for r in window_rpcs]),
        "cluster.merge_ms": _mean(merge),
        "cluster.straggler_ms": _mean(straggler),
        "cluster.replica_ack_ms": _mean(acks),
        "trace.coverage": _mean(coverage),
        "trace.align_mismatches": mismatches,
    }


# ----------------------------------------------------------------------
# Gateway and queue layers (http_cold)
# ----------------------------------------------------------------------
def gateway_layers(spans: Spans, trace: dict) -> Dict[str, float]:
    lo, hi = trace["low_window"]
    records, ports = trace["records"], trace["ports"]
    handlers = spans.get("gateway", proc="server")
    queues = spans.get("queue", proc="server")
    flushes = spans.get("service.knn", proc="server")
    by_port: Dict[int, List[Span]] = defaultdict(list)
    for handler in handlers:
        by_port[handler.attrs["port"]].append(handler)
    overhead, waits, coverage, body_wait = [], [], [], []
    for index, record in enumerate(records):
        if not record.ok or not lo <= record.due <= hi:
            continue
        # The handler span of this request: same connection, inside the
        # client's round trip (one request per connection at a time).
        handler = next((h for h in by_port.get(ports[index], [])
                        if record.sent <= h.start
                        and h.end <= record.done), None)
        queue = next((q for q in queues if handler is not None
                      and handler.contains(q)), None)
        if queue is None:
            continue
        rtt = record.done - record.sent
        overhead.append(_ms(rtt - queue.dur))
        flush = next((f for f in flushes if f.start >= queue.start), None)
        if flush is not None:
            waits.append(_ms(flush.start - queue.start))
        headers = trace["headers_at"][index]
        written = trace["written_at"][index]
        body_wait.append(_ms(record.done - headers))
        coverage.append((written - record.sent + handler.dur
                         + record.done - headers) / rtt)
    w_lo, w_hi = trace["window"]
    batches = [f.attrs["n"] for f in spans.get("service.knn", w_lo, w_hi,
                                               proc="server")]
    return {
        "gateway.overhead_ms": _mean(overhead),
        "gateway.body_wait_ms": _mean(body_wait),
        "gateway.reconnects": trace["reconnects"],
        "queue.wait_ms": _mean(waits),
        "queue.batch_size": _mean(batches),
        "trace.coverage": _mean(coverage),
    }


# ----------------------------------------------------------------------
def compute(workload: str, result, generator_spans: list) -> Dict[str, float]:
    """Every per-layer metric for one traced run (0 where not reached)."""
    trace = result.trace
    dumps = {proc: tracing.read_dump(path)
             for proc, path in trace["dumps"].items()}
    spans = Spans(generator_spans, dumps)
    lo, hi = trace["window"][0], trace["window_end"]
    out: Dict[str, float] = {
        "gateway.overhead_ms": 0.0, "gateway.body_wait_ms": 0.0,
        "gateway.reconnects": 0, "queue.wait_ms": 0.0,
        "queue.batch_size": 0.0, "gen.lateness_p99_ms": 0.0,
        "proc.cpu_util.server": 0.0, "proc.cpu_util.worker0": 0.0,
        "proc.cpu_util.worker1": 0.0,
    }
    out.update(service_layers(spans, lo, hi, trace["queries_answered"]))
    out.update(memory_layers(spans, trace))
    out.update(cluster_layers(spans, lo, hi))
    if workload == "http_cold":
        out.update(gateway_layers(spans, trace))
        out["gen.lateness_p99_ms"] = result.notes[
            "generator_lateness_p99_ms"]
    for proc, util in trace["cpu"].items():
        out[f"proc.cpu_util.{proc}"] = util
    out["mem.marginal_bytes_per_traj"] = result.notes[
        "marginal_bytes_per_traj"]
    out["trace.knn_p50_ms"] = result.metrics["knn_p50_ms"]
    out["trace.knn_p90_ms"] = result.metrics["knn_p90_ms"]
    out["trace.knn_p99_ms"] = result.metrics["knn_p99_ms"]
    out["oracle.bitexact_ratio"] = (result.oracle.bitexact
                                    / max(1, result.oracle.checked))
    return out
