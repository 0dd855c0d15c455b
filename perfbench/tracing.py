"""Spans recorded from outside the program, around its public entry points.

The benchmark never edits the program: :func:`install` replaces public
methods of the layers on the query path with thin timing wrappers, in
whichever process calls it (the generator, or a serving process started
through ``launch.py``). Spans are kept in memory as tuples and written
out once, when the process ends.

A span is ``(name, start, end, thread_id, attrs)``. Times come from
``time.perf_counter``, which on Linux reads the system-wide monotonic
clock, so spans of the processes of one run share a time base. The
program carries no request id yet, so ``layers.py`` matches spans across
processes through the RPC that encloses them (per connection, in order).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Dict, List

import numpy as np


def _count(queries) -> int:
    """Queries in a call: a bare ``(L, 2)`` array is one trajectory."""
    if isinstance(queries, np.ndarray) and queries.ndim == 2:
        return 1
    return len(queries)


def _arrays_in(message) -> int:
    if isinstance(message, np.ndarray):
        return 1
    if isinstance(message, dict):
        return sum(_arrays_in(v) for v in message.values())
    if isinstance(message, (list, tuple)):
        return sum(_arrays_in(v) for v in message)
    return 0


class Recorder:
    """In-memory span list; ``list.append`` is atomic under the GIL."""

    def __init__(self):
        self.spans: List = []

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Time every call of ``owner.attr``; ``describe(args, kwargs,
        result)`` gives the span's attributes."""
        inner = getattr(owner, attr)
        clock = time.perf_counter
        spans = self.spans

        @functools.wraps(inner)
        def timed(*args, **kwargs):
            start = clock()
            result = inner(*args, **kwargs)
            end = clock()
            attrs = describe(args, kwargs, result) if describe else {}
            spans.append((name, start, end, threading.get_ident(), attrs))
            return result

        setattr(owner, attr, timed)

    def dump(self, path: str, **extra) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, **extra}, handle)


def install(recorder: Recorder) -> None:
    """Wrap the public entry points of every layer on the query path."""
    from repro.api import transport
    from repro.api.cluster import ClusterCoordinator
    from repro.api.gateway import _GatewayHandler
    from repro.api.indexes import BruteForceBackendIndex
    from repro.api.protocols import EmbeddingBackend
    from repro.api.service import SimilarityService
    from repro.api.serving import QueryQueue

    wrap = recorder.wrap
    wrap(SimilarityService, "knn", "service.knn",
         lambda a, k, r: {"n": _count(a[1])})
    wrap(SimilarityService, "add", "service.add",
         lambda a, k, r: {"n": _count(a[1])})
    _wrap_encode_batch(recorder, SimilarityService)
    wrap(EmbeddingBackend, "encode", "encoder",
         lambda a, k, r: {"n": len(r)})
    wrap(BruteForceBackendIndex, "search", "index.search",
         lambda a, k, r: {"n": len(r[0])})
    wrap(BruteForceBackendIndex, "add", "index.add",
         lambda a, k, r: {"n": len(np.atleast_2d(a[1]))})
    wrap(transport, "encode_payload", "wire.encode",
         lambda a, k, r: {"bytes": len(r), "arrays": _arrays_in(a[0]),
                          "cmd": _command(a[0])})
    wrap(transport, "decode_payload", "wire.decode",
         lambda a, k, r: {"bytes": len(a[0]), "cmd": _command(r),
                          "pid": _join_pid(r)})
    wrap(transport.SocketTransport, "send_encoded", "transport.send",
         lambda a, k, r: {"conn": id(a[0]), "bytes": len(a[1]) + 8})
    wrap(transport.SocketTransport, "recv", "transport.recv",
         lambda a, k, r: {"conn": id(a[0])})
    wrap(ClusterCoordinator, "knn", "cluster.knn",
         lambda a, k, r: {"n": _count(a[1])})
    wrap(ClusterCoordinator, "add", "cluster.add",
         lambda a, k, r: {"n": _count(a[1])})
    wrap(_GatewayHandler, "do_POST", "gateway",
         lambda a, k, r: {"port": a[0].client_address[1]})
    _wrap_submit(recorder, QueryQueue)


def _command(message):
    """The command or status word of a ``(word, payload)`` message."""
    if isinstance(message, tuple) and message and isinstance(message[0], str):
        return message[0]
    return None


def _join_pid(message):
    """The worker pid a ``join`` reply carries (ties a link to a process)."""
    if (isinstance(message, tuple) and len(message) == 2
            and isinstance(message[1], dict) and "pid" in message[1]
            and "worker_id" in message[1]):
        return message[1]["pid"]
    return None


def _wrap_encode_batch(recorder: Recorder, cls) -> None:
    inner = cls.encode_batch
    clock = time.perf_counter
    spans = recorder.spans

    @functools.wraps(inner)
    def timed(self, trajectories):
        hits, misses = self.cache_hits, self.cache_misses
        start = clock()
        result = inner(self, trajectories)
        end = clock()
        spans.append(("service.encode", start, end, threading.get_ident(),
                      {"n": len(result), "hits": self.cache_hits - hits,
                       "misses": self.cache_misses - misses}))
        return result

    cls.encode_batch = timed


def _wrap_submit(recorder: Recorder, cls) -> None:
    """Queue span: from ``submit`` until the flush resolves the future."""
    inner = cls.submit
    clock = time.perf_counter
    spans = recorder.spans

    @functools.wraps(inner)
    def timed(self, *args, **kwargs):
        start = clock()
        tid = threading.get_ident()
        future = inner(self, *args, **kwargs)
        future.add_done_callback(lambda _f: spans.append(
            ("queue", start, clock(), tid, {})))
        return future

    cls.submit = timed


def read_dump(path: str) -> Dict:
    with open(path) as handle:
        return json.load(handle)
