"""Framed-message transports and the request/response dispatcher.

Every hop in the serving stack — parent process to shard worker, TCP
client to :class:`~repro.api.remote.SimilarityServer`, asyncio caller to
the same server — speaks one wire protocol: a *frame* is an 8-byte
big-endian length prefix followed by a payload encoded by the typed
binary codec in :mod:`repro.api.wire` (numpy buffers raw, every other
value a typed tag).  Bytes that do not decode raise :class:`FrameError`;
decoding never runs code.  The abstractions here keep the callers
transport-oblivious:

* :class:`Transport` — the ``send``/``recv``/``poll``/``close`` contract;
* :class:`PipeTransport` — a :mod:`multiprocessing` pipe endpoint (the
  pipe frames raw payload bytes; an optional shared-memory pool moves
  large arrays out-of-band entirely);
* :class:`SocketTransport` — the same messages as explicit frames over a
  TCP socket, shared byte-for-byte with the asyncio client;
* :class:`ServiceNode` — the request/response loop a worker or server
  connection runs: receive ``(command, payload)``, dispatch to a handler,
  reply ``("ok", result)`` or ``("error", traceback)``;
* :func:`request` / :func:`broadcast` / :func:`broadcast_encoded` — the
  matching caller side, with the drain-every-reply-before-raising
  discipline that keeps a multi-peer RPC in sync after a failure;
  :func:`broadcast_encoded` writes one pre-encoded payload to every
  peer so a fan-out serializes the request exactly once.

Every transport counts traffic (``bytes_sent``/``frames_sent``/
``bytes_recv``/``frames_recv``, plus ``shm_hits`` when a pool is
attached) and reports it via ``stats()``.

:class:`~repro.api.serving.ShardedSimilarityService` and
:class:`~repro.api.remote.SimilarityServer` are both thin layers over
these pieces; neither owns any framing or dispatch logic of its own.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from . import wire

__all__ = [
    "TransportError",
    "TransportClosed",
    "TransientError",
    "FrameError",
    "RemoteCallError",
    "Transport",
    "PipeTransport",
    "SocketTransport",
    "ServiceNode",
    "encode_frame",
    "encode_payload",
    "decode_payload",
    "request",
    "broadcast",
    "broadcast_encoded",
    "drain_replies",
    "merge_transport_stats",
    "FRAME_HEADER",
    "MAX_FRAME_BYTES",
]

#: length prefix of a socket frame: 8-byte unsigned big-endian
FRAME_HEADER = struct.Struct(">Q")

#: refuse frames larger than this (a garbage header must not trigger a
#: multi-terabyte read; 1 GiB comfortably holds any real payload here)
MAX_FRAME_BYTES = 1 << 30


class TransportError(ConnectionError):
    """Base class for transport failures."""


class TransportClosed(TransportError):
    """The peer closed the connection (EOF, broken pipe)."""


class TransientError(TransportError):
    """A failure that is expected to clear on retry (reset, injected drop).

    The chaos harness raises this for injected connection drops, and
    retry layers (the remote client's single retry, the coordinator's
    replica failover) treat it exactly like :class:`TransportClosed`:
    the exchange died *between* frames, so repeating it elsewhere — or
    on a fresh connection — is safe. Contrast :class:`FrameError`,
    which means a reply was partially consumed and must never be
    retried blindly.
    """


class FrameError(TransportError):
    """The byte stream does not parse as a frame (malformed or truncated)."""


class RemoteCallError(RuntimeError):
    """The peer executed the request and reported a failure."""


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_payload(message, pool: Optional[wire.ShmPool] = None) -> bytes:
    """Encode one message into frame-payload bytes (no length prefix)."""
    return wire.encode(message, pool)


def encode_frame(message) -> bytes:
    """One socket frame: length prefix + encoded payload."""
    payload = encode_payload(message)
    return FRAME_HEADER.pack(len(payload)) + payload


def decode_payload(payload, allow_shm: bool = False):
    """Decode a frame payload, normalizing failures to :class:`FrameError`.

    Malformed input — a wrong version byte, a truncated body, an unknown
    tag, or a shared-memory reference without *allow_shm* — surfaces as
    :class:`FrameError`, never as a truncated ``np.frombuffer``.
    """
    try:
        return wire.decode(payload, allow_shm=allow_shm)
    except wire.WireError as error:
        raise FrameError(f"frame payload does not decode: {error}") from error


def frame_length(header: bytes) -> int:
    """Parse and validate a frame header."""
    if len(header) != FRAME_HEADER.size:
        raise FrameError(
            f"frame header is {len(header)} bytes, expected {FRAME_HEADER.size}"
        )
    (length,) = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return length


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------
class Transport(Protocol):
    """A bidirectional message channel (blocking, one peer)."""

    def send(self, message) -> None:
        """Deliver one message to the peer."""
        ...

    def send_encoded(self, payload: bytes) -> None:
        """Deliver a message already encoded by :func:`encode_payload`."""
        ...

    def recv(self):
        """Block for the peer's next message."""
        ...

    def poll(self, timeout: Optional[float] = None) -> bool:
        """True when :meth:`recv` would not block."""
        ...

    def close(self) -> None:
        """Release the channel (idempotent)."""
        ...


def merge_transport_stats(stats_list: Sequence[Dict]) -> Dict:
    """Sum per-transport ``stats()`` dicts into one fan-out aggregate."""
    total = {
        "bytes_sent": 0, "frames_sent": 0,
        "bytes_recv": 0, "frames_recv": 0, "shm_hits": 0,
    }
    for stats in stats_list:
        for key in total:
            total[key] += stats.get(key, 0)
    return total


class PipeTransport:
    """A :mod:`multiprocessing` pipe endpoint as a :class:`Transport`.

    Messages cross the pipe as raw payload bytes (``send_bytes`` /
    ``recv_bytes``) encoded by :func:`encode_payload`, so the pipe's own
    pickling is out of the data path; the adapter also supplies the
    uniform error vocabulary (``EOFError``/``OSError`` become
    :class:`TransportClosed`).  Instances survive being passed as
    :class:`multiprocessing.Process` arguments — the embedded connection
    uses the standard reduction, and the shared-memory pool (which owns
    a lock) is created lazily on first use so it never rides along.

    With ``shm_threshold`` set, arrays at or above that many bytes are
    written to ``multiprocessing.shared_memory`` segments instead of the
    pipe.  Segment lifetime follows the request/response alternation:
    everything this endpoint stored for its last send is released (closed
    and unlinked) when the peer's next message arrives — by then the peer
    has provably decoded the previous one — with :meth:`close` sweeping
    whatever is still outstanding so no ``/dev/shm`` litter survives.
    """

    def __init__(self, connection, *, shm_threshold: Optional[int] = None):
        self._connection = connection
        self._closed = False
        self._shm_threshold = shm_threshold
        self._pool: Optional[wire.ShmPool] = None
        self.bytes_sent = 0
        self.frames_sent = 0
        self.bytes_recv = 0
        self.frames_recv = 0

    @classmethod
    def pair(cls, context=None, *, shm_threshold: Optional[int] = None,
             ) -> Tuple["PipeTransport", "PipeTransport"]:
        """A connected ``(parent, child)`` transport pair."""
        if context is None:
            import multiprocessing as context
        left, right = context.Pipe()
        return (
            cls(left, shm_threshold=shm_threshold),
            cls(right, shm_threshold=shm_threshold),
        )

    def _shm_pool(self) -> Optional[wire.ShmPool]:
        if self._pool is None and self._shm_threshold is not None:
            self._pool = wire.ShmPool(self._shm_threshold)
        return self._pool

    def send(self, message) -> None:
        self.send_encoded(encode_payload(message, self._shm_pool()))

    def send_encoded(self, payload: bytes) -> None:
        try:
            self._connection.send_bytes(payload)
        except (BrokenPipeError, EOFError, OSError) as error:
            raise TransportClosed(str(error) or "pipe closed") from error
        self.bytes_sent += len(payload)
        self.frames_sent += 1

    def recv(self):
        try:
            payload = self._connection.recv_bytes()
        except (EOFError, OSError) as error:
            raise TransportClosed(str(error) or "pipe closed") from error
        if self._pool is not None:
            # The peer has spoken again, so it has decoded everything we
            # sent before this point (strict request/response
            # alternation): our outstanding segments can be unlinked.
            self._pool.release()
        self.bytes_recv += len(payload)
        self.frames_recv += 1
        # The peer is a forked worker or its parent, so a segment it
        # names was created by this process tree.
        return decode_payload(payload, allow_shm=True)

    def poll(self, timeout: Optional[float] = None) -> bool:
        try:
            return self._connection.poll(timeout)
        except (EOFError, OSError):
            # A dead peer is "readable": recv() will raise TransportClosed.
            return True

    def stats(self) -> Dict:
        pool = self._pool
        return {
            "bytes_sent": self.bytes_sent,
            "frames_sent": self.frames_sent,
            "bytes_recv": self.bytes_recv,
            "frames_recv": self.frames_recv,
            "shm_hits": 0 if pool is None else pool.hits,
        }

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            if self._pool is not None:
                self._pool.release()
            self._connection.close()


class SocketTransport:
    """Framed messages over a connected TCP socket.

    The frame layout (8-byte big-endian length, versioned payload) is
    shared with :class:`~repro.api.remote.AsyncSimilarityClient`, so a
    server never knows whether a thread or an event loop sits at the
    other end.  No shared memory here in either direction: sockets may
    cross machines, and a peer must not be able to make this process map
    a segment by name.
    """

    def __init__(self, sock):
        self._socket = sock
        self._closed = False
        self.bytes_sent = 0
        self.frames_sent = 0
        self.bytes_recv = 0
        self.frames_recv = 0

    @classmethod
    def connect(
        cls, host: str, port: int, timeout: Optional[float] = None,
        *, retries: int = 0, retry_wait: float = 0.1,
    ) -> "SocketTransport":
        """Connect, optionally retrying with exponential backoff.

        A raw ``socket.connect`` races server boot: a client started
        alongside a ``serve``/``cluster-worker`` process can hit
        connection-refused before the listener binds, and a ready-file
        only helps on the same machine. ``retries`` bounds the extra
        attempts (waiting ``retry_wait``, doubling each time); the final
        failure surfaces as :class:`TransportClosed`.
        """
        import socket as socket_module
        import time

        last_error: Optional[OSError] = None
        delay = retry_wait
        for attempt in range(int(retries) + 1):
            try:
                sock = socket_module.create_connection((host, port),
                                                       timeout=timeout)
                sock.settimeout(None)
                return cls(sock)
            except OSError as error:
                last_error = error
                if attempt < retries:
                    time.sleep(delay)
                    delay *= 2
        raise TransportClosed(
            f"could not connect to {host}:{port} after {int(retries) + 1} "
            f"attempt(s): {last_error}"
        ) from last_error

    def send(self, message) -> None:
        self.send_encoded(encode_payload(message))

    def send_encoded(self, payload: bytes) -> None:
        frame = FRAME_HEADER.pack(len(payload)) + payload
        try:
            self._socket.sendall(frame)
        except OSError as error:
            raise TransportClosed(str(error) or "socket closed") from error
        self.bytes_sent += len(frame)
        self.frames_sent += 1

    def _read_exactly(self, n: int, *, header: bool) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            try:
                chunk = self._socket.recv(remaining)
            except OSError as error:
                raise TransportClosed(str(error) or "socket closed") from error
            if not chunk:
                if remaining == n and header:
                    # Clean EOF between frames: the peer hung up politely.
                    raise TransportClosed("peer closed the connection")
                raise FrameError(
                    f"connection closed mid-frame ({n - remaining}/{n} bytes)"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv(self):
        length = frame_length(
            self._read_exactly(FRAME_HEADER.size, header=True)
        )
        payload = self._read_exactly(length, header=False)
        self.bytes_recv += FRAME_HEADER.size + length
        self.frames_recv += 1
        return decode_payload(payload)

    def stats(self) -> Dict:
        return {
            "bytes_sent": self.bytes_sent,
            "frames_sent": self.frames_sent,
            "bytes_recv": self.bytes_recv,
            "frames_recv": self.frames_recv,
            "shm_hits": 0,
        }

    def poll(self, timeout: Optional[float] = None) -> bool:
        import select

        try:
            readable, _, _ = select.select([self._socket], [], [], timeout)
        except (OSError, ValueError):
            # OSError: socket error; ValueError: fd already -1 because
            # close() won a race. Either way recv() surfaces the truth.
            return True
        return bool(readable)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        import socket as socket_module

        try:
            self._socket.shutdown(socket_module.SHUT_RDWR)
        except OSError:
            pass
        self._socket.close()


# ----------------------------------------------------------------------
# Request/response
# ----------------------------------------------------------------------
#: replies are ``(status, result)`` with one of these statuses
OK = "ok"
ERROR = "error"

#: the conventional shutdown command a ServiceNode honours
STOP = "stop"


def read_reply(transport: Transport, who: str = "peer"):
    """One reply off the transport; raises :class:`RemoteCallError` on error."""
    status, result = transport.recv()
    if status != OK:
        raise RemoteCallError(f"{who} failed:\n{result}")
    return result


def request(transport: Transport, command: str, payload=None,
            who: str = "peer"):
    """One round-trip: send ``(command, payload)``, return the ok-result."""
    transport.send((command, payload))
    return read_reply(transport, who)


def drain_replies(transports: Sequence[Transport],
                  who: str = "peer") -> List:
    """Gather one reply per peer, reading *every* channel before raising.

    Leaving a reply buffered in a channel would desynchronize the RPC
    for all later commands on that peer. Transport-level failures
    surface as :class:`RemoteCallError` alongside peer-reported ones.
    """
    results, failures = [], []
    for transport in transports:
        try:
            status, result = transport.recv()
        except TransportError as error:
            failures.append(f"transport failure: {error}")
            results.append(None)
            continue
        if status != OK:
            failures.append(result)
            results.append(None)
        else:
            results.append(result)
    if failures:
        raise RemoteCallError(f"{who} failed:\n" + "\n".join(failures))
    return results


def broadcast(transports: Sequence[Transport], command: str,
              payloads: Sequence, who: str = "peer") -> List:
    """Fan one command out over many peers, then gather every reply.

    All sends complete before the first recv so the peers work
    concurrently; the reply discipline is :func:`drain_replies`.
    """
    for transport, payload in zip(transports, payloads):
        transport.send((command, payload))
    return drain_replies(transports, who)


def broadcast_encoded(transports: Sequence[Transport], encoded: bytes,
                      who: str = "peer") -> List:
    """:func:`broadcast` a message that was encoded exactly once.

    *encoded* is the :func:`encode_payload` bytes of one ``(command,
    payload)`` message every peer should receive; the same buffer is
    written to each transport, so an N-way fan-out pays for one
    serialization instead of N.
    """
    for transport in transports:
        transport.send_encoded(encoded)
    return drain_replies(transports, who)


class ServiceNode:
    """The serving end of the RPC: one transport, one dispatch table.

    Runs the receive → dispatch → reply loop that shard workers and
    server connections share. Handler exceptions and results the codec
    cannot encode become ``("error", ...)`` replies and the loop
    continues — one bad request must not take the node down.
    Transport-level failures (peer gone, malformed frame) end the loop
    instead: once the byte stream cannot be trusted, silence is the only
    safe reply.
    """

    def __init__(
        self,
        transport: Transport,
        handlers: Dict[str, Callable],
        *,
        stop_command: str = STOP,
        should_stop: Optional[Callable[[], bool]] = None,
        poll_interval: float = 0.1,
        on_request: Optional[Callable[[str], None]] = None,
    ):
        self.transport = transport
        self.handlers = dict(handlers)
        self.stop_command = stop_command
        self._should_stop = should_stop
        self._poll_interval = poll_interval
        self._on_request = on_request

    def serve_forever(self) -> None:
        """Answer requests until stop, peer exit, or an unframeable stream."""
        import traceback

        while True:
            if self._should_stop is not None:
                # Cooperative shutdown: between requests, watch the flag
                # instead of blocking in recv() forever. A request already
                # buffered when the flag flips is still served — shutdown
                # must not drop work the node has accepted.
                while not self.transport.poll(self._poll_interval):
                    if self._should_stop():
                        return
            try:
                message = self.transport.recv()
            except TransportClosed:
                return
            except FrameError as error:
                # Best-effort diagnostic; the stream is unrecoverable.
                try:
                    self.transport.send((ERROR, f"malformed frame: {error}"))
                except TransportError:
                    pass
                return
            try:
                command, payload = message
            except (TypeError, ValueError):
                command = None
            if not isinstance(command, str):
                self._reply((ERROR, f"malformed request: {message!r}"))
                continue
            if command == self.stop_command:
                self._reply((OK, None))
                return
            handler = self.handlers.get(command)
            if handler is None:
                self._reply((ERROR, f"unknown command {command!r}"))
                continue
            if self._on_request is not None:
                self._on_request(command)
            try:
                result = handler(payload)
            except Exception:
                self._reply((ERROR, traceback.format_exc()))
                continue
            self._reply((OK, result))

    def _reply(self, reply) -> None:
        try:
            try:
                self.transport.send(reply)
            except wire.WireError as error:
                # A handler returned a value the codec has no tag for;
                # the request still gets exactly one reply.
                self.transport.send((ERROR, f"unencodable reply: {error}"))
        except TransportError:
            # The peer vanished between request and reply; nothing to do —
            # the loop will notice on the next recv().
            pass
