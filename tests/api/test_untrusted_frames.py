"""Bytes from a port are untrusted: every malformed frame is rejected as
:class:`FrameError` (or ends the stream as :class:`TransportClosed`),
never escapes as another exception, never maps shared memory a socket
peer names, and never takes a server thread down."""

import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RemoteSimilarityClient, SimilarityServer, SimilarityService
from repro.api.transport import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    FrameError,
    SocketTransport,
    TransportClosed,
    decode_payload,
    encode_payload,
)
from repro.api.wire import WIRE_VERSION

from .test_registry import make_trajectories

V = bytes([WIRE_VERSION])

#: payloads that each escaped the decoder as a non-FrameError once
KNOWN_BAD = {
    "deep_nesting": V + b"l\x00\x00\x00\x01" * 200000 + b"N",
    "unhashable_key": V + b"d\x00\x00\x00\x01" + b"l\x00\x00\x00\x00" + b"N",
    "zero_itemsize_scalar": V + b"x\x03|S0",
    "zero_itemsize_array": V + b"a\x03|S0\x01" + (4).to_bytes(8, "big")
    + (0).to_bytes(8, "big"),
    "dtype_literal_syntax": V + b"x\x05(7g,)" + bytes(16),
    "huge_dim_of_empty_array": V + b"a\x03<f8\x02" + (0).to_bytes(8, "big")
    + (1 << 63).to_bytes(8, "big") + (0).to_bytes(8, "big"),
    "pickle_proto": b"\x80\x05N.",
}

#: the shapes of real traffic, to mutate and truncate
VALID = [encode_payload(message) for message in (
    ("knn", ([np.arange(6.0).reshape(3, 2)], 3, None, None)),
    ("ok", (np.ones((2, 3)), np.arange(6, dtype=np.int64).reshape(2, 3))),
    ("add", [np.zeros((4, 2), dtype=np.float32), np.arange(3, dtype=">i4")]),
    {"size": 1, "shards": [{"shard": 0, "healthy": True}], "rate": 1.5,
     "name": "w", "blob": b"\x00", "big": 2**70, "scalar": np.float32(2)},
)]


@st.composite
def hostile_payloads(draw):
    kind = draw(st.sampled_from(["random", "versioned", "truncated",
                                 "mutated"]))
    if kind == "random":
        return draw(st.binary(max_size=512))
    if kind == "versioned":
        return V + draw(st.binary(max_size=512))
    payload = draw(st.sampled_from(VALID))
    index = draw(st.integers(0, len(payload) - 1))
    if kind == "truncated":
        return payload[:index]
    byte = draw(st.integers(0, 255))
    return payload[:index] + bytes([byte]) + payload[index + 1:]


@st.composite
def hostile_streams(draw):
    """Raw socket bytes: a frame around a hostile payload, possibly with
    a header that lies about its length or exceeds the frame limit."""
    payload = draw(hostile_payloads())
    header = draw(st.sampled_from(["honest", "short", "oversized"]))
    if header == "honest":
        length = len(payload)
    elif header == "short":
        # Kept small: a socket read asks for the whole claimed length.
        length = len(payload) + draw(st.integers(1, 1 << 16))
    else:
        length = draw(st.integers(MAX_FRAME_BYTES + 1, 2**64 - 1))
    return FRAME_HEADER.pack(length) + payload


def receive_all(stream: bytes) -> None:
    """Feed *stream* to a SocketTransport and read frames until it stops."""
    writer, reader = socket.socketpair()
    transport = SocketTransport(reader)
    try:
        writer.sendall(stream)
        writer.shutdown(socket.SHUT_WR)
        with pytest.raises((FrameError, TransportClosed)):
            while True:
                transport.recv()
    finally:
        writer.close()
        transport.close()


@pytest.mark.parametrize("name", sorted(KNOWN_BAD))
def test_known_bad_payloads_are_frame_errors(name):
    with pytest.raises(FrameError):
        decode_payload(KNOWN_BAD[name])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(hostile_payloads())
def test_decode_payload_only_raises_frame_error(payload):
    try:
        decode_payload(payload)
    except FrameError:
        pass


@settings(max_examples=200, derandomize=True, deadline=None)
@given(hostile_streams())
def test_socket_recv_only_raises_frame_error_or_closed(stream):
    receive_all(stream)


class TestServerSurvivesBadFrames:
    @pytest.fixture()
    def thread_errors(self):
        errors = []
        previous = threading.excepthook
        threading.excepthook = errors.append
        yield errors
        threading.excepthook = previous

    def test_bad_frame_closes_one_connection_only(self, thread_errors):
        database = make_trajectories(n=12, seed=5)
        service = SimilarityService(backend="hausdorff").add(database)
        with SimilarityServer(service) as server:
            for payload in KNOWN_BAD.values():
                with socket.create_connection(server.address) as sock:
                    sock.sendall(FRAME_HEADER.pack(len(payload)) + payload)
                    transport = SocketTransport(sock)
                    status, detail = transport.recv()
                    assert status == "error" and "malformed frame" in detail
                    with pytest.raises(TransportClosed):
                        transport.recv()
            with RemoteSimilarityClient(*server.address) as client:
                got = client.knn(database[3], k=3, exclude=3)
        want = service.knn(database[3], k=3, exclude=3)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert thread_errors == []
