"""Tests for the framed-message transport layer: codecs, pipe/socket
transports, the ServiceNode dispatcher, and the broadcast discipline."""

import os
import socket
import threading

import numpy as np
import pytest

from repro.api.transport import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    FrameError,
    PipeTransport,
    RemoteCallError,
    ServiceNode,
    SocketTransport,
    TransportClosed,
    broadcast,
    broadcast_encoded,
    decode_payload,
    encode_frame,
    encode_payload,
    frame_length,
    merge_transport_stats,
    request,
)
from repro.api.wire import WIRE_VERSION


class TestFraming:
    def test_round_trip(self):
        message = ("knn", {"queries": np.arange(6).reshape(3, 2), "k": 2})
        frame = encode_frame(message)
        length = frame_length(frame[:FRAME_HEADER.size])
        assert length == len(frame) - FRAME_HEADER.size
        command, payload = decode_payload(frame[FRAME_HEADER.size:])
        assert command == "knn"
        np.testing.assert_array_equal(payload["queries"],
                                      np.arange(6).reshape(3, 2))

    def test_header_must_be_exact(self):
        with pytest.raises(FrameError, match="header"):
            frame_length(b"\x00\x01")

    def test_oversized_frame_is_refused(self):
        header = FRAME_HEADER.pack(MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameError, match="exceeds"):
            frame_length(header)

    def test_garbage_payload_is_a_frame_error(self):
        with pytest.raises(FrameError, match="does not decode"):
            decode_payload(b"this is not a wire payload")


def socket_transport_pair():
    left, right = socket.socketpair()
    return SocketTransport(left), SocketTransport(right)


@pytest.fixture(params=["pipe", "socket"])
def transport_pair(request):
    if request.param == "pipe":
        left, right = PipeTransport.pair()
    else:
        left, right = socket_transport_pair()
    yield left, right
    left.close()
    right.close()


class TestTransports:
    def test_send_recv_preserves_arrays(self, transport_pair):
        left, right = transport_pair
        payload = np.random.default_rng(0).normal(size=(4, 3))
        left.send(("ok", payload))
        status, received = right.recv()
        assert status == "ok"
        assert received.tobytes() == payload.tobytes()

    def test_poll(self, transport_pair):
        left, right = transport_pair
        assert not right.poll(0.01)
        left.send("ping")
        assert right.poll(1.0)
        assert right.recv() == "ping"

    def test_recv_after_peer_close_raises_closed(self, transport_pair):
        left, right = transport_pair
        left.close()
        with pytest.raises(TransportClosed):
            right.recv()

    def test_close_is_idempotent(self, transport_pair):
        left, _right = transport_pair
        left.close()
        left.close()


class TestSocketFraming:
    def test_truncated_frame_is_a_frame_error(self):
        left, right = socket.socketpair()
        transport = SocketTransport(right)
        # A header promising 100 bytes, then only 3 and EOF.
        left.sendall(FRAME_HEADER.pack(100) + b"abc")
        left.close()
        with pytest.raises(FrameError, match="mid-frame"):
            transport.recv()
        transport.close()

    def test_clean_eof_between_frames_is_closed(self):
        left, right = socket.socketpair()
        transport = SocketTransport(right)
        left.sendall(encode_frame("hello"))
        left.close()
        assert transport.recv() == "hello"
        with pytest.raises(TransportClosed):
            transport.recv()
        transport.close()


class TestShortReads:
    """A TCP peer may deliver a frame in arbitrarily small pieces, or stop
    mid-frame. Partial reads must reassemble; truncation must surface as a
    clean transport error — never a decode of a truncated payload."""

    def test_byte_dribble_reassembles_the_frame(self):
        left, right = socket.socketpair()
        transport = SocketTransport(right)
        message = {"vector": np.arange(6, dtype=np.float64),
                   "tag": "dribble"}
        frame = encode_frame(message)

        def dribble():
            for i in range(len(frame)):
                left.sendall(frame[i:i + 1])
            left.close()

        thread = threading.Thread(target=dribble)
        thread.start()
        received = transport.recv()
        thread.join(timeout=10)
        assert received["tag"] == "dribble"
        np.testing.assert_array_equal(received["vector"], message["vector"])
        with pytest.raises(TransportClosed):
            transport.recv()  # the dribbler's EOF is a clean hangup
        transport.close()

    def test_back_to_back_frames_parse_cleanly(self):
        left, right = socket.socketpair()
        transport = SocketTransport(right)
        left.sendall(encode_frame("first") + encode_frame("second"))
        assert transport.recv() == "first"
        assert transport.recv() == "second"
        left.close()
        transport.close()

    def test_close_mid_header_is_a_frame_error(self):
        left, right = socket.socketpair()
        transport = SocketTransport(right)
        left.sendall(FRAME_HEADER.pack(64)[:3])  # 3 of the 8 header bytes
        left.close()
        with pytest.raises(FrameError, match="mid-frame"):
            transport.recv()
        transport.close()

    def test_close_mid_body_is_a_frame_error_not_an_unpickle(self):
        left, right = socket.socketpair()
        transport = SocketTransport(right)
        frame = encode_frame({"payload": np.arange(100)})
        left.sendall(frame[:-5])  # everything but the last 5 body bytes
        left.close()
        # FrameError from the framing layer: the truncated bytes must
        # never reach the decoder.
        with pytest.raises(FrameError, match="mid-frame"):
            transport.recv()
        transport.close()


def run_node(transport, handlers, **kwargs):
    node = ServiceNode(transport, handlers, **kwargs)
    thread = threading.Thread(target=node.serve_forever, daemon=True)
    thread.start()
    return thread


class TestServiceNode:
    def test_dispatch_and_stop(self):
        caller, server = PipeTransport.pair()
        thread = run_node(server, {"double": lambda x: 2 * x})
        assert request(caller, "double", 21) == 42
        caller.send(("stop", None))
        assert caller.recv() == ("ok", None)
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_handler_error_is_reported_and_survived(self):
        def boom(_payload):
            raise ValueError("intentional")

        caller, server = PipeTransport.pair()
        run_node(server, {"boom": boom, "ping": lambda _: "pong"})
        with pytest.raises(RemoteCallError, match="intentional"):
            request(caller, "boom")
        # The node must keep serving after a handler failure.
        assert request(caller, "ping") == "pong"
        caller.close()

    def test_unknown_command(self):
        caller, server = PipeTransport.pair()
        run_node(server, {})
        with pytest.raises(RemoteCallError, match="unknown command"):
            request(caller, "nope")
        caller.close()

    def test_malformed_request_shape(self):
        caller, server = PipeTransport.pair()
        run_node(server, {"ping": lambda _: "pong"})
        caller.send("not a 2-tuple")
        status, detail = caller.recv()
        assert status == "error" and "malformed request" in detail
        assert request(caller, "ping") == "pong"
        caller.close()

    def test_non_string_command_is_malformed(self):
        caller, server = PipeTransport.pair()
        run_node(server, {"ping": lambda _: "pong"})
        caller.send((["unhashable"], None))
        assert caller.poll(10), "the node died instead of replying"
        status, detail = caller.recv()
        assert status == "error" and "malformed request" in detail
        assert request(caller, "ping") == "pong"
        caller.close()

    def test_unencodable_reply_becomes_an_error_reply(self):
        caller, server = PipeTransport.pair()
        run_node(server, {"odd": lambda _: {"a", "b"},
                          "ping": lambda _: "pong"})
        caller.send(("odd", None))
        assert caller.poll(10), "the node died instead of replying"
        status, detail = caller.recv()
        assert status == "error" and "unencodable reply" in detail
        # The loop survived and the channel is still in step.
        assert request(caller, "ping") == "pong"
        caller.close()

    def test_peer_hangup_ends_the_loop(self):
        caller, server = PipeTransport.pair()
        thread = run_node(server, {})
        caller.close()
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_buffered_request_is_served_despite_stop_flag(self):
        # A request the node has already accepted (buffered before the
        # shutdown flag flipped) must be answered, not dropped.
        stop = threading.Event()
        caller, server = PipeTransport.pair()
        caller.send(("ping", None))
        stop.set()
        thread = run_node(server, {"ping": lambda _: "pong"},
                          should_stop=stop.is_set, poll_interval=0.01)
        assert caller.recv() == ("ok", "pong")
        thread.join(timeout=5)
        assert not thread.is_alive()
        caller.close()

    def test_should_stop_ends_idle_loop(self):
        stop = threading.Event()
        caller, server = PipeTransport.pair()
        thread = run_node(server, {"ping": lambda _: "pong"},
                          should_stop=stop.is_set, poll_interval=0.01)
        assert request(caller, "ping") == "pong"
        stop.set()
        thread.join(timeout=5)
        assert not thread.is_alive()
        caller.close()


class TestBroadcast:
    def test_gathers_all_replies_before_raising(self):
        pairs = [PipeTransport.pair() for _ in range(3)]
        callers = [left for left, _ in pairs]

        def handler(payload):
            if payload == "bad":
                raise RuntimeError("shard exploded")
            return payload

        for _, server in pairs:
            run_node(server, {"echo": handler})
        with pytest.raises(RemoteCallError, match="shard exploded"):
            broadcast(callers, "echo", ["fine", "bad", "fine"],
                      who="shard worker")
        # Every reply was drained: the next broadcast stays in sync.
        assert broadcast(callers, "echo", list("abc")) == ["a", "b", "c"]
        for caller in callers:
            caller.close()

    def test_peer_death_during_gather_still_drains_the_rest(self):
        # One peer hanging up instead of replying must not leave the
        # other peers' replies buffered (that would desync later calls).
        pairs = [PipeTransport.pair() for _ in range(3)]
        callers = [left for left, _ in pairs]

        def handler_for(transport, dies):
            def handler(payload):
                if dies:
                    transport.close()  # vanish instead of replying
                return payload
            return handler

        for i, (_, server) in enumerate(pairs):
            run_node(server, {"echo": handler_for(server, i == 1)})
        with pytest.raises(RemoteCallError, match="transport failure"):
            broadcast(callers, "echo", ["a", "b", "c"])
        # The surviving peers answered and were drained: still in sync.
        assert broadcast([callers[0], callers[2]], "echo",
                         ["x", "y"]) == ["x", "y"]
        for caller in callers:
            caller.close()

    def test_who_names_the_failure(self):
        caller, server = PipeTransport.pair()
        run_node(server, {})
        with pytest.raises(RemoteCallError, match="shard worker failed"):
            broadcast([caller], "missing", [None], who="shard worker")
        caller.close()


class TestPipeUnpickling:
    def test_unpicklable_bytes_surface_as_frame_error(self):
        # Drive the raw connection underneath to inject a payload that
        # opens with pickle's PROTO byte: refused, never deserialized.
        left, right = PipeTransport.pair()
        left._connection.send_bytes(b"\x80garbage that is not a pickle")
        with pytest.raises(FrameError, match="version 0x80"):
            right.recv()
        left.close()
        right.close()


class TestWireFormats:
    """Both ends of a pipe speak the one binary codec: every payload that
    crosses it, in either direction, opens with the wire version byte."""

    @pytest.mark.parametrize("sender_fmt,receiver_fmt", [
        ("binary", "binary"),
    ])
    def test_mixed_format_pipe_round_trip(self, sender_fmt, receiver_fmt):
        left, right = PipeTransport.pair()
        payload = np.random.default_rng(7).normal(size=(5, 2))
        request_bytes = encode_payload(("echo", payload))
        assert request_bytes[0] == WIRE_VERSION
        left.send_encoded(request_bytes)
        command, received = right.recv()
        assert command == "echo"
        assert received.tobytes() == payload.tobytes()
        right.send(("reply", received * 2))
        _, back = left.recv()
        assert back.tobytes() == (payload * 2).tobytes()
        assert right.bytes_recv == len(request_bytes)
        assert left.bytes_recv == right.bytes_sent == len(
            encode_payload(("reply", payload * 2)))
        left.close()
        right.close()


class TestTransportStats:
    def test_pipe_counters_track_traffic(self):
        left, right = PipeTransport.pair()
        left.send("ping")
        right.recv()
        right.send("pong")
        left.recv()
        for transport in (left, right):
            stats = transport.stats()
            assert stats["frames_sent"] == 1
            assert stats["frames_recv"] == 1
            assert stats["bytes_sent"] > 0
            assert stats["bytes_recv"] > 0
            assert stats["shm_hits"] == 0
        left.close()
        right.close()

    def test_socket_counters_include_frame_headers(self):
        left, right = socket_transport_pair()
        left.send("ping")
        assert right.recv() == "ping"
        assert left.stats()["bytes_sent"] == \
            right.stats()["bytes_recv"]
        assert left.stats()["bytes_sent"] > FRAME_HEADER.size
        left.close()
        right.close()

    def test_merge_sums_counters(self):
        merged = merge_transport_stats([
            {"bytes_sent": 10, "frames_sent": 1,
             "bytes_recv": 5, "frames_recv": 1, "shm_hits": 2},
            {"bytes_sent": 20, "frames_sent": 2,
             "bytes_recv": 15, "frames_recv": 3, "shm_hits": 0},
        ])
        assert merged == {"bytes_sent": 30, "frames_sent": 3,
                          "bytes_recv": 20, "frames_recv": 4, "shm_hits": 2}


class TestBroadcastEncoded:
    def test_one_encode_reaches_every_peer(self):
        pairs = [PipeTransport.pair() for _ in range(3)]
        callers = [left for left, _ in pairs]
        for _, server in pairs:
            run_node(server, {"echo": lambda payload: payload})
        encoded = encode_payload(("echo", "shared"))
        assert broadcast_encoded(callers, encoded) == ["shared"] * 3
        # Each peer received the same byte count: the payload was
        # serialized once and written verbatim to every channel.
        assert {t.stats()["bytes_sent"] for t in callers} == {len(encoded)}
        for caller in callers:
            caller.close()

    def test_failure_still_drains_every_reply(self):
        pairs = [PipeTransport.pair() for _ in range(3)]
        callers = [left for left, _ in pairs]

        def handler_for(n):
            def handler(payload):
                if n == 1 and payload == "boom":
                    raise RuntimeError("shard exploded")
                return payload
            return handler

        for n, (_, server) in enumerate(pairs):
            run_node(server, {"echo": handler_for(n)})
        with pytest.raises(RemoteCallError, match="shard exploded"):
            broadcast_encoded(callers, encode_payload(("echo", "boom")),
                              who="shard worker")
        # Replies were drained: the channels stay usable and in sync.
        assert broadcast(callers, "echo", ["a", "b", "c"]) == ["a", "b", "c"]
        for caller in callers:
            caller.close()


class TestPipeSharedMemory:
    def test_large_reply_uses_segments_and_cleans_up(self):
        left, right = PipeTransport.pair(shm_threshold=1024)
        array = np.random.default_rng(11).normal(size=(64, 8))
        left.send(("big", array))
        command, received = right.recv()
        assert command == "big"
        assert received.tobytes() == array.tobytes()
        assert left.stats()["shm_hits"] == 1
        del received
        # The peer speaking again proves consumption: segments released.
        right.send(("ack", None))
        left.recv()
        assert left._pool is not None and not left._pool._segments
        left.close()
        right.close()

    def test_socket_refuses_a_segment_name(self):
        # A real segment a pipe peer could legitimately name: over a
        # socket the same frame must be rejected, not mapped.
        sender, receiver = PipeTransport.pair(shm_threshold=1)
        array = np.arange(64, dtype=np.float64)
        payload = encode_payload(("x", array), sender._shm_pool())
        name = sender._pool._segments[0].name
        assert os.path.exists(f"/dev/shm/{name}")
        left, right = socket_transport_pair()
        try:
            left.send_encoded(payload)
            with pytest.raises(FrameError, match="not accepted"):
                right.recv()
            # The pipe end, inside the process tree, still maps it.
            sender.send_encoded(payload)
            _, received = receiver.recv()
            assert received.tobytes() == array.tobytes()
            del received
        finally:
            for transport in (left, right, sender, receiver):
                transport.close()
        assert not os.path.exists(f"/dev/shm/{name}")
