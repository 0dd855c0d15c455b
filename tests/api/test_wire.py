"""Tests for the typed binary wire codec: round-trips over the full tag
vocabulary, rejection of values with no tag, malformed-payload rejection
(never a truncated ``np.frombuffer``), and the shared-memory pool
lifecycle."""

import os

import numpy as np
import pytest

from repro.api import wire
from repro.api.transport import (
    FrameError,
    decode_payload,
    encode_payload,
)
from repro.api.wire import ShmPool, WireError


def round_trip(message, pool=None):
    return wire.decode(wire.encode(message, pool))


class TestScalarRoundTrips:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, 1, -1, 2**62, -(2**62), 3.5, -0.0,
        float("inf"), "", "text", "snowman ☃", b"", b"raw bytes",
    ])
    def test_plain_values(self, value):
        result = round_trip(value)
        assert result == value
        assert type(result) is type(value)

    def test_nan(self):
        result = round_trip(float("nan"))
        assert isinstance(result, float) and result != result

    @pytest.mark.parametrize("value", [2**80, -(2**80), 2**63, -(2**63) - 1])
    def test_bigints_beyond_i64(self, value):
        assert round_trip(value) == value

    @pytest.mark.parametrize("scalar", [
        np.float64(1.25), np.float32(-2.5), np.int64(-7), np.int32(9),
        np.uint8(255), np.bool_(True),
    ])
    def test_numpy_scalars_keep_their_type(self, scalar):
        result = round_trip(scalar)
        assert type(result) is type(scalar)
        assert result == scalar


class TestArrayRoundTrips:
    @pytest.mark.parametrize("dtype", [
        np.float32, np.float64, np.int64, np.int32, np.uint8, np.bool_,
    ])
    def test_dtype_matrix(self, dtype):
        array = np.arange(12).reshape(3, 4).astype(dtype)
        result = round_trip({"a": array})["a"]
        assert result.dtype == array.dtype
        assert result.shape == array.shape
        np.testing.assert_array_equal(result, array)

    def test_zero_d_array(self):
        array = np.array(3.25)
        result = round_trip(array)
        assert result.shape == ()
        assert result.dtype == array.dtype
        assert float(result) == 3.25

    def test_empty_array(self):
        array = np.empty((0, 5), dtype=np.float64)
        result = round_trip(array)
        assert result.shape == (0, 5)
        assert result.dtype == np.float64

    def test_non_contiguous_slice(self):
        base = np.arange(24, dtype=np.float64).reshape(4, 6)
        view = base[::2, ::3]
        assert not view.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(round_trip(view), view)

    def test_fortran_order(self):
        array = np.asfortranarray(np.arange(12, dtype=np.int64).reshape(3, 4))
        assert array.flags["F_CONTIGUOUS"]
        result = round_trip(array)
        np.testing.assert_array_equal(result, array)

    def test_non_native_endian(self):
        array = np.arange(5, dtype=">f8")
        result = round_trip(array)
        assert result.dtype == np.dtype(">f8")
        np.testing.assert_array_equal(result, array)

    def test_nested_dicts_of_arrays(self):
        message = {
            "distances": np.random.default_rng(0).normal(size=(3, 7)),
            "meta": {"ids": np.arange(7, dtype=np.int64),
                     "nested": [{"x": np.ones(2, dtype=np.float32)}]},
        }
        result = round_trip(message)
        np.testing.assert_array_equal(result["distances"],
                                      message["distances"])
        np.testing.assert_array_equal(result["meta"]["ids"],
                                      message["meta"]["ids"])
        np.testing.assert_array_equal(result["meta"]["nested"][0]["x"],
                                      message["meta"]["nested"][0]["x"])

    def test_containers_keep_their_types(self):
        message = ("cmd", [1, 2], {"k": (3, 4)})
        result = round_trip(message)
        assert result == message
        assert type(result) is tuple
        assert type(result[1]) is list
        assert type(result[2]["k"]) is tuple


class TestUnencodable:
    """Values with no tag are refused at encode time, never smuggled."""

    def test_sets_are_rejected(self):
        with pytest.raises(WireError, match="set"):
            wire.encode({"tags": {"a", "b"}})

    def test_object_dtype_array_is_rejected(self):
        with pytest.raises(WireError, match="dtype object"):
            wire.encode(np.array([{"odd": 1}, None], dtype=object))

    def test_structured_dtype_is_rejected(self):
        with pytest.raises(WireError, match="dtype"):
            wire.encode(np.zeros(3, dtype=[("x", "f8"), ("y", "i4")]))

    def test_arbitrary_objects_are_rejected(self):
        with pytest.raises(WireError, match="object"):
            wire.encode(("ok", object()))


class TestMalformedPayloads:
    def test_wrong_version_byte(self):
        with pytest.raises(WireError, match="version"):
            wire.decode(b"\x7f" + wire.encode(1)[1:])

    def test_unknown_tag(self):
        with pytest.raises(WireError, match="unknown wire tag"):
            wire.decode(bytes([wire.WIRE_VERSION]) + b"Z")

    def test_truncated_scalar(self):
        payload = wire.encode(1.5)
        with pytest.raises(WireError, match="truncated"):
            wire.decode(payload[:-3])

    def test_truncated_array_body_never_reaches_frombuffer(self):
        payload = wire.encode(np.arange(100, dtype=np.float64))
        with pytest.raises(WireError, match="truncated"):
            wire.decode(payload[:-8])

    def test_array_length_mismatch(self):
        # Corrupt the declared nbytes of an array payload: header says
        # one thing, shape*itemsize another.
        array = np.arange(4, dtype=np.float64)
        payload = bytearray(wire.encode(array))
        # layout: version, 'a', u8 len, dtype str, u8 ndim, u64 shape, u64 nbytes
        offset = 1 + 1 + 1 + len(array.dtype.str) + 1 + 8
        payload[offset:offset + 8] = (999).to_bytes(8, "big")
        with pytest.raises(WireError, match="does not match shape"):
            wire.decode(bytes(payload))

    def test_bad_dtype_string(self):
        array = np.arange(2, dtype=np.float64)
        payload = bytearray(wire.encode(array))
        payload[3:3 + len(array.dtype.str)] = b"?" * len(array.dtype.str)
        with pytest.raises(WireError, match="dtype"):
            wire.decode(bytes(payload))

    def test_trailing_bytes_are_rejected(self):
        with pytest.raises(WireError, match="trailing"):
            wire.decode(wire.encode(42) + b"junk")

    def test_implausible_rank(self):
        payload = bytearray(wire.encode(np.arange(2.0)))
        dtype_len = len(np.dtype(np.float64).str)
        payload[1 + 1 + 1 + dtype_len] = 200  # ndim byte
        with pytest.raises(WireError, match="rank"):
            wire.decode(bytes(payload))

    def test_nesting_up_to_the_cap_decodes(self):
        message = None
        for _ in range(wire.MAX_DEPTH):
            message = [message]
        assert wire.decode(wire.encode(message)) == message


class TestVersionSniffing:
    """decode_payload accepts only payloads that open with WIRE_VERSION."""

    def test_binary_payload_decodes(self):
        message = {"x": np.arange(3)}
        result = decode_payload(encode_payload(message))
        np.testing.assert_array_equal(result["x"], message["x"])

    def test_pickle_payload_is_a_frame_error(self):
        # 0x80 is pickle's PROTO opcode: a legacy peer's frame is refused
        # by its first byte, never handed to a deserializer.
        with pytest.raises(FrameError, match="version 0x80"):
            decode_payload(b"\x80\x05\x95\x00\x00\x00\x00\x00\x00\x00\x00N.")

    def test_empty_payload_is_a_frame_error(self):
        with pytest.raises(FrameError, match="empty"):
            decode_payload(b"")

    def test_malformed_binary_payload_is_a_frame_error(self):
        payload = encode_payload(np.arange(50))
        with pytest.raises(FrameError, match="does not decode"):
            decode_payload(payload[:-5])


@pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                    reason="no POSIX shared memory filesystem")
class TestShmPool:
    def test_large_array_rides_shared_memory(self):
        pool = ShmPool(threshold=1024)
        try:
            array = np.random.default_rng(2).normal(size=(64, 8))
            assert pool.wants(array)
            payload = wire.encode({"big": array, "small": np.arange(3)},
                                  pool)
            assert pool.hits == 1
            assert pool.bytes_shared == array.nbytes
            # The big buffer is out-of-band: the payload holds a name,
            # not the 4 KiB of data.
            assert len(payload) < array.nbytes
            result = wire.decode(payload, allow_shm=True)
            np.testing.assert_array_equal(result["big"], array)
            np.testing.assert_array_equal(result["small"], np.arange(3))
            del result
        finally:
            pool.release()

    def test_below_threshold_stays_inline(self):
        pool = ShmPool(threshold=1 << 20)
        try:
            array = np.arange(16, dtype=np.float64)
            payload = wire.encode(array, pool)
            assert pool.hits == 0
            np.testing.assert_array_equal(wire.decode(payload), array)
        finally:
            pool.release()

    def test_release_unlinks_segments(self):
        pool = ShmPool(threshold=1)
        array = np.arange(32, dtype=np.float64)
        payload = wire.encode(array, pool)
        names = [seg.name for seg in pool._segments]
        assert names and all(
            os.path.exists(f"/dev/shm/{name}") for name in names)
        result = wire.decode(payload, allow_shm=True)
        np.testing.assert_array_equal(result, array)
        del result
        pool.release()
        assert all(not os.path.exists(f"/dev/shm/{name}") for name in names)

    def test_decoded_view_survives_unlink(self):
        # POSIX semantics: the receiver's mapping outlives the unlink.
        pool = ShmPool(threshold=1)
        array = np.random.default_rng(3).normal(size=(128,))
        payload = wire.encode(array, pool)
        result = wire.decode(payload, allow_shm=True)
        pool.release()  # segment unlinked while the view is alive
        np.testing.assert_array_equal(result, array)

    def test_missing_segment_is_a_wire_error(self):
        pool = ShmPool(threshold=1)
        payload = wire.encode(np.arange(16, dtype=np.float64), pool)
        pool.release()  # unlink before the receiver attaches
        with pytest.raises(WireError, match="unavailable"):
            wire.decode(payload, allow_shm=True)

    def test_segment_reference_needs_allow_shm(self):
        pool = ShmPool(threshold=1)
        try:
            payload = wire.encode(np.arange(16, dtype=np.float64), pool)
            with pytest.raises(WireError, match="not accepted"):
                wire.decode(payload)
        finally:
            pool.release()

    def test_segment_names_carry_the_prefix(self):
        pool = ShmPool(threshold=1)
        try:
            name = pool.store(np.arange(4, dtype=np.float64))
            assert name.startswith(wire.SHM_NAME_PREFIX)
        finally:
            pool.release()
