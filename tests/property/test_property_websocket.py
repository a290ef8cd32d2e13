"""The RFC 6455 frame decoder on hostile and on valid bytes.

``decode_frame`` is the one decoder in ``repro.net``: the server's ``/ws``
sessions and the blocking client both read through it.  On any bytes it
returns a frame, ``None`` (incomplete) or raises
:class:`ProtocolViolationError` -- never another exception -- and it refuses
an oversized length from the header alone, before any payload has arrived.
Derandomised, with a fixed example budget.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolViolationError
from repro.net.websocket import _mask, decode_frame, encode_frame

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

OPCODES = st.integers(min_value=0, max_value=15)
#: Around every length-encoding boundary, plus the 16- and 64-bit ends.
SIZES = st.one_of(st.integers(min_value=0, max_value=300),
                  st.sampled_from([65_535, 65_536]))


def pattern(size, seed=0):
    return bytes((seed + index) % 251 for index in range(size))


def header(opcode, length, masked):
    """A frame header as RFC 6455 section 5.2 lays it out, mask key left out."""
    mask_bit = 0x80 if masked else 0x00
    if length < 126:
        return bytes([0x80 | opcode, mask_bit | length])
    if length < 1 << 16:
        return bytes([0x80 | opcode, mask_bit | 126]) + length.to_bytes(2, "big")
    return bytes([0x80 | opcode, mask_bit | 127]) + length.to_bytes(8, "big")


@st.composite
def mangled_frames(draw):
    """A valid frame with bytes after it, cut short or with one byte flipped."""
    frame = encode_frame(draw(OPCODES), draw(st.binary(max_size=300)),
                         mask=draw(st.booleans())) + draw(st.binary(max_size=16))
    offset = draw(st.integers(min_value=0, max_value=len(frame) - 1))
    if draw(st.booleans()):
        return frame[:offset]
    flipped = bytearray(frame)
    flipped[offset] ^= draw(st.integers(min_value=1, max_value=255))
    return bytes(flipped)


@SETTINGS
@given(data=st.one_of(st.binary(max_size=300), mangled_frames()),
       require_mask=st.booleans(),
       max_bytes=st.integers(min_value=0, max_value=1 << 20))
def test_arbitrary_bytes_decode_to_a_frame_none_or_a_protocol_violation(
        data, require_mask, max_bytes):
    try:
        frame = decode_frame(data, max_bytes=max_bytes, require_mask=require_mask)
    except ProtocolViolationError:
        return
    if frame is not None:
        opcode, payload, length = frame
        assert 0 <= opcode <= 15
        assert len(payload) <= max_bytes
        assert len(payload) < length <= len(data)
        # The bytes after the frame are the next frame's: never consumed.
        assert decode_frame(data[:length], max_bytes=max_bytes,
                            require_mask=require_mask) == frame


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("size", [0, 125, 126, 65_535, 65_536])
def test_every_opcode_round_trips(size, masked):
    payload = pattern(size, seed=size)
    for opcode in range(16):
        frame = encode_frame(opcode, payload, mask=masked)
        assert decode_frame(frame, max_bytes=size, require_mask=masked) == (
            opcode, payload, len(frame))
        # Bytes after the frame are left where they are.
        assert decode_frame(frame + b"\x81", max_bytes=size,
                            require_mask=masked) == (opcode, payload, len(frame))


def byte_loop_mask(payload, key):
    """RFC 6455 section 5.3 masking one octet at a time: the reference."""
    return bytes(octet ^ key[index % 4] for index, octet in enumerate(payload))


@pytest.mark.parametrize("key", [b"\x00\x7f\x80\xff", b"\xa5\x00\x00\x01"])
@pytest.mark.parametrize("size", [*range(10), 125, 126, 65_535, 65_536, 636_000])
def test_masking_matches_the_byte_loop(size, key):
    payload = pattern(size, seed=size % 251)
    masked = _mask(payload, key)
    assert masked == byte_loop_mask(payload, key)
    assert _mask(masked, key) == payload


@settings(SETTINGS, max_examples=40)
@given(opcode=OPCODES, masked=st.booleans(), size=SIZES,
       seed=st.integers(min_value=0, max_value=250))
def test_every_proper_prefix_of_a_frame_is_incomplete(opcode, masked, size, seed):
    frame = memoryview(encode_frame(opcode, pattern(size, seed), mask=masked))
    for end in range(len(frame)):
        assert decode_frame(frame[:end], max_bytes=size,
                            require_mask=masked) is None, end


@SETTINGS
@given(opcode=OPCODES, masked=st.booleans(),
       max_bytes=st.integers(min_value=0, max_value=1 << 20), data=st.data())
def test_an_oversized_length_is_refused_from_the_header_alone(
        opcode, masked, max_bytes, data):
    length = data.draw(st.one_of(
        st.integers(min_value=max_bytes + 1, max_value=max_bytes + 70_000),
        st.integers(min_value=max_bytes + 1, max_value=(1 << 64) - 1)))
    with pytest.raises(ProtocolViolationError, match="exceeds"):
        decode_frame(header(opcode, length, masked), max_bytes=max_bytes,
                     require_mask=False)
