"""The plain recursive summary codec: the oracle for the fast one.

This is the tag-length-value walk ``repro.inventory.codec`` used to be,
kept verbatim as the readable statement of the wire format.
``tests/test_inventory_codec.py`` checks the optimised ``encode`` and
``decode`` against it byte for byte and value for value.
"""

from __future__ import annotations

import struct

from repro.inventory.codec import CodecError


def reference_encode(value: object) -> bytes:
    out = bytearray()
    _encode_into(value, out)
    return bytes(out)


def reference_decode(payload: bytes) -> object:
    try:
        value, offset = _decode_from(payload, 0)
    except (TypeError, UnicodeDecodeError, RecursionError) as exc:
        # An unhashable dict key, invalid UTF-8, runaway nesting.
        raise CodecError(f"malformed payload: {exc}") from exc
    if offset != len(payload):
        raise CodecError(
            f"trailing bytes after value: {len(payload) - offset} left"
        )
    return value


def _write_uvarint(value: int, out: bytearray) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_uvarint(payload: bytes, offset: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(payload):
            raise CodecError("truncated varint")
        byte = payload[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 127:
            raise CodecError("varint too long")


def _encode_into(value: object, out: bytearray) -> None:
    if value is None:
        out.append(ord("N"))
    elif value is True:
        out.append(ord("T"))
    elif value is False:
        out.append(ord("F"))
    elif isinstance(value, int):
        out.append(ord("i"))
        _write_uvarint(_zz(value), out)
    elif isinstance(value, float):
        out.append(ord("f"))
        out.extend(struct.pack(">d", value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(ord("s"))
        _write_uvarint(len(raw), out)
        out.extend(raw)
    elif isinstance(value, bytes):
        out.append(ord("b"))
        _write_uvarint(len(value), out)
        out.extend(value)
    elif isinstance(value, (list, tuple)):
        out.append(ord("l"))
        _write_uvarint(len(value), out)
        for item in value:
            _encode_into(item, out)
    elif isinstance(value, dict):
        out.append(ord("d"))
        _write_uvarint(len(value), out)
        for key, item in value.items():
            _encode_into(key, out)
            _encode_into(item, out)
    else:
        raise CodecError(f"cannot encode value of type {type(value).__name__}")


def _zz(value: int) -> int:
    return value * 2 if value >= 0 else -value * 2 - 1


def _unzz(value: int) -> int:
    return value // 2 if value % 2 == 0 else -(value + 1) // 2


def _decode_from(payload: bytes, offset: int) -> tuple[object, int]:
    if offset >= len(payload):
        raise CodecError("truncated value")
    tag = payload[offset]
    offset += 1
    if tag == ord("N"):
        return None, offset
    if tag == ord("T"):
        return True, offset
    if tag == ord("F"):
        return False, offset
    if tag == ord("i"):
        raw, offset = _read_uvarint(payload, offset)
        return _unzz(raw), offset
    if tag == ord("f"):
        if offset + 8 > len(payload):
            raise CodecError("truncated float")
        return struct.unpack(">d", payload[offset : offset + 8])[0], offset + 8
    if tag == ord("s"):
        length, offset = _read_uvarint(payload, offset)
        if offset + length > len(payload):
            raise CodecError("truncated string")
        return payload[offset : offset + length].decode("utf-8"), offset + length
    if tag == ord("b"):
        length, offset = _read_uvarint(payload, offset)
        if offset + length > len(payload):
            raise CodecError("truncated bytes")
        return payload[offset : offset + length], offset + length
    if tag == ord("l"):
        count, offset = _read_uvarint(payload, offset)
        items = []
        for _ in range(count):
            item, offset = _decode_from(payload, offset)
            items.append(item)
        return items, offset
    if tag == ord("d"):
        count, offset = _read_uvarint(payload, offset)
        result = {}
        for _ in range(count):
            key, offset = _decode_from(payload, offset)
            value, offset = _decode_from(payload, offset)
            result[key] = value
        return result, offset
    raise CodecError(f"unknown type tag {tag!r}")
