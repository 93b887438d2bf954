"""A compact self-describing binary codec for summary payloads.

A small CBOR-flavoured encoding for the JSON-ish values the sketches
serialise to (None, bools, ints, floats, strings, bytes, lists, dicts).
Versus JSON it is ~40 % smaller (no quoting, binary floats and varint
integers), decodes without string parsing, and round-trips int keys and
bytes natively — the properties an on-disk inventory format needs.

Wire format: one type tag byte, then a payload.

=====  ============================================================
tag    payload
=====  ============================================================
``N``  none — empty
``T``  true — empty
``F``  false — empty
``i``  zig-zag varint integer
``f``  8-byte IEEE-754 big-endian float
``s``  varint byte-length, then UTF-8 bytes
``b``  varint length, then raw bytes
``l``  varint element count, then each element encoded
``d``  varint pair count, then alternating encoded keys and values
=====  ============================================================

The hot paths follow the shape of a stored summary (~90 leaves: short
dict keys, small-int histogram counts, t-digest float lists, scalars):
dispatch on the exact type, precomputed bytes for small ints and short
strings, a one-byte varint fast path, and a float list packed or
unpacked by one ``struct`` call.  They leave the format unchanged: any
other type (``bool``, an ``IntEnum``, a ``float`` or ``str`` subclass)
takes the plain ``isinstance`` walk, and ``tests/codec_reference.py``
keeps that walk whole as the oracle ``tests/test_inventory_codec.py``
holds both directions to, byte for byte.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Any


class CodecError(ValueError):
    """Raised for unencodable values or malformed payloads."""


def encode(value: object) -> bytes:
    """Encode a value tree to bytes."""
    out = bytearray()
    _encode_into(value, out)
    return bytes(out)


def decode(payload: bytes) -> object:
    """Decode bytes produced by :func:`encode`.

    Raises :class:`CodecError` on any malformed payload: trailing
    garbage, truncation, an unhashable dict key, invalid UTF-8 or
    nesting deeper than the interpreter's recursion limit.
    """
    try:
        value, offset = _decode_from(payload, 0)
    except (IndexError, struct.error) as exc:
        # Every read past the end of a truncated payload lands here.
        raise CodecError(f"truncated payload: {exc}") from exc
    except (TypeError, UnicodeDecodeError, RecursionError) as exc:
        raise CodecError(f"malformed payload: {exc}") from exc
    if offset != len(payload):
        raise CodecError(
            f"trailing bytes after value: {len(payload) - offset} left"
        )
    return value


# -- varints and precomputed leaves ---------------------------------------------


def _uvarint(value: int) -> bytes:
    out = bytearray()
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _read_uvarint(payload: bytes, offset: int) -> tuple[int, int]:
    byte = payload[offset]
    if byte < 0x80:
        return byte, offset + 1
    result = byte & 0x7F
    shift = 7
    offset += 1
    while True:
        byte = payload[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, offset
        shift += 7
        if shift > 127:
            raise CodecError("varint too long")


def _zz(value: int) -> int:
    # Standard zig-zag for arbitrary-precision ints: non-negatives map to
    # even numbers, negatives to odd.
    return value * 2 if value >= 0 else -value * 2 - 1


def _unzz(value: int) -> int:
    return value // 2 if value % 2 == 0 else -(value + 1) // 2


def _int_bytes(value: int) -> bytes:
    return b"i" + _uvarint(_zz(value))


#: ``i``-tagged encodings of the ints whose varint is one or two bytes
#: (histogram counts, capacities, HLL register indices).
_INT_BYTES = {value: _int_bytes(value) for value in range(-1024, 1024)}
#: Decoded value of each one-byte zig-zag varint.
_SMALL_UNZZ = tuple(_unzz(raw) for raw in range(0x80))
_DICT_HEADS = tuple(b"d" + bytes((count,)) for count in range(0x80))
_LIST_HEADS = tuple(b"l" + bytes((count,)) for count in range(0x80))

#: ``s``-tagged encodings of short strings already seen (dict keys, port
#: codes).  Bounded: once full, new strings are encoded but not kept.
_STR_BYTES: dict[str, bytes] = {}
_STR_BYTES_MAX = 4096

_pack_d = struct.Struct(">d").pack
_unpack_d = struct.Struct(">d").unpack_from


def _str_bytes(text: str) -> bytes:
    raw = text.encode("utf-8")
    encoded = b"s" + _uvarint(len(raw)) + raw
    if len(raw) <= 64 and len(_STR_BYTES) < _STR_BYTES_MAX:
        _STR_BYTES[text] = encoded
    return encoded


@lru_cache(maxsize=256)
def _float_list(count: int) -> struct.Struct:
    """Unpacks ``count`` consecutive ``f``-tagged floats in one call."""
    return struct.Struct(">" + "xd" * count)


# -- encode ---------------------------------------------------------------------


def _encode_into(value: Any, out: bytearray) -> None:
    kind = type(value)
    if kind is dict:
        _encode_dict(value, out)
    elif kind is float:
        out += b"f" + _pack_d(value)
    elif kind is int:
        out += _INT_BYTES.get(value) or _int_bytes(value)
    elif kind is list or kind is tuple:
        _encode_list(value, out)
    elif kind is str:
        out += _STR_BYTES.get(value) or _str_bytes(value)
    else:
        _encode_other(value, out)


def _encode_dict(mapping: dict, out: bytearray) -> None:
    count = len(mapping)
    out += _DICT_HEADS[count] if count < 0x80 else b"d" + _uvarint(count)
    for key, value in mapping.items():
        if type(key) is str:
            out += _STR_BYTES.get(key) or _str_bytes(key)
        else:
            _encode_into(key, out)
        kind = type(value)
        if kind is float:
            out += b"f" + _pack_d(value)
        elif kind is dict:
            _encode_dict(value, out)
        elif kind is int:
            out += _INT_BYTES.get(value) or _int_bytes(value)
        elif kind is list:
            _encode_list(value, out)
        else:
            _encode_into(value, out)


def _encode_list(items: list | tuple, out: bytearray) -> None:
    count = len(items)
    out += _LIST_HEADS[count] if count < 0x80 else b"l" + _uvarint(count)
    if not count:
        return
    kind = type(items[0])
    if kind is float and (count == 1 or set(map(type, items)) == {float}):
        out += b"f" + b"f".join(map(_pack_d, items))
        return
    if kind is int and set(map(type, items)) == {int}:
        try:
            out += b"".join(map(_INT_BYTES.__getitem__, items))
            return
        except KeyError:
            pass  # a large int: encode one by one
    for item in items:
        _encode_into(item, out)


def _encode_other(value: object, out: bytearray) -> None:
    """The plain ``isinstance`` walk, for every type the exact-type
    dispatch above does not name (order matters: ``bool`` is an int)."""
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif isinstance(value, int):
        out += _int_bytes(value)
    elif isinstance(value, float):
        out += b"f" + _pack_d(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += b"s" + _uvarint(len(raw)) + raw
    elif isinstance(value, bytes):
        out += b"b" + _uvarint(len(value)) + value
    elif isinstance(value, (list, tuple)):
        out += b"l" + _uvarint(len(value))
        for item in value:
            _encode_into(item, out)
    elif isinstance(value, dict):
        out += b"d" + _uvarint(len(value))
        for key, item in value.items():
            _encode_into(key, out)
            _encode_into(item, out)
    else:
        raise CodecError(f"cannot encode value of type {type(value).__name__}")


# -- decode ---------------------------------------------------------------------
#
# Reads past the end raise IndexError or struct.error, which ``decode``
# turns into CodecError; only a slice, which never raises, needs its
# bounds checked here.


def _decode_from(payload: bytes, offset: int) -> tuple[object, int]:
    tag = payload[offset]
    if tag == 0x64:  # d
        return _decode_dict(payload, offset + 1)
    if tag == 0x6C:  # l
        return _decode_list(payload, offset + 1)
    if tag == 0x66:  # f
        return _unpack_d(payload, offset + 1)[0], offset + 9
    if tag == 0x69:  # i
        raw, offset = _read_uvarint(payload, offset + 1)
        return (_SMALL_UNZZ[raw] if raw < 0x80 else _unzz(raw)), offset
    if tag == 0x73:  # s
        length, offset = _read_uvarint(payload, offset + 1)
        end = offset + length
        if end > len(payload):
            raise CodecError("truncated string")
        return payload[offset:end].decode("utf-8"), end
    if tag == 0x4E:  # N
        return None, offset + 1
    if tag == 0x54:  # T
        return True, offset + 1
    if tag == 0x46:  # F
        return False, offset + 1
    if tag == 0x62:  # b
        length, offset = _read_uvarint(payload, offset + 1)
        end = offset + length
        if end > len(payload):
            raise CodecError("truncated bytes")
        return payload[offset:end], end
    raise CodecError(f"unknown type tag {tag!r}")


def _decode_dict(payload: bytes, offset: int) -> tuple[dict, int]:
    count = payload[offset]
    if count < 0x80:
        offset += 1
    else:
        count, offset = _read_uvarint(payload, offset)
    size = len(payload)
    result: dict = {}
    for _ in range(count):
        # A value follows every key, so offset + 1 exists in any payload
        # that is not truncated.
        length = payload[offset + 1]
        if payload[offset] == 0x73 and length < 0x80:
            start = offset + 2
            offset = start + length
            if offset > size:
                raise CodecError("truncated string")
            key: object = payload[start:offset].decode("utf-8")
        else:
            key, offset = _decode_from(payload, offset)
        tag = payload[offset]
        if tag == 0x66:
            result[key] = _unpack_d(payload, offset + 1)[0]
            offset += 9
        elif tag == 0x69 and payload[offset + 1] < 0x80:
            result[key] = _SMALL_UNZZ[payload[offset + 1]]
            offset += 2
        elif tag == 0x64:
            result[key], offset = _decode_dict(payload, offset + 1)
        elif tag == 0x6C:
            result[key], offset = _decode_list(payload, offset + 1)
        else:
            result[key], offset = _decode_from(payload, offset)
    return result, offset


def _decode_list(payload: bytes, offset: int) -> tuple[list, int]:
    count = payload[offset]
    if count < 0x80:
        offset += 1
    else:
        count, offset = _read_uvarint(payload, offset)
    if not count:
        return [], offset
    tag = payload[offset]
    if tag == 0x66:
        end = offset + 9 * count
        if end <= len(payload) and payload[offset:end:9] == b"f" * count:
            return list(_float_list(count).unpack_from(payload, offset)), end
    elif tag == 0x69:
        end = offset + 2 * count
        if end <= len(payload) and payload[offset:end:2] == b"i" * count:
            raws = payload[offset + 1 : end : 2]
            if max(raws) < 0x80:
                return [_SMALL_UNZZ[raw] for raw in raws], end
    items = []
    for _ in range(count):
        item, offset = _decode_from(payload, offset)
        items.append(item)
    return items, offset
