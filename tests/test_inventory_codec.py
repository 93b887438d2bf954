"""Tests for the binary codec, including hypothesis round-trips."""

import math
from enum import IntEnum

import numpy
import pytest
from hypothesis import given, strategies as st

from repro.inventory.codec import CodecError, decode, encode
from tests.codec_reference import reference_decode, reference_encode


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)

VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(st.text(max_size=8), children, max_size=6),
        st.dictionaries(st.integers(-1000, 1000), children, max_size=6),
    ),
    max_leaves=30,
)


@given(value=VALUES)
def test_roundtrip(value):
    assert decode(encode(value)) == value


def test_scalar_examples():
    for value in [None, True, False, 0, -1, 2**70, -(2**70), 0.5, "ü", b"\x00"]:
        assert decode(encode(value)) == value


def test_float_precision_is_exact():
    for value in [math.pi, 1e-308, -1e308, 0.1]:
        assert decode(encode(value)) == value


def test_nested_structures():
    value = {"a": [1, {"b": b"xyz"}], 5: None, "": [[], {}]}
    assert decode(encode(value)) == value


def test_int_keys_preserved():
    value = {1: "one", "1": "one-string"}
    assert decode(encode(value)) == value


def test_tuple_decodes_as_list():
    assert decode(encode((1, 2))) == [1, 2]


def test_compactness_vs_json():
    import json

    value = {"registers": [0] * 100, "mean": 1.2345678, "names": ["x"] * 20}
    assert len(encode(value)) < len(json.dumps(value).encode())


def test_unencodable_type_raises():
    with pytest.raises(CodecError):
        encode({1, 2, 3})


def test_trailing_garbage_raises():
    payload = encode(42) + b"\x00"
    with pytest.raises(CodecError):
        decode(payload)


def test_truncation_raises():
    payload = encode("hello world")
    for cut in range(1, len(payload)):
        with pytest.raises(CodecError):
            decode(payload[:cut])


def test_unknown_tag_raises():
    with pytest.raises(CodecError):
        decode(b"Z")


def test_empty_payload_raises():
    with pytest.raises(CodecError):
        decode(b"")


MALFORMED = [
    pytest.param(b"l\x01d\x01l\x00i\x00", id="unhashable-key"),
    pytest.param(b"s\x02\xff\xfe", id="invalid-utf8"),
    pytest.param(b"l\x01" * 5000 + b"N", id="deep-nesting"),
]


@pytest.mark.parametrize("payload", MALFORMED)
def test_malformed_payload_raises_codec_error(payload):
    with pytest.raises(CodecError):
        decode(payload)
    with pytest.raises(CodecError):
        reference_decode(payload)


@given(payload=st.binary(max_size=64))
def test_arbitrary_bytes_decode_or_raise_codec_error(payload):
    try:
        decode(payload)
    except CodecError:
        pass


# -- the fast paths against the plain recursive walk ---------------------------


class _Kind(IntEnum):
    ONE = 1
    BIG = 2**40


class _Float(float):
    pass


class _Str(str):
    pass


FLOATS = st.floats(allow_nan=True)
SMALL_INTS = st.integers(min_value=-1100, max_value=1100)
WIDE_INTS = st.integers(min_value=-(2**70), max_value=2**70)
ODD_LEAVES = st.one_of(
    st.sampled_from([_Kind.ONE, _Kind.BIG]),
    FLOATS.map(_Float),
    FLOATS.map(numpy.float64),
    st.text(max_size=8).map(_Str),
)
LEAVES = st.one_of(SCALARS, FLOATS, SMALL_INTS, ODD_LEAVES)
# Lists shaped like the fast paths' inputs, plus near misses: a bool, a
# wide int or a subclass inside an otherwise uniform list.
SHAPED_LISTS = st.one_of(
    st.lists(FLOATS, max_size=40),
    st.lists(SMALL_INTS, max_size=40),
    st.lists(st.one_of(SMALL_INTS, WIDE_INTS), max_size=20),
    st.lists(st.one_of(SMALL_INTS, st.booleans()), max_size=20),
    st.lists(st.one_of(FLOATS, st.booleans(), SMALL_INTS, ODD_LEAVES), max_size=20),
)
SHAPED = st.recursive(
    st.one_of(LEAVES, SHAPED_LISTS),
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=8), st.text(max_size=8).map(_Str)),
                        children, max_size=6),
        st.dictionaries(st.one_of(SMALL_INTS, WIDE_INTS, st.booleans()), children,
                        max_size=6),
    ),
    max_leaves=40,
)


def _outcome(fn, payload):
    """What ``fn`` makes of ``payload``: its value (``repr`` keeps types,
    NaNs and signed zeros apart) or the class of what it raised."""
    try:
        return "value", repr(fn(payload))
    except Exception as exc:  # noqa: BLE001 - the class is the result
        return "raised", type(exc)


@given(value=SHAPED)
def test_encode_matches_reference(value):
    assert encode(value) == reference_encode(value)


@given(value=SHAPED)
def test_decode_matches_reference(value):
    payload = reference_encode(value)
    assert repr(decode(payload)) == repr(reference_decode(payload))


@given(value=SHAPED, data=st.data())
def test_damaged_payload_decodes_as_reference(value, data):
    payload = bytearray(reference_encode(value))
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(payload) - 1))
        payload[at] = data.draw(st.sampled_from(b"NTFifsbldZ\x00\x01\x7f\x80\xff"))
    payload = bytes(payload[: data.draw(st.integers(0, len(payload)))])
    assert _outcome(decode, payload) == _outcome(reference_decode, payload)


@given(payload=st.binary(max_size=48))
def test_arbitrary_bytes_decode_as_reference(payload):
    assert _outcome(decode, payload) == _outcome(reference_decode, payload)


def test_unencodable_leaf_inside_fast_containers_raises():
    for value in ([1.0, {1}], [1, {1}], {"k": {1}}, ({1},)):
        with pytest.raises(CodecError):
            encode(value)


@pytest.fixture(scope="module")
def stored_payload(small_inventory, tmp_path_factory):
    """The stored value bytes of the small world's biggest group, read
    back from a written table."""
    from repro.inventory.sstable import SSTableReader, write_inventory

    path = tmp_path_factory.mktemp("codec") / "inventory.sst"
    write_inventory(small_inventory, path)
    with SSTableReader(path) as reader:
        return max((value for _, value, _ in reader.scan_raw()), key=len)


def test_stored_payload_round_trips_as_reference(stored_payload):
    value = reference_decode(stored_payload)
    assert repr(decode(stored_payload)) == repr(value)
    assert encode(value) == stored_payload


def test_every_prefix_of_a_stored_payload_raises_codec_error(stored_payload):
    for cut in range(len(stored_payload)):
        with pytest.raises(CodecError):
            decode(stored_payload[:cut])


def test_flipped_float_tag_in_a_digest_decodes_as_reference(stored_payload):
    means = b"s\x05means"
    flipped = 0
    at = stored_payload.find(means)
    while at >= 0:
        start = at + len(means)
        assert stored_payload[start] == ord("l")
        count = stored_payload[start + 1]
        for index in range(count):
            tag_at = start + 2 + 9 * index
            assert stored_payload[tag_at] == ord("f")
            for tag in b"NTFisbldZ":
                payload = bytearray(stored_payload)
                payload[tag_at] = tag
                payload = bytes(payload)
                result = _outcome(decode, payload)
                assert result == _outcome(reference_decode, payload)
                assert result[0] == "value" or issubclass(result[1], ValueError)
                flipped += 1
        at = stored_payload.find(means, start)
    assert flipped > 9 * 3  # at least one multi-centroid digest was swept
