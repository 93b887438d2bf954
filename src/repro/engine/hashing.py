"""Process-stable hashing for partitioners and sketches.

Python's built-in ``hash`` is salted per interpreter (PYTHONHASHSEED), so
partition assignments would differ between runs.  ``stable_hash`` derives
a 64-bit value from a canonical byte encoding instead, making every
shuffle deterministic.
"""

from __future__ import annotations

from hashlib import blake2b


def stable_hash(value: object) -> int:
    """A 64-bit hash that is identical across processes and runs.

    Supports the key types the pipeline shuffles on: ints, strings,
    bytes, floats, bools, None, and (nested) tuples thereof.
    """
    return int.from_bytes(_digest(value), "big")


# Scalar digests are memoised: shuffle keys are tuples whose elements
# (cell ids, vessel segments, port names) repeat across hundreds of
# thousands of keys, so the per-element BLAKE2b collapses to a dict hit.
# Keys pair the element with its class so ``True``/``1`` and ``1``/``1.0``
# (equal, hash-equal, differently encoded) never share an entry.  The
# cache is capped, after which misses are simply recomputed — values are
# identical either way.
_SCALAR_TYPES = (bool, int, str, bytes, float)
_CACHE_LIMIT = 1 << 17
_scalar_digests: dict[tuple, bytes] = {}


def _digest(value: object) -> bytes:
    if isinstance(value, tuple):
        hasher = blake2b(digest_size=8)
        hasher.update(b"t")
        for item in value:
            hasher.update(_digest(item))
        return hasher.digest()
    if value is not None and not isinstance(value, _SCALAR_TYPES):
        raise TypeError(
            f"unhashable key type for stable_hash: {type(value).__name__}"
        )
    cache_key = (value.__class__, value)
    cached = _scalar_digests.get(cache_key)
    if cached is not None:
        return cached
    if isinstance(value, bool):
        payload = b"o" + bytes([value])
    elif isinstance(value, int):
        if -(1 << 127) <= value < (1 << 127):
            payload = b"i" + value.to_bytes(16, "big", signed=True)
        else:
            # Arbitrary-precision fallback; the distinct tag keeps the
            # encoding injective against the fixed-width branch while
            # leaving every previously-hashable int's value unchanged.
            length = (value.bit_length() // 8) + 1
            payload = b"I" + value.to_bytes(length, "big", signed=True)
    elif isinstance(value, str):
        payload = b"s" + value.encode("utf-8")
    elif isinstance(value, bytes):
        payload = b"b" + value
    elif isinstance(value, float):
        payload = b"f" + repr(value).encode("ascii")
    else:
        payload = b"n"
    digest = blake2b(payload, digest_size=8).digest()
    if len(_scalar_digests) < _CACHE_LIMIT:
        _scalar_digests[cache_key] = digest
    return digest
