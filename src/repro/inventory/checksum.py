"""Block checksums for the on-disk inventory format.

Format v5 (``POLINV5``) checksums every data block (over its stored,
deflated bytes), the route section, the sparse index and the footer so
a bit flip anywhere in a table surfaces as a typed
:class:`~repro.inventory.sstable.CorruptionError` instead of a silently
wrong :class:`~repro.inventory.summary.CellSummary` — the failure class
``tests/test_failure_injection.py`` declares worse than a crash.

Two algorithms are registered, and every table records which one it was
written with (a single algorithm byte in the footer), so readers never
guess:

- **CRC32C** (Castagnoli, the polynomial storage systems standardise on
  for its better burst-error detection and hardware support).  The pure
  Python implementation below is the reference; when a native
  ``crc32c`` module is importable it transparently replaces it.
- **CRC32** (IEEE, via :func:`zlib.crc32`) — C speed everywhere the
  standard library exists.

The *writer default* is the fastest verified implementation available:
CRC32C when a native implementation is importable, CRC32 otherwise
(the pure-Python CRC32C runs ~500× slower than zlib and would dominate
scans and compactions).  Either way the choice is recorded per file and
both sides of the wire agree byte-for-byte.
"""

from __future__ import annotations

import zlib
from collections.abc import Callable

#: Algorithm ids recorded in the table footer (one byte).
CRC32C = 1
CRC32 = 2

_CASTAGNOLI_POLY = 0x82F63B78


def _build_crc32c_table() -> tuple[int, ...]:
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ _CASTAGNOLI_POLY if crc & 1 else crc >> 1
        table.append(crc)
    return tuple(table)


_CRC32C_TABLE = _build_crc32c_table()


def crc32c(data: bytes, value: int = 0) -> int:
    """CRC32C (Castagnoli) of ``data``, continuing from ``value``.

    Pure-Python reference implementation (table-driven); pinned against
    the RFC 3720 test vectors in the test suite.
    """
    crc = (value & 0xFFFFFFFF) ^ 0xFFFFFFFF
    table = _CRC32C_TABLE
    for byte in data:
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def crc32(data: bytes, value: int = 0) -> int:
    """CRC32 (IEEE) of ``data``, continuing from ``value``."""
    return zlib.crc32(data, value) & 0xFFFFFFFF


_FUNCTIONS: dict[int, Callable[..., int]] = {CRC32C: crc32c, CRC32: crc32}
_NAMES = {CRC32C: "crc32c", CRC32: "crc32"}

#: What new tables are written with: the fastest verified implementation.
DEFAULT_ALGO = CRC32

try:  # pragma: no cover - depends on the environment
    from crc32c import crc32c as _native_crc32c  # type: ignore[import-not-found]

    _FUNCTIONS[CRC32C] = lambda data, value=0: _native_crc32c(data, value)
    DEFAULT_ALGO = CRC32C
except ImportError:
    pass


def checksum_fn(algo: int) -> Callable[..., int]:
    """The checksum callable for a recorded algorithm id.

    Raises :class:`ValueError` for ids no registered algorithm carries —
    readers treat that as footer corruption.
    """
    try:
        return _FUNCTIONS[algo]
    except KeyError:
        raise ValueError(f"unknown checksum algorithm id {algo}") from None


def algo_name(algo: int) -> str:
    """Human-readable name for reports (``repro fsck``)."""
    return _NAMES.get(algo, f"unknown({algo})")
