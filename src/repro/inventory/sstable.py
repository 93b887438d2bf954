"""The on-disk inventory: a sorted-key table with a sparse index.

The paper's headline operational claim is that the inventory answers a
location query with 99.7 % fewer "hits" than scanning the raw archive.
For that comparison to be honest, the inventory needs a real on-disk
format whose point lookups touch a bounded number of bytes.  This is a
classic SSTable layout:

::

    [header][data block 0][data block 1]…[route section][index][footer]

- **data blocks** hold consecutive ``(key, value)`` entries in key order,
  each entry length-prefixed; blocks close at ~``block_size`` bytes;
- each **value** is a raw deflate stream of the summary's encoding
  (:meth:`CellSummary.encode
  <repro.inventory.summary.CellSummary.encode>`), primed with one frozen
  preset dictionary (``_VALUE_DICT``, the encoding of an empty summary),
  so the field names every summary repeats cost a few bytes each;
- the **route section** maps each (origin, destination, vessel type) of
  the table's ``CELL_OD_TYPE`` keys to the cells that hold it, so
  ``route_cells`` needs no full table scan; readers load it on first use;
- the **index** records each block's first key, file offset, length and
  checksum;
- the **footer** locates the route section and the index, and carries
  entry/block counts, the checksum algorithm id, the route-section and
  index checksums and its own checksum.

A point lookup binary-searches the in-memory index (one entry per block),
reads one block, scans at most one block's entries — ~15 entries for
the default 4 KiB blocks, versus millions of raw records — and inflates
the one value it returns.

The format (``POLINV5``, format version 5) is self-verifying: every data
block, the route section, the index and the footer carry a CRC over the
stored bytes (see :mod:`repro.inventory.checksum`), and a value that
does not inflate to exactly one complete stream is damage too, so damage
anywhere in a table surfaces as a typed :class:`CorruptionError` — at
block granularity for data — never a silently wrong summary or route.
A ``POLINV<n>`` table of another format version is intact but
unreadable here: :class:`StaleFormatError` says to rebuild it.  Any
other magic is not a table: :class:`SSTableError`.

**Writes are crash-safe**: the writer stages the table at
``<path>.tmp`` in the same directory, fsyncs, renames into place and
fsyncs the directory (see :mod:`repro.inventory.fsio`), so a crash at
any instant leaves either the previous table or the new one at the
final path — never a truncated hybrid.  One file is one table: the
rename is the only commit point.  Errors unlink the partials.

Keys are :class:`~repro.inventory.keys.GroupKey`, serialised so that the
raw-byte order agrees exactly with ``GroupKey.sort_key`` (the property
test in ``tests/test_inventory_backend.py`` pins this; the sparse index's
binary search silently corrupts lookups if they ever diverge); values are
the summaries' encodings, deflated.  Every read path inflates through
``_inflate`` (the only inverse of the writer's ``_deflate``), so
:meth:`SSTableReader.scan_raw` and the serving backend's ``get_encoded``
still hand out :meth:`CellSummary.encode` bytes.
"""

from __future__ import annotations

import re
import struct
import threading
import zlib
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from types import TracebackType
from typing import TYPE_CHECKING

from repro.inventory import checksum as _checksum
from repro.inventory import fsio
from repro.inventory.codec import CodecError, decode, encode
from repro.inventory.keys import GroupKey, GroupingSet
from repro.inventory.summary import CellSummary
from repro.obs import registry
from repro.obs import trace as obs

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.inventory.store import Inventory

#: Every physical block read (cache misses land here; hits never do).
SPAN_READ_BLOCK = registry.register_span(
    "sstable.read_block",
    "one physical data-block read + checksum verify "
    "(attrs: block index, bytes; cache hits never reach this)",
)

#: The table format revision (the build manifest records it).
FORMAT_VERSION = 5

_MAGIC = b"POLINV5\n"
_MAGIC_LEN = len(_MAGIC)
# The magic of every format version, this one included.
_ANY_MAGIC = re.compile(rb"POLINV(\d)\n")

#: Target size of a data block; a block closes once it reaches this.
DEFAULT_BLOCK_SIZE = 4 * 1024

# Value deflate settings.  Constants, not options: a table holds no
# record of them, and every reader must inflate what any writer wrote.
_DEFLATE_LEVEL = 1
_DEFLATE_WBITS = -11  # raw stream (no header or trailer), 2 KiB window
_DEFLATE_MEM_LEVEL = 4

#: The preset dictionary every stored value is deflated against: the
#: encoding of an empty ``CellSummary()``, whose field names and default
#: config every summary repeats.  Frozen: tables written so far inflate
#: only against these exact bytes (a test pins their SHA-256), so
#: changing them needs a new magic.
_VALUE_DICT = (
    b"d\x12s\x06configd\x05s\x03hlli\x14s\x02tdf@Y\x00\x00\x00\x00\x00"
    b"\x00s\x04topni@s\x03binf@>\x00\x00\x00\x00\x00\x00s\x0bextra_namesl"
    b"\x00s\x07recordsi\x00s\x05shipsd\x02s\x01pi\x14s\x06sparsel\x00s"
    b"\x06coursed\x03s\x03cosf\x00\x00\x00\x00\x00\x00\x00\x00s\x03sinf"
    b"\x00\x00\x00\x00\x00\x00\x00\x00s\x05counti\x00s\x0bcourse_binsd"
    b"\x02s\x05widthf@>\x00\x00\x00\x00\x00\x00s\x06countsl\x0ci\x00i\x00"
    b"i\x00i\x00i\x00i\x00i\x00i\x00i\x00i\x00i\x00i\x00s\x07headingd\x03"
    b"s\x03cosf\x00\x00\x00\x00\x00\x00\x00\x00s\x03sinf\x00\x00\x00\x00"
    b"\x00\x00\x00\x00s\x05counti\x00s\x0cheading_binsd\x02s\x05widthf@>"
    b"\x00\x00\x00\x00\x00\x00s\x06countsl\x0ci\x00i\x00i\x00i\x00i\x00i"
    b"\x00i\x00i\x00i\x00i\x00i\x00i\x00s\x05speedd\x05s\x05counti\x00s"
    b"\x04meanf\x00\x00\x00\x00\x00\x00\x00\x00s\x02m2f\x00\x00\x00\x00"
    b"\x00\x00\x00\x00s\x03minNs\x03maxNs\x07speed_qd\x05s\x0bcompression"
    b"f@Y\x00\x00\x00\x00\x00\x00s\x05meansl\x00s\x07weightsl\x00s\x03min"
    b"Ns\x03maxNs\x05tripsd\x02s\x01pi\x14s\x06sparsel\x00s\x03etod\x05s"
    b"\x05counti\x00s\x04meanf\x00\x00\x00\x00\x00\x00\x00\x00s\x02m2f"
    b"\x00\x00\x00\x00\x00\x00\x00\x00s\x03minNs\x03maxNs\x05eto_qd\x05s"
    b"\x0bcompressionf@Y\x00\x00\x00\x00\x00\x00s\x05meansl\x00s\x07weigh"
    b"tsl\x00s\x03minNs\x03maxNs\x03atad\x05s\x05counti\x00s\x04meanf\x00"
    b"\x00\x00\x00\x00\x00\x00\x00s\x02m2f\x00\x00\x00\x00\x00\x00\x00"
    b"\x00s\x03minNs\x03maxNs\x05ata_qd\x05s\x0bcompressionf@Y\x00\x00"
    b"\x00\x00\x00\x00s\x05meansl\x00s\x07weightsl\x00s\x03minNs\x03maxNs"
    b"\x07originsd\x03s\x08capacityi@s\x05totali\x00s\x05itemsl\x00s\x0cd"
    b"estinationsd\x03s\x08capacityi@s\x05totali\x00s\x05itemsl\x00s\x0bt"
    b"ransitionsd\x03s\x08capacityi@s\x05totali\x00s\x05itemsl\x00s\x06ex"
    b"trasd\x00"
)

# route-section offset, index offset, entry count, block count, checksum
# algo, route-section crc, index crc, footer crc, magic.  The route
# section spans from its offset to the index.  The footer crc covers
# every preceding field.
_FOOTER_FIELDS = ">QQQQBII"
_FOOTER_FMT = _FOOTER_FIELDS + "I8s"
_FOOTER_SIZE = struct.calcsize(_FOOTER_FMT)
_FOOTER_CRC_SCOPE = struct.calcsize(_FOOTER_FIELDS)

# Order-preserving string framing: NUL terminator, embedded NULs escaped
# as 0x00 0xFF.  0xFF never occurs in valid UTF-8, so a terminator is
# never confused with an escape, and because the terminator is the
# smallest byte, prefixes sort first — exactly like Python strings.
_TERMINATOR = b"\x00"
_ESCAPED_NUL = b"\x00\xff"

#: Exceptions that mean "these bytes do not parse as what they claim to
#: be" — the raw material :class:`CorruptionError` wraps.
_PARSE_ERRORS = (
    CodecError,
    ValueError,
    KeyError,
    TypeError,
    IndexError,
    struct.error,
    UnicodeDecodeError,
)


class SSTableError(ValueError):
    """A structural problem with an inventory table: not a table at all,
    truncated past recognition, or an I/O failure while reading one.
    Subclasses :class:`ValueError` so pre-v3 callers keep working."""


class StaleFormatError(SSTableError):
    """An intact table of another format version (its ``POLINV<n>``
    magic names it): this release cannot read it, and ``repro build``
    rebuilds it.  Not damage, so nothing salvages it."""

    def __init__(self, path: Path, version: int) -> None:
        super().__init__(
            f"{path} is a format v{version} table; this release reads "
            f"format v{FORMAT_VERSION} only: rebuild it with `repro build`"
        )
        self.version = version


class CorruptionError(SSTableError):
    """A table that *was* valid no longer decodes to what was written:
    a checksum mismatch or unparseable block/index/footer.  Carries the
    damaged path and, when the damage is block-granular, the block."""

    def __init__(
        self,
        message: str,
        path: str | Path | None = None,
        block_index: int | None = None,
    ) -> None:
        detail = message
        if block_index is not None:
            detail = f"block {block_index}: {detail}"
        if path is not None:
            detail = f"{path}: {detail}"
        super().__init__(detail)
        self.path = None if path is None else Path(path)
        self.block_index = block_index


def _deflate(raw: bytes) -> bytes:
    """One stored value: ``raw`` as a raw deflate stream primed with
    :data:`_VALUE_DICT`."""
    compressor = zlib.compressobj(
        _DEFLATE_LEVEL,
        zlib.DEFLATED,
        _DEFLATE_WBITS,
        _DEFLATE_MEM_LEVEL,
        zlib.Z_DEFAULT_STRATEGY,
        _VALUE_DICT,
    )
    return compressor.compress(raw) + compressor.flush()


def _inflate(
    stored: bytes, path: Path | None = None, block_index: int | None = None
) -> bytes:
    """The encoded summary one stored value holds.  Anything but exactly
    one complete stream (bad data, a truncated stream, bytes after its
    end) raises :class:`CorruptionError` naming ``path`` and
    ``block_index``."""
    inflater = zlib.decompressobj(_DEFLATE_WBITS, _VALUE_DICT)
    try:
        raw = inflater.decompress(stored)
    except zlib.error as exc:
        raise CorruptionError(
            f"undecodable value: {exc}", path=path, block_index=block_index
        ) from exc
    if not inflater.eof:
        raise CorruptionError(
            "truncated value stream", path=path, block_index=block_index
        )
    if inflater.unused_data:
        raise CorruptionError(
            f"{len(inflater.unused_data)} bytes after the value stream",
            path=path,
            block_index=block_index,
        )
    return raw


def _key_bytes(key: GroupKey) -> bytes:
    """Order-preserving key encoding: fixed-width cell, then the optional
    dimensions as NUL-terminated strings (empty for None), so that raw
    ``bytes`` comparison matches ``GroupKey.sort_key`` exactly."""
    parts = [struct.pack(">Q", key.cell)]
    for dim in (key.vessel_type, key.origin, key.destination):
        raw = (dim or "").encode("utf-8")
        parts.append(raw.replace(_TERMINATOR, _ESCAPED_NUL))
        parts.append(_TERMINATOR)
    return b"".join(parts)


def _key_from_bytes(raw: bytes) -> GroupKey:
    (cell,) = struct.unpack_from(">Q", raw, 0)
    offset = 8
    dims: list[str | None] = []
    for _ in range(3):
        out = bytearray()
        while True:
            byte = raw[offset]
            if byte == 0:
                if offset + 1 < len(raw) and raw[offset + 1] == 0xFF:
                    out.append(0)
                    offset += 2
                    continue
                offset += 1
                break
            out.append(byte)
            offset += 1
        text = out.decode("utf-8")
        dims.append(text or None)
    return GroupKey(cell=cell, vessel_type=dims[0], origin=dims[1], destination=dims[2])


def route_index_path(path: str | Path) -> Path:
    """The pre-v5 sidecar name, ``<table>.routes``.  No table has one
    since the route index moved inside the table; the name stays only so
    size accounting that still looks for the file keeps working."""
    path = Path(path)
    return path.with_name(path.name + ".routes")


class SSTableWriter:
    """Writes a sorted inventory table, durably and atomically.

    Entries must arrive in strictly increasing key order (the writer
    enforces it).  The table is staged at ``<path>.tmp``; :meth:`close`
    fsyncs it, renames it into place and fsyncs the directory — so the
    final path only ever holds a complete, verified table.  On error
    (including an exception inside a ``with`` body) the partial staging
    file is unlinked and the final path is untouched.

    Alongside the entries the writer accumulates the route index (which
    cells each CELL_OD_TYPE key touches) and writes it as the table's
    route section.
    """

    def __init__(
        self, path: str | Path, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> None:
        if block_size < 256:
            raise ValueError(f"block size too small: {block_size}")
        self._path = Path(path)
        self._temp = fsio.temp_path(self._path)
        self._algo = _checksum.DEFAULT_ALGO
        self._crc = _checksum.checksum_fn(self._algo)
        self._handle = fsio.open_file(self._temp, "wb")
        try:
            self._handle.write(_MAGIC)
        except BaseException:
            # The constructor failed after staging was opened: clean up
            # here, because __exit__ will never run for this object.
            self._handle.close()
            fsio.unlink(self._temp)
            raise
        self._block_size = block_size
        self._block = bytearray()
        self._block_first_key: bytes | None = None
        # first key, offset, length, crc
        self._index: list[tuple[bytes, int, int, int]] = []
        self._route_index: dict[tuple[str, str, str], set[int]] = {}
        self._last_key: bytes | None = None
        self._entries = 0
        self._closed = False

    @property
    def path(self) -> Path:
        """The final table path (only populated once :meth:`close` ran)."""
        return self._path

    def add(self, key: GroupKey, summary: CellSummary) -> None:
        """Append one entry (keys must be strictly increasing)."""
        self.add_stored(key, _deflate(summary.encode()))

    def add_stored(self, key: GroupKey, stored: bytes) -> None:
        """Append one entry whose value is already in stored (deflated)
        form, as :meth:`SSTableReader.scan_stored` yields it: the bytes
        are written as given (keys must be strictly increasing)."""
        key_raw = _key_bytes(key)
        if self._last_key is not None and key_raw <= self._last_key:
            raise ValueError("SSTable entries must be added in increasing key order")
        self._last_key = key_raw
        if key.grouping_set is GroupingSet.CELL_OD_TYPE:
            route = (key.origin, key.destination, key.vessel_type)
            self._route_index.setdefault(route, set()).add(key.cell)
        entry = struct.pack(">HI", len(key_raw), len(stored)) + key_raw + stored
        if self._block_first_key is None:
            self._block_first_key = key_raw
        self._block.extend(entry)
        self._entries += 1
        if len(self._block) >= self._block_size:
            self._flush_block()

    def close(self) -> None:
        """Flush, write the route section, index and footer, fsync, and
        publish the table (the rename is the commit point)."""
        if self._closed:
            return
        try:
            self._flush_block()
            route_offset = self._handle.tell()
            route_payload = encode(
                [
                    [origin, destination, vessel_type, sorted(cells)]
                    for (origin, destination, vessel_type), cells in sorted(
                        self._route_index.items()
                    )
                ]
            )
            self._handle.write(route_payload)
            index_offset = self._handle.tell()
            index_payload = encode([list(entry) for entry in self._index])
            self._handle.write(struct.pack(">I", len(index_payload)))
            self._handle.write(index_payload)
            fields = struct.pack(
                _FOOTER_FIELDS,
                route_offset,
                index_offset,
                self._entries,
                len(self._index),
                self._algo,
                self._crc(route_payload),
                self._crc(index_payload),
            )
            self._handle.write(fields + struct.pack(">I", self._crc(fields)) + _MAGIC)
            fsio.fsync_file(self._handle)
            self._handle.close()
            fsio.rename(self._temp, self._path)
            fsio.fsync_dir(self._path.parent)
        except BaseException:
            self.abort()
            raise
        self._closed = True

    def abort(self) -> None:
        """Discard the in-flight table: close the handle and unlink the
        staging file, leaving the final path exactly as it was."""
        if self._closed:
            return
        self._closed = True
        try:
            self._handle.close()
        except Exception:
            pass
        fsio.unlink(self._temp)

    def __enter__(self) -> "SSTableWriter":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        if exc_type is None:
            self.close()
        else:
            # The body raised: leave no partial table behind.
            self.abort()

    def _flush_block(self) -> None:
        if not self._block:
            return
        offset = self._handle.tell()
        block = bytes(self._block)
        self._handle.write(block)
        self._index.append(
            (bytes(self._block_first_key), offset, len(block), self._crc(block))
        )
        self._block = bytearray()
        self._block_first_key = None


class SSTableReader:
    """Point lookups and ordered scans over a written table.

    Every block read is verified against its checksum, and damage
    raises :class:`CorruptionError` naming the block.

    Besides :meth:`get`/:meth:`scan`, the reader exposes the block layer
    (:meth:`find_block`, :meth:`read_block`, :meth:`parse_entries`) so a
    serving backend can interpose a block cache without re-implementing
    the file format.  Blocks returned by :meth:`read_block` are already
    verified, so cached blocks never need re-checking.
    """

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        self._handle = fsio.open_file(path, "rb")
        try:
            self._open()
        except SSTableError:
            self._handle.close()
            raise
        except _PARSE_ERRORS as exc:
            self._handle.close()
            raise CorruptionError(
                f"unreadable table metadata: {exc}", path=self._path
            ) from exc
        except OSError as exc:
            self._handle.close()
            raise SSTableError(
                f"I/O error opening inventory table {self._path}: {exc}"
            ) from exc
        # One reader may serve many threads (the query server's worker
        # pool): seek+read on the shared handle must be atomic.
        self._read_lock = threading.Lock()
        #: Bytes touched by the last get(), for the query-vs-scan benchmark.
        self.last_read_bytes = 0
        #: Bytes physically read from disk over the reader's lifetime.
        self.total_read_bytes = 0

    def _open(self) -> None:
        self._handle.seek(0, 2)
        size = self._handle.tell()
        self._handle.seek(0)
        magic = self._handle.read(_MAGIC_LEN)
        if magic != _MAGIC:
            other = _ANY_MAGIC.fullmatch(magic)
            if other is not None:
                raise StaleFormatError(self._path, int(other[1]))
            raise SSTableError(f"bad magic in inventory table: {self._path}")
        if size < _MAGIC_LEN + _FOOTER_SIZE:
            raise CorruptionError("truncated footer", path=self._path)
        self._handle.seek(size - _FOOTER_SIZE)
        footer = self._handle.read(_FOOTER_SIZE)
        (
            route_offset,
            index_offset,
            self.entry_count,
            self.block_count,
            self.checksum_algo,
            self._route_crc,
            index_crc,
            footer_crc,
            magic,
        ) = struct.unpack(_FOOTER_FMT, footer)
        self._route_span = (route_offset, index_offset - route_offset)
        if magic != _MAGIC:
            raise SSTableError(
                f"bad footer magic in inventory table: {self._path}"
            )
        try:
            self._crc = _checksum.checksum_fn(self.checksum_algo)
        except ValueError as exc:
            raise CorruptionError(str(exc), path=self._path) from exc
        if self._crc(footer[:_FOOTER_CRC_SCOPE]) != footer_crc:
            raise CorruptionError("footer checksum mismatch", path=self._path)
        self._handle.seek(index_offset)
        (index_length,) = struct.unpack(">I", self._handle.read(4))
        index_payload = self._handle.read(index_length)
        if (
            len(index_payload) != index_length
            or self._crc(index_payload) != index_crc
        ):
            raise CorruptionError("index checksum mismatch", path=self._path)
        self._load_index(decode(index_payload))

    def _load_index(self, raw_index: object) -> None:
        if not isinstance(raw_index, list) or any(
            not isinstance(entry, list)
            or len(entry) != 4
            or not isinstance(entry[0], bytes)
            or not all(
                isinstance(value, int) and value >= 0 for value in entry[1:]
            )
            for entry in raw_index
        ):
            raise CorruptionError("malformed block index", path=self._path)
        self._block_keys = [entry[0] for entry in raw_index]
        self._block_spans = [(entry[1], entry[2]) for entry in raw_index]
        self._block_crcs = [entry[3] for entry in raw_index]

    @property
    def path(self) -> Path:
        """The table file this reader serves from."""
        return self._path

    def find_block(self, key_raw: bytes) -> int | None:
        """Index of the single block that could hold a raw key, or
        ``None`` when the key precedes the first block."""
        block_index = bisect_right(self._block_keys, key_raw) - 1
        return None if block_index < 0 else block_index

    def read_block(self, block_index: int) -> bytes:
        """Read one data block from disk and verify its checksum (no
        caching here — serving backends layer their cache on top, and
        only ever cache verified blocks)."""
        offset, length = self._block_spans[block_index]
        with obs.span(SPAN_READ_BLOCK, block=block_index, bytes=length):
            try:
                with self._read_lock:
                    self._handle.seek(offset)
                    block = self._handle.read(length)
                    self.total_read_bytes += length
            except OSError as exc:
                raise SSTableError(
                    f"I/O error reading block {block_index} of "
                    f"{self._path}: {exc}"
                ) from exc
            if len(block) != length:
                raise CorruptionError(
                    f"short read ({len(block)} of {length} bytes)",
                    path=self._path,
                    block_index=block_index,
                )
            if self._crc(block) != self._block_crcs[block_index]:
                raise CorruptionError(
                    "block checksum mismatch",
                    path=self._path,
                    block_index=block_index,
                )
            return block

    @staticmethod
    def parse_entries(block: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Yield each (raw key, stored value) entry of one block; a
        stored value is deflated (``_inflate`` reads it).

        Malformed framing raises :class:`CorruptionError` (a verified
        block never has it; the check keeps a format bug typed).
        """
        position = 0
        length = len(block)
        while position < length:
            try:
                key_len, value_len = struct.unpack_from(">HI", block, position)
            except struct.error as exc:
                raise CorruptionError(f"truncated entry header: {exc}") from exc
            position += 6
            if position + key_len + value_len > length:
                raise CorruptionError(
                    f"entry overruns its block by "
                    f"{position + key_len + value_len - length} bytes"
                )
            key_raw = block[position : position + key_len]
            position += key_len
            value_raw = block[position : position + value_len]
            position += value_len
            yield key_raw, value_raw

    def read_routes(self) -> dict[tuple[str, str, str], set[int]]:
        """The route section: (origin, destination, vessel type) → the
        cells of the table's ``CELL_OD_TYPE`` keys on that route.  Read
        and verified on every call (serving backends keep the result);
        damage raises :class:`CorruptionError`."""
        offset, length = self._route_span
        try:
            with self._read_lock:
                self._handle.seek(offset)
                payload = self._handle.read(length)
                self.total_read_bytes += length
        except OSError as exc:
            raise SSTableError(
                f"I/O error reading the route section of {self._path}: {exc}"
            ) from exc
        if len(payload) != length or self._crc(payload) != self._route_crc:
            raise CorruptionError(
                "route section checksum mismatch", path=self._path
            )
        try:
            return {
                (origin, destination, vessel_type): set(cells)
                for origin, destination, vessel_type, cells in decode(payload)
            }
        except _PARSE_ERRORS as exc:
            raise CorruptionError(
                f"undecodable route section: {exc}", path=self._path
            ) from exc

    def get(self, key: GroupKey) -> CellSummary | None:
        """Point lookup: reads (and verifies) one block."""
        key_raw = _key_bytes(key)
        block_index = self.find_block(key_raw)
        if block_index is None:
            return None
        block = self.read_block(block_index)
        self.last_read_bytes = len(block)
        for entry_key, stored in self.parse_entries(block):
            if entry_key == key_raw:
                raw = _inflate(stored, self._path, block_index)
                return _decode_summary(raw, self._path, block_index)
            if entry_key > key_raw:
                return None
        return None

    def scan_stored(self) -> Iterator[tuple[bytes, bytes, int]]:
        """Yield every (raw key, stored value, block index) in key order,
        values as stored (deflated), for copying into another table with
        :meth:`SSTableWriter.add_stored` (blocks are checksum-verified on
        read)."""
        for block_index in range(len(self._block_spans)):
            block = self.read_block(block_index)
            for key_raw, stored in self.parse_entries(block):
                yield key_raw, stored, block_index

    def scan_raw(self) -> Iterator[tuple[bytes, bytes, int]]:
        """Yield every (raw key, encoded summary, block index) in key
        order: values inflated, not decoded."""
        for key_raw, stored, block_index in self.scan_stored():
            yield key_raw, _inflate(stored, self._path, block_index), block_index

    def scan(self) -> Iterator[tuple[GroupKey, CellSummary]]:
        """Yield every (key, summary) in key order."""
        for key_raw, raw, block_index in self.scan_raw():
            yield (
                _decode_key(key_raw, self._path, block_index),
                _decode_summary(raw, self._path, block_index),
            )

    def close(self) -> None:
        """Close the underlying file."""
        self._handle.close()

    def __enter__(self) -> "SSTableReader":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()


def _decode_key(key_raw: bytes, path: Path, block_index: int) -> GroupKey:
    try:
        return _key_from_bytes(key_raw)
    except _PARSE_ERRORS as exc:
        raise CorruptionError(
            f"undecodable key: {exc}", path=path, block_index=block_index
        ) from exc


def _decode_summary(raw: bytes, path: Path, block_index: int) -> CellSummary:
    """The summary an inflated value encodes (see :func:`_inflate`)."""
    try:
        return CellSummary.decode(raw)
    except _PARSE_ERRORS as exc:
        raise CorruptionError(
            f"undecodable summary: {exc}", path=path, block_index=block_index
        ) from exc


# -- verification and salvage ----------------------------------------------------


@dataclass
class TableCheck:
    """The result of :func:`verify_table` (what ``repro fsck`` prints)."""

    path: Path
    ok: bool
    version: int | None = None
    checksum: str | None = None
    entry_count: int = 0
    entries_readable: int = 0
    block_count: int = 0
    bad_blocks: list[int] = field(default_factory=list)
    route_section: str = "corrupt"  # "ok" | "corrupt"
    errors: list[str] = field(default_factory=list)

    @property
    def needs_rebuild(self) -> bool:
        """An intact table of another format version (not damage)."""
        return self.version is not None and self.version != FORMAT_VERSION

    @property
    def status(self) -> str:
        """``ok``, ``needs rebuild (format vN)`` or ``CORRUPT``."""
        if self.ok:
            return "ok"
        if self.needs_rebuild:
            return f"needs rebuild (format v{self.version})"
        return "CORRUPT"

    def lines(self) -> list[str]:
        """A human-readable report."""
        out = [f"{self.path}: {self.status}"]
        if self.version == FORMAT_VERSION:
            out.append(f"  format v{self.version} ({self.checksum})")
            out.append(
                f"  entries {self.entries_readable:,}/{self.entry_count:,} "
                f"readable, blocks "
                f"{self.block_count - len(self.bad_blocks)}/{self.block_count} good"
            )
            out.append(f"  route section: {self.route_section}")
        for error in self.errors:
            out.append(f"  error: {error}")
        return out


def verify_table(path: str | Path) -> TableCheck:
    """Verify a table end to end: footer, index, every block checksum,
    every entry decode, global key order, entry-count agreement, the
    route section.  Never raises for damage — it is the thing that
    *reports* damage."""
    path = Path(path)
    check = TableCheck(path=path, ok=False)
    try:
        reader = SSTableReader(path)
    except (SSTableError, OSError) as exc:
        if isinstance(exc, StaleFormatError):
            check.version = exc.version
        check.errors.append(str(exc))
        return check
    try:
        check.version = FORMAT_VERSION
        check.checksum = _checksum.algo_name(reader.checksum_algo)
        check.entry_count = reader.entry_count
        check.block_count = reader.block_count
        last_key: bytes | None = None
        for block_index in range(len(reader._block_spans)):
            try:
                block = reader.read_block(block_index)
                for key_raw, stored in reader.parse_entries(block):
                    _decode_key(key_raw, path, block_index)
                    _decode_summary(_inflate(stored, path, block_index), path, block_index)
                    if last_key is not None and key_raw <= last_key:
                        raise CorruptionError(
                            "keys out of order", path=path, block_index=block_index
                        )
                    last_key = key_raw
                    check.entries_readable += 1
            except SSTableError as exc:
                check.bad_blocks.append(block_index)
                check.errors.append(str(exc))
        if check.entries_readable != check.entry_count and not check.bad_blocks:
            check.errors.append(
                f"footer claims {check.entry_count} entries, "
                f"found {check.entries_readable}"
            )
        try:
            reader.read_routes()
            check.route_section = "ok"
        except SSTableError as exc:
            check.errors.append(str(exc))
        check.ok = (
            not check.bad_blocks
            and not check.errors
            and check.entries_readable == check.entry_count
        )
    finally:
        reader.close()
    return check


@dataclass
class SalvageReport:
    """What :func:`salvage_table` recovered."""

    output: Path
    entries_recovered: int
    entries_lost: int
    blocks_skipped: list[int]


def salvage_table(path: str | Path, output: str | Path) -> SalvageReport:
    """Copy every readable entry of a damaged table into a fresh table
    at ``output``, skipping blocks that fail their checksum or do
    not parse.  The fresh table's route section is the writer's own,
    built from the recovered keys, so a damaged route section costs
    nothing.

    Requires the footer and index to be intact (they locate the blocks);
    raises :class:`SSTableError`/:class:`CorruptionError` otherwise.
    """
    path = Path(path)
    output = Path(output)
    if output.resolve() == path.resolve():
        raise ValueError("salvage output must not be the damaged table itself")
    recovered = 0
    skipped: list[int] = []
    with SSTableReader(path) as reader:
        lost_total = reader.entry_count
        with SSTableWriter(output) as writer:
            for block_index in range(len(reader._block_spans)):
                entries: list[tuple[GroupKey, bytes]] = []
                try:
                    block = reader.read_block(block_index)
                    for key_raw, stored in reader.parse_entries(block):
                        _decode_summary(_inflate(stored, path, block_index), path, block_index)
                        entries.append((_decode_key(key_raw, path, block_index), stored))
                # repro: allow[REP005] salvage exists to skip unreadable blocks; each skip is recorded in the report
                except SSTableError:
                    skipped.append(block_index)
                    continue
                for key, stored in entries:
                    writer.add_stored(key, stored)
                    recovered += 1
    return SalvageReport(
        output=output,
        entries_recovered=recovered,
        entries_lost=max(0, lost_total - recovered),
        blocks_skipped=skipped,
    )


def file_checksum(path: str | Path, algo: int | None = None) -> int:
    """Whole-file checksum (streamed), used by the build manifest to
    verify a window table byte-for-byte before resuming past it."""
    crc_fn = _checksum.checksum_fn(
        _checksum.DEFAULT_ALGO if algo is None else algo
    )
    value = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                return value
            value = crc_fn(chunk, value)


def write_inventory(inventory: "Inventory", path: str | Path) -> int:
    """Persist a whole inventory; returns the number of entries written."""
    entries = sorted(inventory.items(), key=lambda kv: _key_bytes(kv[0]))
    with SSTableWriter(path) as writer:
        for key, summary in entries:
            writer.add(key, summary)
    return len(entries)


def open_inventory(path: str | Path) -> SSTableReader:
    """Open a persisted inventory for point lookups."""
    return SSTableReader(path)
