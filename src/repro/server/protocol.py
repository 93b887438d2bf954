"""The query server's wire protocol: length-prefixed JSON frames.

The inventory is an *online* artifact — §1's stakeholders "retrieve the
historical statistical summary … by querying for a specific location"
against a service, not a library.  This module fixes the bytes both ends
of that service speak:

::

    [4-byte big-endian unsigned length][UTF-8 JSON payload]

Requests are JSON objects ``{"id": …, "type": …, **params}``; responses
are ``{"id": …, "ok": true, "result": …}`` or ``{"id": …, "ok": false,
"error": {"code": …, "message": …}}``.  The length prefix makes framing
trivial and — crucially for a server — lets the reader reject an
oversized frame from its first four bytes, before buffering a byte of
payload.

Cell summaries do not travel as raw JSON: they travel as their stored
bytes (:meth:`CellSummary.encode
<repro.inventory.summary.CellSummary.encode>`), base64-wrapped into the
JSON envelope.  Those are the bytes the SSTables persist, so a point
answer's bytes *are* the stored value bytes: ``summary_at`` /
``multi_get`` forward a table's value (block checksum already verified)
with no codec work.  A summary read back by a client is bit-identical to
what an in-process backend returns — the server adds no serialisation
of its own to trust.
"""

from __future__ import annotations

import asyncio
import base64
import json
import struct
from collections.abc import Callable

from repro.inventory.summary import CellSummary

#: Hard ceiling on one frame's payload, server and client side.
MAX_FRAME_BYTES = 1 << 20

_LENGTH = struct.Struct(">I")

#: Request types the server understands (mirrors the CLI's query surface).
REQUEST_TYPES = (
    "ping",
    "stats",
    "summary_at",
    "top_destinations_at",
    "route_cells",
    "eta",
    "destination",
    "trace",
    "multi_get",
    "multi_query",
    "ingest",
)

#: The multi-request types: one frame carrying many sub-requests, answered
#: in order.  They amortise framing and round-trip cost; they do not nest.
MULTI_TYPES = ("multi_get", "multi_query")

#: Ceiling on sub-requests per multi frame (CPU fan-out guard; the byte
#: budget below bounds the *response*, this bounds the *work*).
MAX_MULTI_ITEMS = 1024

# Error codes carried in failure responses.
ERR_BAD_FRAME = "bad_frame"
ERR_FRAME_TOO_LARGE = "frame_too_large"
ERR_TRUNCATED = "truncated_frame"
ERR_BAD_REQUEST = "bad_request"
ERR_UNKNOWN_TYPE = "unknown_type"
ERR_DEADLINE = "deadline_exceeded"
ERR_INTERNAL = "internal"
#: The stored table under the backend failed its checksums mid-query.
#: Clients get this typed error (and a live connection), never a wrong
#: answer and never a silently dropped socket.
ERR_CORRUPTION = "data_corruption"
#: The live backend's maintenance worker fell behind and the ingest
#: backpressure valve timed out: the batch was NOT applied (nothing was
#: logged to the WAL), so the client may simply retry after a pause.
#: A typed error on a live connection — never a hang, never a dropped
#: socket, never a silently shed write.
ERR_INGEST_BACKPRESSURE = "ingest_backpressure"


class ProtocolError(Exception):
    """A violation of the wire protocol, tagged with its error code.

    ``details``, when present, is a small JSON-safe dict carried in the
    error envelope so clients can react structurally (e.g. the offending
    sub-request index of a rejected multi frame) instead of parsing
    messages.
    """

    def __init__(
        self, code: str, message: str, details: dict | None = None
    ) -> None:
        super().__init__(message)
        self.code = code
        self.details = details


class FrameTooLargeError(ProtocolError):
    """A frame whose declared length exceeds the negotiated maximum."""

    def __init__(self, declared: int, limit: int) -> None:
        super().__init__(
            ERR_FRAME_TOO_LARGE,
            f"frame of {declared:,} bytes exceeds the {limit:,}-byte limit",
        )


class TruncatedFrameError(ProtocolError):
    """The peer closed the connection mid-frame."""

    def __init__(self, wanted: int, got: int) -> None:
        super().__init__(
            ERR_TRUNCATED, f"expected {wanted} more bytes, got {got}"
        )


class FanOutTooLargeError(ProtocolError):
    """A multi-request whose fan-out blows a size budget.

    Raised by the *service* while a multi frame is being answered, so the
    server converts it into a typed ``frame_too_large`` error response on
    a live connection — the client learns **which** sub-request to split
    the batch at (``details["index"]``, also named in the message)
    instead of losing the socket.
    """

    def __init__(self, index: int, message: str) -> None:
        super().__init__(ERR_FRAME_TOO_LARGE, message, details={"index": index})
        self.index = index


class BadRequestError(ProtocolError):
    """A structurally valid frame carrying an invalid request."""

    def __init__(self, message: str) -> None:
        super().__init__(ERR_BAD_REQUEST, message)


class IngestBackpressureError(ProtocolError):
    """The live backend refused a batch because maintenance fell behind.

    Raised by the service's write path when the backend's backpressure
    valve times out, so the server converts it into a typed
    ``ingest_backpressure`` error response on a live connection.  The
    batch was never applied (the valve sits before the WAL append), so
    retrying after a pause is always safe; the backlog shape rides in
    ``details`` so operators can tell a transient stall from a wedged
    worker.
    """

    def __init__(
        self,
        message: str,
        *,
        frozen_memtables: int = 0,
        debt_bytes: int = 0,
        waited_s: float = 0.0,
    ) -> None:
        super().__init__(
            ERR_INGEST_BACKPRESSURE,
            message,
            details={
                "frozen_memtables": frozen_memtables,
                "debt_bytes": debt_bytes,
                "waited_s": waited_s,
            },
        )


class UnknownRequestError(ProtocolError):
    """A request type the server does not implement."""

    def __init__(self, request_type: object) -> None:
        super().__init__(
            ERR_UNKNOWN_TYPE,
            f"unknown request type {request_type!r}; "
            f"expected one of {', '.join(REQUEST_TYPES)}",
        )


# -- framing ---------------------------------------------------------------------


def encode_frame(message: dict, max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Serialise one message to a length-prefixed frame."""
    payload = json.dumps(
        message, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
    if len(payload) > max_bytes:
        raise FrameTooLargeError(len(payload), max_bytes)
    return _LENGTH.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> dict:
    """Parse one frame's payload; every message must be a JSON object."""
    try:
        message = json.loads(payload)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(ERR_BAD_FRAME, f"frame is not valid JSON: {exc}")
    if not isinstance(message, dict):
        raise ProtocolError(
            ERR_BAD_FRAME, f"frame must be a JSON object, got {type(message).__name__}"
        )
    return message


def read_frame_blocking(
    read: Callable[[int], bytes], max_bytes: int = MAX_FRAME_BYTES
) -> dict | None:
    """Read one frame from a blocking byte source (``sock.makefile('rb').read``).

    Returns ``None`` on a clean EOF at a frame boundary; raises
    :class:`TruncatedFrameError` on EOF mid-frame and
    :class:`FrameTooLargeError` on an oversized declared length.
    """
    header = _read_exact(read, _LENGTH.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > max_bytes:
        raise FrameTooLargeError(length, max_bytes)
    payload = _read_exact(read, length, allow_eof=False)
    assert payload is not None  # allow_eof=False raises instead
    return decode_payload(payload)


def _read_exact(
    read: Callable[[int], bytes], count: int, allow_eof: bool
) -> bytes | None:
    chunks = []
    remaining = count
    while remaining:
        chunk = read(remaining)
        if not chunk:
            if allow_eof and remaining == count:
                return None
            raise TruncatedFrameError(remaining, count - remaining)
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


async def read_frame(
    reader: asyncio.StreamReader, max_bytes: int = MAX_FRAME_BYTES
) -> dict | None:
    """Read one frame from an :class:`asyncio.StreamReader`.

    Same contract as :func:`read_frame_blocking`.  The length is checked
    before any payload is buffered, so a hostile 4 GiB declaration costs
    the server four bytes, not four gigabytes.
    """
    try:
        header = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise TruncatedFrameError(_LENGTH.size, len(exc.partial))
    (length,) = _LENGTH.unpack(header)
    if length > max_bytes:
        raise FrameTooLargeError(length, max_bytes)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise TruncatedFrameError(length, len(exc.partial))
    return decode_payload(payload)


# -- envelopes -------------------------------------------------------------------


def ok_response(request_id: object, result: dict) -> dict:
    """A success envelope."""
    return {"id": request_id, "ok": True, "result": result}


def error_response(
    request_id: object,
    code: str,
    message: str,
    details: dict | None = None,
) -> dict:
    """A failure envelope (``details`` rides along when structured)."""
    error: dict = {"code": code, "message": message}
    if details is not None:
        error["details"] = details
    return {"id": request_id, "ok": False, "error": error}


# -- summary transport -----------------------------------------------------------


def encoded_to_wire(raw: bytes) -> str:
    """A summary's codec bytes as the base64 string the wire carries."""
    return base64.b64encode(raw).decode("ascii")


def summary_to_wire(summary: CellSummary) -> str:
    """A cell summary as a base64 string of its stored bytes."""
    return encoded_to_wire(summary.encode())


def summary_from_wire(text: str) -> CellSummary:
    """Reconstruct a summary sent by :func:`summary_to_wire`; a payload
    that is not a summary raises :class:`ProtocolError`."""
    if not isinstance(text, str):
        raise ProtocolError(
            ERR_BAD_FRAME,
            f"summary payload must be a string, got {type(text).__name__}",
        )
    try:
        # Bad base64 and a CodecError are both ValueErrors.
        return CellSummary.decode(base64.b64decode(text.encode("ascii")))
    except ValueError as exc:
        raise ProtocolError(ERR_BAD_FRAME, f"undecodable summary payload: {exc}")
