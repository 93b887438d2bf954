"""The load generator: one thread, a few connections, one ``select`` loop.

A *lane* is one TCP connection plus the requests it sends.  A
closed-loop lane sends its next request only when the previous answer
has arrived (a caller that waits for replies); a paced lane sends on a
fixed schedule whatever the server is doing (independent users) and
times every request from the moment it was *due*, so a stall is charged
to the requests queued behind it.  Paced requests are pipelined on the
connection: the server answers frames of one connection in order, so a
backlog waits in its socket, not in the generator, and ``late_s``
reports only how late the generator itself ran.

Everything runs on the calling thread — no client threads fighting the
program for a GIL's worth of scheduler attention — and frames are raw
bytes: a response is only checked for ``"ok":true``, decoding summaries
is left to the correctness sample outside the timed loop.
"""

from __future__ import annotations

import select
import socket
import struct
import time
from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

_LENGTH = struct.Struct(">I")
_OK = b'"ok":true'

#: A request: (tag naming the operation, encoded frame).
Request = tuple[str, bytes]


@dataclass
class Samples:
    """What one lane measured, one entry per completed request."""

    tags: list[str] = field(default_factory=list)
    ref: list[float] = field(default_factory=list)  # start (closed) or due time (paced)
    sent: list[float] = field(default_factory=list)
    done: list[float] = field(default_factory=list)
    failed: int = 0

    def latencies(self, tag: str | None = None) -> list[float]:
        """Seconds from reference time to full response, optionally by tag."""
        return [
            done - ref
            for done, ref, t in zip(self.done, self.ref, self.tags)
            if tag is None or t == tag
        ]

    def late(self) -> list[float]:
        """Seconds each request was sent after it was due."""
        return [sent - ref for sent, ref in zip(self.sent, self.ref)]


class Lane:
    """One connection and its request stream.

    :param requests: yields :data:`Request` s; exhaustion ends the lane.
    :param rate: ``None`` for closed loop, else requests per second.
    :param phase: seconds a paced lane's schedule is shifted by, so
        lanes sharing a total rate do not all fire at the same instant.
    :param follow: a paced lane that stops when every other lane has.
    :param on_response: called with (tag, payload) per answer; returns
        whether the operation succeeded (default: ``"ok":true``).
    """

    def __init__(
        self,
        address: tuple[str, int],
        requests: Iterator[Request],
        rate: float | None = None,
        phase: float = 0.0,
        follow: bool = False,
        on_response: Callable[[str, bytes], bool] | None = None,
    ) -> None:
        self.requests = requests
        self.rate = rate
        self.phase = phase
        self.follow = follow
        self.on_response = on_response
        self.samples = Samples()
        self.sock = socket.create_connection(address, timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = bytearray()
        self._inflight: deque[tuple[str, float, float]] = deque()
        self.sent = 0
        self.finished = False

    def close(self) -> None:
        """Close the connection."""
        self.sock.close()

    def fileno(self) -> int:
        """The socket's descriptor, so ``select`` takes lanes directly."""
        return self.sock.fileno()

    def _send(self, ref: float | None) -> bool:
        request = next(self.requests, None)
        if request is None:
            self.finished = True
            return False
        tag, frame = request
        now = time.perf_counter()
        self.sock.sendall(frame)
        self._inflight.append((tag, now if ref is None else ref, now))
        self.sent += 1
        return True

    def _receive(self, on_complete: Callable[[str, float, float], None] | None) -> int:
        data = self.sock.recv(1 << 18)
        if not data:
            raise ConnectionError("server closed the connection mid-run")
        buffer = self._buffer
        buffer += data
        completed = 0
        while len(buffer) >= _LENGTH.size:
            (length,) = _LENGTH.unpack_from(buffer)
            end = _LENGTH.size + length
            if len(buffer) < end:
                break
            now = time.perf_counter()
            payload = bytes(buffer[_LENGTH.size:end])
            del buffer[:end]
            tag, ref, sent = self._inflight.popleft()
            if self.on_response is not None:
                ok = self.on_response(tag, payload)
            else:
                ok = _OK in payload
            samples = self.samples
            if ok:
                samples.tags.append(tag)
                samples.ref.append(ref)
                samples.sent.append(sent)
                samples.done.append(now)
            else:
                samples.failed += 1
            if on_complete is not None:
                on_complete(tag, ref, now)
            completed += 1
        return completed


def drive(
    lanes: list[Lane],
    seconds: float | None = None,
    on_complete: Callable[[str, float, float], None] | None = None,
) -> float:
    """Run every lane to its end on this thread; returns the wall time.

    Closed lanes stop sending at ``seconds`` (when given) or when their
    requests run out; paced lanes after ``rate × seconds`` requests, or
    — ``follow`` lanes — once every other lane has finished.  The call
    returns when nothing is in flight.
    """
    started = time.perf_counter()
    deadline = None if seconds is None else started + seconds
    for lane in lanes:
        if lane.rate is None:
            lane._send(None)
    leaders = [lane for lane in lanes if not lane.follow]
    while True:
        now = time.perf_counter()
        if all(lane.finished for lane in leaders):
            for lane in lanes:
                lane.finished = True
        timeout = 1.0
        for lane in lanes:
            if lane.rate is None or lane.finished:
                continue
            while True:
                due = started + lane.phase + lane.sent / lane.rate
                if deadline is not None and due >= deadline:
                    lane.finished = True
                    break
                if due > now:
                    timeout = min(timeout, due - now)
                    break
                if not lane._send(due):
                    break
        waiting = [lane for lane in lanes if lane._inflight]
        if not waiting and all(lane.finished for lane in lanes):
            return time.perf_counter() - started
        readable, _, _ = select.select(waiting, [], [], timeout)
        for lane in readable:
            completed = lane._receive(on_complete)
            if lane.rate is None and completed and not lane.finished:
                if deadline is not None and time.perf_counter() >= deadline:
                    lane.finished = True
                else:
                    lane._send(None)
