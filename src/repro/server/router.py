"""The scatter-gather router: N shard servers behind one query surface.

:class:`ShardedInventory` is a :class:`~repro.inventory.backend.QueryableInventory`
whose storage happens to be other servers.  It subclasses
:class:`~repro.inventory.backend.InventoryQueryMixin`, so every position
query reduces to :meth:`ShardedInventory.get` — which forwards the exact
key to the shard owning its cell — and routed answers are byte-identical
to single-node answers *by construction*: the same mixin code runs over
the same point lookups, and summaries travel the wire as the codec's own
bytes.  Fronted by the ordinary :class:`~repro.server.InventoryServer` +
:class:`~repro.server.InventoryService`, the router is just another
backend; shard servers are just ordinary ``repro serve`` processes that
never learn they are shards.

Routing shapes:

- **point lookups** (``summary_at`` / ``top_destinations_at`` / ``eta``)
  are cell-local by the ring's construction, so they cost one forwarded
  request to one shard;
- **``multi_get``** batches are grouped by owning shard and forwarded as
  one sub-``multi_get`` per shard (the
  :meth:`ShardedInventory.multi_encoded_at` hook the service discovers),
  so a B-key batch costs ``min(B, shards)`` round trips, not B;
- **``route_cells``** scatters to every shard and unions the disjoint
  partial answers in cell order — the single-node serialization order.

Availability model — primary + replica per shard, trip-wire health:

- every shard endpoint carries a consecutive-failure count fed by both
  the request path and a background prober; at ``failure_threshold`` the
  endpoint trips to DOWN (``router.shard_down``) and the request path
  stops offering it traffic (fast-fail to the replica, no per-request
  connect timeout against a dead host);
- a read that lands on any endpoint past the first counts one
  ``router.failover``; when *every* endpoint of the owning shard is
  down, the request fails fast with the typed ``shard_unavailable``
  error on a live connection — never a hang past the deadline;
- DOWN endpoints recover only through the prober (``router.shard_up``),
  so one slow endpoint cannot flap in and out of rotation on the hot
  path.

Rebalancing is snapshot-consistent: the ring, shard set and endpoint
health live in one immutable :class:`Topology`; every request captures
one reference up front, and :meth:`ShardedInventory.apply_placement`
swaps in a whole new topology built from a new placement manifest — no
request ever observes a half-applied placement.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterator, TypeVar

from repro.engine.metrics import CounterSet
from repro.hexgrid import cell_to_latlng, latlng_to_cell
from repro.inventory.backend import InventoryQueryMixin
from repro.inventory.keys import GroupKey
from repro.inventory.summary import CellSummary
from repro.obs import registry
from repro.obs import trace as obs
from repro.server import protocol
from repro.server.client import InventoryClient, ServerError
from repro.server.protocol import FanOutTooLargeError, ShardUnavailableError
from repro.server.sharding import Placement

T = TypeVar("T")

#: One routed point lookup (attrs: shard; failover set when a replica
#: answered).
SPAN_LOOKUP = registry.register_span(
    "router.lookup",
    "one routed point lookup on the shard owning the key's cell "
    "(attrs: shard; failover=True when a non-primary endpoint answered)",
)
#: One scatter-gather across every shard (attrs: type, shards).
SPAN_SCATTER = registry.register_span(
    "router.scatter",
    "one scatter-gather request fanned out to every shard "
    "(attrs: type, shards)",
)
#: Reads answered by an endpoint other than the first (the failover
#: trip of the primary/replica pair).
FAILOVER = registry.register_counter(
    "router.failover",
    "routed reads answered by a non-primary endpoint after the primary "
    "failed or was marked down",
)
SHARD_DOWN = registry.register_counter(
    "router.shard_down",
    "endpoint trips to DOWN: consecutive failures reached the threshold",
)
SHARD_UP = registry.register_counter(
    "router.shard_up",
    "endpoint recoveries: a health probe succeeded against a DOWN endpoint",
)
UNAVAILABLE = registry.register_counter(
    "router.unavailable",
    "requests failed typed shard_unavailable: no live endpoint for the "
    "owning shard",
)
RELOADS = registry.register_counter(
    "router.reloads",
    "placement reloads applied (topology swaps, including rebalances)",
)
PROBES = registry.register_counter(
    "router.health_probes",
    "background health probes issued against shard endpoints",
)

#: Error codes that indict the *endpoint*, not the request — the ones
#: worth a failover.  Anything else (bad_request, data_corruption, …) is
#: an application answer and propagates unchanged.
_RETRYABLE_CODES = frozenset(
    {protocol.ERR_TRUNCATED, protocol.ERR_DEADLINE, protocol.ERR_INTERNAL}
)


def _is_endpoint_failure(exc: Exception) -> bool:
    """Does this exception mean "try the replica" rather than "answer"?"""
    if isinstance(exc, ServerError):
        return exc.code in _RETRYABLE_CODES
    return isinstance(exc, (OSError, protocol.ProtocolError))


class _Pool:
    """A tiny thread-safe pool of :class:`InventoryClient` connections to
    one endpoint (the fronting server answers on many worker threads, and
    one client is one connection)."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float,
        connect_timeout: float,
        max_idle: int = 4,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.max_idle = max_idle
        self._idle: list[InventoryClient] = []
        self._lock = threading.Lock()
        self._closed = False

    def acquire(self) -> InventoryClient:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        return InventoryClient(
            self.host,
            self.port,
            timeout=self.timeout,
            connect_timeout=self.connect_timeout,
        )

    def release(self, client: InventoryClient) -> None:
        with self._lock:
            if not self._closed and len(self._idle) < self.max_idle:
                self._idle.append(client)
                return
        client.close()

    def close(self) -> None:
        """Close idle connections; borrowed ones close on release."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for client in idle:
            client.close()


class Endpoint:
    """One serving address of a shard, with its trip-wire health state.

    The state machine: **UP** (failures == 0) → **SUSPECT** (some
    consecutive failures, still offered traffic) → **DOWN** (failures
    reached the threshold; skipped by the request path) → back to **UP**
    only via a successful health probe.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float,
        connect_timeout: float,
        failure_threshold: int,
    ) -> None:
        self.host = host
        self.port = port
        self.failure_threshold = failure_threshold
        self.pool = _Pool(host, port, timeout, connect_timeout)
        self._lock = threading.Lock()
        self._failures = 0
        self._down = False

    @property
    def address(self) -> str:
        """The endpoint as ``host:port`` (for stats and messages)."""
        return f"{self.host}:{self.port}"

    @property
    def down(self) -> bool:
        """True when the trip wire has removed this endpoint from rotation."""
        with self._lock:
            return self._down

    @property
    def state(self) -> str:
        """The health state name: ``up``, ``suspect`` or ``down``."""
        with self._lock:
            if self._down:
                return "down"
            return "suspect" if self._failures else "up"

    def record_success(self) -> bool:
        """Reset the failure count; True if this flipped DOWN → UP."""
        with self._lock:
            recovered = self._down
            self._down = False
            self._failures = 0
        return recovered

    def record_failure(self) -> bool:
        """Count one failure; True if this tripped the endpoint DOWN."""
        with self._lock:
            if self._down:
                return False
            self._failures += 1
            self._down = self._failures >= self.failure_threshold
            return self._down

    def stats(self) -> dict:
        """One endpoint row of the router's ``shard_stats()``."""
        with self._lock:
            return {
                "address": self.address,
                "state": "down" if self._down else ("suspect" if self._failures else "up"),
                "consecutive_failures": self._failures,
            }


class ShardState:
    """One shard of one topology: its table slice and its endpoints
    (first endpoint is the primary, the rest are replicas)."""

    def __init__(
        self, name: str, table: str, entries: int, endpoints: tuple[Endpoint, ...]
    ) -> None:
        if not endpoints:
            raise ValueError(f"shard {name!r} needs at least one endpoint")
        self.name = name
        self.table = table
        self.entries = entries
        self.endpoints = endpoints


class Topology:
    """One immutable routing snapshot: placement version, ring, shards.

    Requests capture a single ``Topology`` reference up front and use
    only it — the swap in :meth:`ShardedInventory.apply_placement` is
    one attribute assignment, so a request sees the whole old placement
    or the whole new one, never a mixture.
    """

    def __init__(self, placement: Placement, shards: tuple[ShardState, ...]) -> None:
        self.placement = placement
        self.version = placement.version
        self.resolution = placement.resolution
        self.ring = placement.ring()
        self.shards = shards

    def owner(self, cell: int) -> ShardState:
        """The shard serving a cell (primary ring owner)."""
        return self.shards[self.ring.primary(cell)]

    def close(self) -> None:
        """Close every endpoint's idle connections (borrowed ones close
        as they are released)."""
        for shard in self.shards:
            for endpoint in shard.endpoints:
                endpoint.pool.close()


class ShardedInventory(InventoryQueryMixin):
    """A queryable inventory backed by N shard servers.

    ``addresses`` maps each placement shard name to its serving
    endpoints as ``(host, port)`` pairs — the first is the primary, any
    further ones are replicas (other servers of the same shard table).
    Duck-compatible with :class:`~repro.inventory.backend.QueryableInventory`
    for everything the serving stack uses, so the ordinary
    :class:`~repro.server.InventoryService` (and through it the ETA and
    destination apps) runs unmodified on top.
    """

    def __init__(
        self,
        placement: Placement,
        addresses: dict[str, list[tuple[str, int]]],
        timeout: float = 30.0,
        connect_timeout: float = 2.0,
        failure_threshold: int = 3,
        probe_interval_s: float | None = None,
    ) -> None:
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.failure_threshold = failure_threshold
        self.counters = CounterSet()
        self.resolution = placement.resolution
        self._swap_lock = threading.Lock()
        self._topology = self._build_topology(placement, addresses)
        self._retired: list[Topology] = []
        self._prober: threading.Thread | None = None
        self._stop_probing = threading.Event()
        if probe_interval_s is not None:
            self.start_probing(probe_interval_s)

    # -- topology ------------------------------------------------------------------

    def _build_topology(
        self, placement: Placement, addresses: dict[str, list[tuple[str, int]]]
    ) -> Topology:
        missing = [
            spec.name for spec in placement.shards if not addresses.get(spec.name)
        ]
        if missing:
            raise ValueError(
                f"no addresses for placement shards: {', '.join(missing)}"
            )
        shards = tuple(
            ShardState(
                spec.name,
                spec.table,
                spec.entries,
                tuple(
                    Endpoint(
                        host,
                        port,
                        self.timeout,
                        self.connect_timeout,
                        self.failure_threshold,
                    )
                    for host, port in addresses[spec.name]
                ),
            )
            for spec in placement.shards
        )
        return Topology(placement, shards)

    @property
    def topology(self) -> Topology:
        """The current routing snapshot (capture once per request)."""
        return self._topology

    def apply_placement(
        self, placement: Placement, addresses: dict[str, list[tuple[str, int]]]
    ) -> None:
        """Swap in a new placement atomically (rebalance / shard join /
        shard leave).  In-flight requests finish on the topology they
        captured; the old topology's idle connections are closed and
        borrowed ones close as they are released."""
        topology = self._build_topology(placement, addresses)
        with self._swap_lock:
            old = self._topology
            self._topology = topology
            self.resolution = placement.resolution
            self._retired.append(old)
        old.close()
        self.counters.increment(RELOADS)

    # -- shard calls ---------------------------------------------------------------

    def _call(self, shard: ShardState, op: Callable[[InventoryClient], T]) -> T:
        """Run one operation against a shard: primary first, then
        replicas, skipping endpoints already tripped DOWN.

        Raises :class:`ShardUnavailableError` when no endpoint answers —
        fast when all are already down (no connection attempts), and in
        any case bounded by the endpoints' own timeouts, so the fronting
        server's deadline converts slow failure into a typed error, not
        a hang."""
        live = [e for e in shard.endpoints if not e.down]
        if not live:
            self.counters.increment(UNAVAILABLE)
            raise ShardUnavailableError(
                shard.name,
                f"shard {shard.name!r}: all {len(shard.endpoints)} "
                f"endpoints are down",
            )
        last: Exception | None = None
        for endpoint in live:
            client: InventoryClient | None = None
            try:
                client = endpoint.pool.acquire()
                result = op(client)
            except Exception as exc:  # noqa: BLE001 - classified below
                if not _is_endpoint_failure(exc):
                    # An application answer (bad_request, corruption…):
                    # the endpoint — and its connection — are healthy.
                    if client is not None:
                        endpoint.pool.release(client)
                    endpoint.record_success()
                    raise
                if client is not None:
                    client.close()
                if endpoint.record_failure():
                    self.counters.increment(SHARD_DOWN)
                last = exc
                continue
            endpoint.pool.release(client)
            endpoint.record_success()
            if endpoint is not shard.endpoints[0]:
                self.counters.increment(FAILOVER)
            return result
        self.counters.increment(UNAVAILABLE)
        raise ShardUnavailableError(
            shard.name,
            f"shard {shard.name!r}: no endpoint answered "
            f"(last error: {last})",
        )

    # -- the QueryableInventory surface --------------------------------------------

    def get(self, key: GroupKey) -> CellSummary | None:
        """Forward an exact-key lookup to the shard owning its cell.

        The wire protocol speaks positions, not keys, so the lookup
        travels as ``summary_at`` of the cell's own center — which maps
        back to the same cell at the placement's resolution.  Every
        mixin position query therefore routes through here unchanged.
        """
        if key.origin is not None and key.vessel_type is None:
            # No grouping set stores origin without vessel type; the
            # single-node backend answers None without a wire trip.
            return None
        topology = self._topology
        shard = topology.owner(key.cell)
        lat, lon = cell_to_latlng(key.cell)
        with obs.span(SPAN_LOOKUP, shard=shard.name):
            return self._call(
                shard,
                lambda client: client.summary_at(
                    lat,
                    lon,
                    vessel_type=key.vessel_type,
                    origin=key.origin,
                    destination=key.destination,
                ),
            )

    def top_destinations_at(
        self, lat: float, lon: float, vessel_type: str | None = None, n: int = 5
    ) -> list[tuple[str, int]]:
        """Forward the whole query to the owning shard: its mixin runs
        the identical fallback logic (typed summary, then plain) against
        local lookups, one round trip instead of two."""
        topology = self._topology
        shard = topology.owner(latlng_to_cell(lat, lon, topology.resolution))
        with obs.span(SPAN_LOOKUP, shard=shard.name):
            return self._call(
                shard,
                lambda client: client.top_destinations_at(
                    lat, lon, vessel_type=vessel_type, n=n
                ),
            )

    def route_cells(
        self, origin: str, destination: str, vessel_type: str
    ) -> dict[int, CellSummary]:
        """Scatter to every shard; union the disjoint partial answers in
        ascending cell order — the single-node serialization order."""
        topology = self._topology
        merged: dict[int, CellSummary] = {}
        with obs.span(SPAN_SCATTER, type="route_cells", shards=len(topology.shards)):
            for shard in topology.shards:
                partial = self._call(
                    shard,
                    lambda client: client.route_cells(
                        origin, destination, vessel_type
                    ),
                )
                merged.update(partial)
        return dict(sorted(merged.items()))

    def multi_encoded_at(self, keys: list[dict]) -> list[bytes | None]:
        """Answer a validated ``multi_get`` batch: group keys by owning
        shard, forward one sub-``multi_get`` per shard, reassemble the
        shards' codec bytes, undecoded, in request order.  The service
        hook that collapses B forwarded lookups to ``min(B, shards)``."""
        topology = self._topology
        by_shard: dict[int, list[int]] = {}
        for index, key in enumerate(keys):
            cell = latlng_to_cell(
                float(key["lat"]), float(key["lon"]), topology.resolution
            )
            by_shard.setdefault(topology.ring.primary(cell), []).append(index)
        answers: list[bytes | None] = [None] * len(keys)
        with obs.span(SPAN_SCATTER, type="multi_get", shards=len(by_shard)):
            for shard_index, indices in by_shard.items():
                shard = topology.shards[shard_index]
                subset = [keys[i] for i in indices]
                try:
                    partial = self._call(
                        shard,
                        lambda client, subset=subset: client.multi_get_encoded(subset),
                    )
                except ServerError as exc:
                    if (
                        exc.code == protocol.ERR_FRAME_TOO_LARGE
                        and isinstance(exc.details, dict)
                        and isinstance(exc.details.get("index"), int)
                    ):
                        # Re-anchor the shard-relative index so "split
                        # the batch here" points into the caller's list.
                        where = indices[min(exc.details["index"], len(indices) - 1)]
                        raise FanOutTooLargeError(
                            where,
                            f"keys[{where}]: sub-batch response exceeded "
                            f"the frame budget on shard {shard.name!r} — "
                            f"split the batch and retry",
                        )
                    raise
                for position, raw in zip(indices, partial):
                    answers[position] = raw
        return answers

    def cells(self) -> set[int]:
        """Unsupported over the wire: enumerate the shard tables instead."""
        raise NotImplementedError(
            "cells() is not served over the wire; query the shard tables "
            "directly"
        )

    def items(self) -> Iterator[tuple[GroupKey, CellSummary]]:
        """Unsupported over the wire: scan the shard tables instead."""
        raise NotImplementedError(
            "items() is not served over the wire; scan the shard tables "
            "directly"
        )

    def __len__(self) -> int:
        return self._topology.placement.total_entries()

    # -- health --------------------------------------------------------------------

    def probe_once(self) -> None:
        """One health sweep: ping every endpoint of the current topology.

        Successful probes reset failure counts (and recover DOWN
        endpoints, counting ``router.shard_up``); failed probes feed the
        same trip wires as the request path.  The background prober
        calls this on its interval; tests call it directly for
        deterministic recovery."""
        topology = self._topology
        for shard in topology.shards:
            for endpoint in shard.endpoints:
                self.counters.increment(PROBES)
                client: InventoryClient | None = None
                try:
                    client = endpoint.pool.acquire()
                    client.ping()
                except Exception:  # noqa: BLE001 - any failure trips the wire
                    if client is not None:
                        client.close()
                    if endpoint.record_failure():
                        self.counters.increment(SHARD_DOWN)
                    continue
                endpoint.pool.release(client)
                if endpoint.record_success():
                    self.counters.increment(SHARD_UP)

    def start_probing(self, interval_s: float) -> None:
        """Run :meth:`probe_once` every ``interval_s`` seconds on a
        daemon thread until :meth:`close`."""
        if interval_s <= 0:
            raise ValueError(f"probe interval must be positive, got {interval_s}")
        if self._prober is not None:
            raise RuntimeError("prober is already running")

        def _probe_loop() -> None:
            while not self._stop_probing.wait(interval_s):
                self.probe_once()

        self._prober = threading.Thread(
            target=_probe_loop, name="repro-router-prober", daemon=True
        )
        self._prober.start()

    def shard_stats(self) -> dict:
        """Per-shard health + router counters — surfaced through the
        fronting server's ``stats`` request (the same optional-hook
        pattern as the block cache)."""
        topology = self._topology
        return {
            "placement_version": topology.version,
            "shards": [
                {
                    "name": shard.name,
                    "table": shard.table,
                    "entries": shard.entries,
                    "endpoints": [e.stats() for e in shard.endpoints],
                }
                for shard in topology.shards
            ],
            "counters": self.counters.as_dict(),
        }

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Stop probing and close every pooled connection (current and
        retired topologies)."""
        self._stop_probing.set()
        if self._prober is not None:
            self._prober.join(timeout=5.0)
            self._prober = None
        with self._swap_lock:
            retired, self._retired = self._retired, []
            topology = self._topology
        for old in retired:
            old.close()
        topology.close()

    def __enter__(self) -> "ShardedInventory":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()
