"""The serving layer: the inventory as an online query service.

The paper's inventory exists to be *queried* — MarineTraffic answers
pattern, ETA and destination requests from the precomputed summaries.
This package is that serving tier for any
:class:`~repro.inventory.backend.QueryableInventory` backend:

- :mod:`repro.server.protocol` — the length-prefixed JSON wire format,
  frame limits and error codes;
- :mod:`repro.server.service` — request dispatch onto the backend and
  the reused ETA/destination apps (pure, socket-free, unit-testable);
- :mod:`repro.server.server` — the asyncio TCP server: bounded
  concurrency (semaphore backpressure), per-request deadlines,
  per-connection idle timeouts, graceful drain;
- :mod:`repro.server.metrics` — request/error counters and
  latency/queue-wait digests, served back through the ``stats`` request
  and exposed in Prometheus text form via ``--metrics-port``
  (:mod:`repro.obs.exposition`);
- :mod:`repro.server.client` — the synchronous client whose query
  methods mirror the in-process backend's (plus ``trace`` for the live
  span ring buffer).

``python -m repro serve --inventory inv.sst`` stands the whole stack up
from a persisted table.
"""

import importlib
from typing import Any

# Resolved on first use (PEP 562): a client need not load the server.
_EXPORTS = {
    "repro.server.client": ("InventoryClient", "ServerError"),
    "repro.server.server": ("InventoryServer", "ServerConfig", "ServerThread"),
    "repro.server.service": ("InventoryService",),
}


def __getattr__(name: str) -> Any:
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(importlib.import_module(module), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
