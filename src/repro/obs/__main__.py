"""``python -m repro.obs`` prints the generated ``docs/METRICS.md``."""

from repro.obs import registry

raise SystemExit(registry.main())
