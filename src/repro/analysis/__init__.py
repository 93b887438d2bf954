"""``repro.analysis`` — the project-invariant static checker.

A stdlib-only (``ast`` + ``symtable``) analysis framework that turns the
repo's system-wide contracts into machine-checked invariants:

=======  ==============================================================
REP001   durable writes go through the ``inventory/fsio`` atomic seam
REP002   lock-guarded attributes are mutated under their lock everywhere
REP003   span/counter names and ``obs/registry.py`` agree, both ways
REP004   ``world``/``pipeline`` stay seeded and wall-clock-free
REP005   ``CorruptionError``/``SSTableError`` are never swallowed
REP006   ``async def`` server code never blocks the event loop
REP008   resources must be released on every path, including exceptions
REP009   wire error codes, raise sites and OPERATIONS triage stay in sync
=======  ==============================================================

Run it as ``repro lint`` or ``python -m repro.analysis``; the committed
``lint-baseline.json`` ratchet means counts can only ever go down.  Rule
catalogue, pragma workflow and how to write a new rule: ``docs/ANALYSIS.md``.
"""
