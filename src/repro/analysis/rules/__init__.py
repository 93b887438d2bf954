"""The invariant rules (REP001–REP006, REP008, REP009).

Each rule is one module here; :mod:`repro.analysis.rules.base` holds the
:class:`~repro.analysis.rules.base.Rule` interface they implement.
"""
