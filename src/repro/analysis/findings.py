"""The unit of output: one typed violation of a project invariant.

Every rule emits :class:`Finding`\\ s; the runner sorts, de-duplicates,
suppresses (pragmas), ratchets (baseline) and reports them.  A finding
is frozen and ordered so reports are deterministic regardless of rule
execution order — the same tree always lints identically.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The pseudo-rule id for meta problems the runner itself detects
#: (unparseable modules, malformed pragmas).  Not suppressible.
META_RULE = "REP000"


@dataclass(frozen=True, order=True, slots=True)
class Finding:
    """One invariant violation at a specific source line.

    The message participates in equality: one line can legitimately
    violate the same rule twice (``random.random() + time.time()``) and
    de-duplication must not merge distinct problems.
    """

    #: Path of the offending module, POSIX-style, relative to the
    #: analysis root (e.g. ``inventory/wal.py``).
    path: str
    #: 1-based source line the violation anchors to.
    line: int
    #: Rule identifier (``REP001`` … ``REP009``, or ``REP000``).
    rule: str
    #: Human explanation: what is wrong and what the fix direction is.
    message: str

    def render(self) -> str:
        """The canonical one-line text form (``path:line: RULE message``)."""
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def as_dict(self) -> dict[str, object]:
        """A JSON-ready view of this finding."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }
