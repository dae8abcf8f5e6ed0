"""Check results that count, cap and fail themselves.

Every exhaustive checker in the package returns a :class:`Report` whose
status is one of ``pass``, ``fail`` or ``capped``.  ``capped`` means the
report's instance cap ran out before the search space was exhausted and
no counterexample was found; it is deliberately distinct from a pass.
A checker counts only through :meth:`Report.charge`, so a capped report
reads ``cap + 1`` instances unless it charged a whole sub-check at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_CAP = 10 ** 6

PASS = "pass"
FAIL = "fail"
CAPPED = "capped"


@dataclass
class Report:
    name: str
    status: str = PASS
    checked: int = 0
    witness: object = None
    notes: list = field(default_factory=list)
    cap: int | None = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.status == PASS

    def charge(self, k: int = 1) -> bool:
        """Count k instances; once more than ``cap`` are counted, mark the
        report capped with a note and return False.  ``None`` never caps."""
        self.checked += k
        if self.cap is None or self.checked <= self.cap:
            return True
        self.status = CAPPED
        self.notes.append("cap %r reached" % self.cap)
        return False

    def fail(self, witness) -> Report:
        """Record a failure located at ``witness``; returns the report."""
        self.status, self.witness = FAIL, witness
        return self

    def line(self) -> str:
        msg = "%s: %s (%d instances)" % (self.name, self.status, self.checked)
        if self.witness is not None:
            msg += " witness=%s" % (self.witness,)
        if self.notes:
            msg += " [" + "; ".join(self.notes) + "]"
        return msg


def summarize(reports) -> str:
    """Worst status across reports: fail beats capped beats pass."""
    statuses = {r.status for r in reports}
    if FAIL in statuses:
        return FAIL
    if CAPPED in statuses:
        return CAPPED
    return PASS
