"""Check results and search budgets.

Every exhaustive checker in the package returns a :class:`Report` whose
status is one of ``pass``, ``fail`` or ``capped``.  ``capped`` means the
instance budget ran out before the search space was exhausted and no
counterexample was found; it is deliberately distinct from a pass.
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

    @property
    def ok(self) -> bool:
        return self.status == PASS

    def line(self) -> str:
        msg = "%s: %s (%d instances)" % (self.name, self.status, self.checked)
        if self.witness is not None:
            msg += " witness=%s" % (self.witness,)
        if self.notes:
            msg += " [" + "; ".join(self.notes) + "]"
        return msg


class Budget:
    """Counts instances against a cap; ``None`` means unbounded."""

    def __init__(self, cap: int | None = DEFAULT_CAP):
        self.cap = cap
        self.used = 0

    def spend(self, k: int = 1) -> bool:
        """Register k instances; False once more than ``cap`` are registered."""
        self.used += k
        return self.cap is None or self.used <= self.cap

    def charge(self, r: Report, k: int = 1) -> bool:
        """Count k instances on ``r`` and spend them; once the cap is
        reached, mark ``r`` capped with a note and return False."""
        r.checked += k
        if self.spend(k):
            return True
        r.status = CAPPED
        r.notes.append("cap %r reached" % self.cap)
        return False


def summarize(reports) -> str:
    """Worst status across reports: fail beats capped beats pass."""
    statuses = {r.status for r in reports}
    if FAIL in statuses:
        return FAIL
    if CAPPED in statuses:
        return CAPPED
    return PASS
