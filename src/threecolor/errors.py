"""Exception types shared across the package."""

from __future__ import annotations


class GraphFormatError(ValueError):
    """Raised when a graph input fails validation.

    Carries a machine-readable ``report`` dict with an ``error`` code and
    the offending vertex/edge where applicable.
    """

    def __init__(self, report: dict):
        self.report = dict(report)
        super().__init__(self.report.get("error", "invalid input"))

    def __str__(self):
        detail = {k: v for k, v in self.report.items() if k != "error"}
        code = self.report.get("error", "invalid input")
        return f"{code} {detail}" if detail else str(code)


class BudgetExceededError(RuntimeError):
    """Raised when a counting run exceeds its budget of state updates."""

    def __init__(self, budget: int):
        self.budget = budget
        super().__init__(f"counting budget of {budget} state updates exceeded")


class FalsificationError(RuntimeError):
    """An internally verified mathematical guarantee failed.

    These guards re-check properties that are supposed to hold for every
    valid input (laminarity of extracted families, sixth-integrality of
    transition counts, chain/antichain size products).  Seeing one means
    either an implementation bug or a genuine counterexample; both must
    surface loudly instead of corrupting downstream reports.
    """
