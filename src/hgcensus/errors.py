"""Exception types shared across the package.

Budget overruns are first-class errors carrying partial progress, so callers
can distinguish "ran out of room" from "the input was malformed".
"""

from __future__ import annotations


class StructureError(ValueError):
    """A structural precondition was violated (degree mismatch, containment, ...)."""


class UnsupportedOrderError(LookupError):
    """The group catalog does not cover the requested order."""

    def __init__(self, order: int, covered: tuple[int, ...]):
        self.order = order
        self.covered = covered
        super().__init__(
            f"no catalog entries for order {order}; covered orders: {list(covered)}"
        )


class BudgetError(RuntimeError):
    """Base class for resource-budget overruns.  Never silently truncates."""

    def __init__(self, message: str, *, spent: int | float, budget: int | float):
        self.spent = spent
        self.budget = budget
        super().__init__(f"{message} (spent {spent}, budget {budget})")


class ClosureBudgetError(BudgetError):
    """Element materialization exceeded the element budget."""


class SearchBudgetError(BudgetError):
    """Subgroup search exceeded the node or time budget."""


class ConsistencyError(AssertionError):
    """An internal cross-check failed; results must not be trusted."""
