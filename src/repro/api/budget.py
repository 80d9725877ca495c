"""Query budgets.

Every experiment in the paper plots estimation quality against *query cost*
(the number of unique neighborhood queries).  A :class:`QueryBudget` caps that
cost so a walk stops exactly when the budget is exhausted, which is how the
error-versus-cost curves in Figures 6-11 are produced.
"""

from __future__ import annotations

import numbers

from ..exceptions import InvalidConfigurationError, QueryBudgetExceededError


class QueryBudget:
    """A consumable budget of unique queries.

    Args:
        limit: Maximum number of unique queries, or ``None`` for unlimited.
            Any :class:`numbers.Integral` other than ``bool`` is a limit
            (numpy integers included) and is stored as an ``int``; a
            negative one, ``bool``, ``float`` and everything else raises
            :class:`~repro.exceptions.InvalidConfigurationError`, a
            :class:`ValueError`.
    """

    def __init__(self, limit=None) -> None:
        if limit is not None:
            if not isinstance(limit, numbers.Integral) or isinstance(limit, bool) or limit < 0:
                raise InvalidConfigurationError(
                    f"budget limit must be a non-negative integer or None, "
                    f"not {type(limit).__name__} {limit!r}"
                )
            limit = int(limit)
        self.limit = limit
        self.spent = 0

    @property
    def unlimited(self) -> bool:
        return self.limit is None

    @property
    def remaining(self):
        """Remaining queries, or ``None`` when unlimited."""
        if self.limit is None:
            return None
        return max(0, self.limit - self.spent)

    @property
    def exhausted(self) -> bool:
        return self.limit is not None and self.spent >= self.limit

    def can_spend(self, amount: int = 1) -> bool:
        """Return whether ``amount`` more queries fit in the budget."""
        if self.limit is None:
            return True
        return self.spent + amount <= self.limit

    def spend(self, amount: int = 1) -> None:
        """Consume ``amount`` queries, raising when the budget would overflow."""
        if amount < 0:
            raise ValueError("amount must be non-negative")
        if not self.can_spend(amount):
            raise QueryBudgetExceededError(self.limit, spent=self.spent)
        self.spent += amount

    def reset(self) -> None:
        """Reset the spent counter to zero."""
        self.spent = 0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        limit = "unlimited" if self.limit is None else str(self.limit)
        return f"QueryBudget(spent={self.spent}, limit={limit})"
