"""Shared exception types."""


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its configured cap.

    Raised before any partial result could be mistaken for a complete count.
    ``required`` carries the size the enumeration would need when that is
    known up front; ``budget`` is the cap that was in force.
    """

    def __init__(self, message, *, required=None, budget=None):
        super().__init__(message)
        self.required = required
        self.budget = budget


class InadmissibleTupleError(ValueError):
    """A shape tuple whose genus formula evaluates below 1."""


def stop_reason(exc: BudgetExceededError | MemoryError) -> str:
    """One line for why a computation stopped: the budget refusal's message,
    or "out of memory" with numpy's allocation size when it gave one."""
    if isinstance(exc, MemoryError):
        return f"out of memory: {exc}" if str(exc) else "out of memory"
    return str(exc)
