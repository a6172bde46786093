"""Shared exception types."""


class LiesphError(Exception):
    pass


class MismatchedSystems(LiesphError):
    """Roots or elements from different root systems were combined."""


class BudgetExceeded(LiesphError):
    """A request was refused because the Weyl group it would enumerate is
    larger than its budget."""


class WordCapExceeded(LiesphError):
    """A reduced-word enumeration hit its cap before reaching an answer."""
