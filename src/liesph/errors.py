"""Shared exception types, and the one writer of lines to stderr."""

import sys


def write_stderr(text: str) -> None:
    """Write a line to stderr.  A closed or full stderr loses the line,
    never the exit code."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(text + "\n")
            sys.stderr.flush()
        except (OSError, ValueError):
            pass


class LiesphError(Exception):
    pass


class MismatchedSystems(LiesphError):
    """Roots or elements from different root systems were combined."""


class BudgetExceeded(LiesphError):
    """A request was refused because the Weyl group it would enumerate is
    larger than its budget."""


class WordCapExceeded(LiesphError):
    """A reduced-word enumeration hit its cap before reaching an answer."""
