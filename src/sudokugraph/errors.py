"""Exception types shared across the package, and the one clock for time budgets."""

import time
from math import isnan


class SudokugraphError(Exception):
    """Base class for all package errors."""


class SelfLoopError(SudokugraphError):
    """An edge joins a vertex to itself."""


class VertexOutOfRangeError(SudokugraphError):
    """An edge endpoint is not in range(n)."""


class ParseError(SudokugraphError):
    """Malformed graph or coloring input.

    Carries the 1-based line number (edge lists) or byte offset (JSON)
    where parsing failed, when known.
    """

    def __init__(self, message: str, *, line: int | None = None, pos: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line})"
        elif pos is not None:
            loc = f" (byte {pos})"
        super().__init__(message + loc)
        self.line = line
        self.pos = pos


class InvalidFamilyParamsError(SudokugraphError):
    """Family parameters violate the family's constraints."""


class BudgetExceededError(SudokugraphError):
    """A node, subset or time budget ran out.

    The node budget bounds each chi search alone, the subset budget the
    supports of one sn search, and the time budget, one Clock, every search
    of one call. For Sudoku-number searches, `lower_bound` is the largest
    bound proven before the budget ran out (every smaller support size was
    exhausted).
    """

    def __init__(self, message: str, *, lower_bound: int | None = None):
        super().__init__(message)
        self.lower_bound = lower_bound


class Clock:
    """One time budget for every search of one call, and what its owner has proven.

    `deadline` is a Clock.now() value, or None without a budget. A search
    given the clock compares Clock.now() with it and calls expire() once it
    has passed. The owner keeps `proven`, the message's tail, and
    `lower_bound` current: "; sn >= s" and s in sn_exact, " during scan at
    n=N" in conjecture_scan.
    """

    now = staticmethod(time.perf_counter)

    def __init__(self, max_seconds: float | None = None):
        # Every comparison with NaN is false, so a NaN budget would never run out.
        if max_seconds is not None and isnan(max_seconds):
            raise ValueError("max_seconds must be a number, got nan")
        self.max_seconds = max_seconds
        self.start = self.now()
        self.deadline = None if max_seconds is None else self.start + max_seconds
        self.proven, self.lower_bound = "", None

    def expire(self):
        """Raise the BudgetExceededError that names what the owner has proven."""
        raise BudgetExceededError(
            f"time budget {self.max_seconds}s exhausted{self.proven}", lower_bound=self.lower_bound
        )

    def check(self) -> None:
        if self.deadline is not None and self.now() >= self.deadline:
            self.expire()

    def elapsed(self) -> float:
        return self.now() - self.start


class DisconnectedGraphError(SudokugraphError):
    """The operation is defined for connected graphs only."""


class MalformedPuzzleError(SudokugraphError):
    """A Sudoku puzzle string is not 81 cells over {1-9, 0, .}."""


class ImproperGivensError(SudokugraphError):
    """Two equal givens share a row, column, or box."""
