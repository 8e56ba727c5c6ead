"""Exception types shared across the package."""


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
    """A configured node, subset, or wall-clock budget ran out.

    For Sudoku-number searches, `lower_bound` is the largest bound proven
    before the budget expired (every smaller support size was exhausted).
    """

    def __init__(self, message: str, *, lower_bound: int | None = None):
        super().__init__(message)
        self.lower_bound = lower_bound


class DisconnectedGraphError(SudokugraphError):
    """The operation is defined for connected graphs only."""


class MalformedPuzzleError(SudokugraphError):
    """A Sudoku puzzle string is not 81 cells over {1-9, 0, .}."""


class ImproperGivensError(SudokugraphError):
    """Two equal givens share a row, column, or box."""
