"""Partial colorings, list states, and extension outcomes."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Mapping

from .graph import MAX_VERTICES, Graph

# Rule labels used in deduction traces.
RULE_COLOR_DOMINATING = "color-dominating"
RULE_NEAR_COLOR_DOMINATING = "near-color-dominating"
RULE_ATTRACTIVE = "attractive"
RULE_BRANCH = "branch"


@dataclass(frozen=True)
class TraceStep:
    vertex: int
    color: int
    rule: str


@dataclass(frozen=True)
class PartialColoring:
    """An assignment of colors 1..k to some vertices, with ambient color count k."""

    k: int
    assignments: Mapping[int, int]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.k > MAX_VERTICES:
            # No graph needs more colors than vertices, and the engine holds k + 1 list entries.
            raise ValueError(f"k = {self.k} exceeds the configured budget of {MAX_VERTICES} colors")
        frozen = dict(self.assignments)
        for v, c in frozen.items():
            if v < 0:
                raise ValueError(f"vertex labels must be nonnegative, got {v}")
            if not (1 <= c <= self.k):
                raise ValueError(f"vertex {v} has color {c} outside 1..{self.k}")
        object.__setattr__(self, "assignments", MappingProxyType(frozen))

    @property
    def colors_used(self) -> frozenset[int]:
        return frozenset(self.assignments.values())

    def __eq__(self, other):
        if not isinstance(other, PartialColoring):
            return NotImplemented
        return self.k == other.k and dict(self.assignments) == dict(other.assignments)

    def __hash__(self):
        return hash((self.k, tuple(sorted(self.assignments.items()))))


@dataclass(frozen=True)
class ColorListState:
    """Explicit per-vertex candidate color lists."""

    lists: Mapping[int, frozenset[int]]

    def __post_init__(self):
        object.__setattr__(
            self,
            "lists",
            MappingProxyType({v: frozenset(cs) for v, cs in dict(self.lists).items()}),
        )

    @classmethod
    def from_partial(cls, g: Graph, c: PartialColoring) -> "ColorListState":
        """Lists for the uncolored vertices: {1..k} minus colors seen on neighbors."""
        full = frozenset(range(1, c.k + 1))
        lists = {}
        for v in range(g.n):
            if v in c.assignments:
                continue
            taken = {c.assignments[u] for u in g.adj[v] if u in c.assignments}
            lists[v] = full - taken
        return cls(lists)


class ExtensionKind(Enum):
    NOT_EXTENDABLE = "not-extendable"
    UNIQUE = "unique"
    MULTIPLE = "multiple"


@dataclass(frozen=True)
class ExtensionOutcome:
    """Classification of how a partial coloring completes.

    witness1 is a full proper coloring when one exists; witness2 is a second,
    distinct one when the kind is MULTIPLE. The trace lists the deductions
    (and branch decisions) that reach the unique completion; it covers
    exactly the uncolored vertices when the kind is UNIQUE.
    """

    kind: ExtensionKind
    witness1: dict[int, int] | None = None
    witness2: dict[int, int] | None = None
    trace: tuple[TraceStep, ...] = field(default=())
    count: int = 0


class PropagationStatus(Enum):
    PROGRESS = "progress"
    STUCK = "stuck"
    DEAD_END = "dead-end"


def is_proper(g: Graph, c: PartialColoring) -> bool:
    """No edge with both ends colored alike; vertices outside range(n) are rejected.

    Only the edges at colored vertices are looked at, through g.adj.
    """
    a = c.assignments
    for v in a:
        if not (0 <= v < g.n):
            raise ValueError(f"colored vertex {v} outside range(0, {g.n})")
    adj = g.adj
    for v, col in a.items():
        for u in adj[v]:
            if u in a and a[u] == col:
                return False
    return True
