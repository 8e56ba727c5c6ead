"""Immutable simple graphs on vertices 0..n-1."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SelfLoopError, VertexOutOfRangeError

# Hard ceilings on graph order and size; exact search is desk-scale by design.
# A graph takes about 240 bytes per edge, so MAX_EDGES (K_1000 fits) is 120 MB.
MAX_VERTICES = 10_000
MAX_EDGES = 500_000


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph. Edges are stored sorted, each as (u, v) with u < v."""

    n: int
    edges: tuple[tuple[int, int], ...]
    adj: tuple[tuple[int, ...], ...] = field(compare=False, repr=False, default=())

    def __post_init__(self):
        if not self.adj:
            nbrs: list[list[int]] = [[] for _ in range(self.n)]
            for u, v in self.edges:
                nbrs[u].append(v)
                nbrs[v].append(u)
            object.__setattr__(self, "adj", tuple(tuple(sorted(b)) for b in nbrs))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def __hash__(self):
        return hash((self.n, self.edges))


def build(n: int, edges) -> Graph:
    """Validate and construct a Graph.

    Self-loops raise SelfLoopError, endpoints outside range(n) raise
    VertexOutOfRangeError, duplicate pairs collapse to one edge. edges may be
    any iterable; it is read lazily, so more than MAX_EDGES distinct pairs
    raise ValueError before they are all held.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if n > MAX_VERTICES:
        raise ValueError(f"graph order {n} exceeds the configured budget of {MAX_VERTICES}")
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if not (0 <= u < n) or not (0 <= v < n):
            raise VertexOutOfRangeError(f"edge ({u}, {v}) outside range(0, {n})")
        seen.add((u, v) if u < v else (v, u))
        if len(seen) > MAX_EDGES:
            raise ValueError(f"graph size exceeds the configured budget of {MAX_EDGES} edges")
    return Graph(n, tuple(sorted(seen)))


def is_connected(g: Graph) -> bool:
    """True for the empty graph convention n <= 1 and for any connected graph."""
    if g.n <= 1:
        return True
    seen = bytearray(g.n)
    seen[0] = 1
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for v in g.adj[u]:
            if not seen[v]:
                seen[v] = 1
                count += 1
                stack.append(v)
    return count == g.n


def bipartition(g: Graph) -> tuple[set[int], set[int]] | None:
    """Return a 2-coloring as a pair of vertex sets, or None if an odd cycle exists."""
    side = [-1] * g.n
    for s in range(g.n):
        if side[s] != -1:
            continue
        side[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for v in g.adj[u]:
                if side[v] == -1:
                    side[v] = side[u] ^ 1
                    stack.append(v)
                elif side[v] == side[u]:
                    return None
    return {v for v in range(g.n) if side[v] == 0}, {v for v in range(g.n) if side[v] == 1}


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, list[int]]:
    """Subgraph on `vertices`; returns (subgraph, old-label list indexed by new label)."""
    keep = sorted(set(vertices))
    index = {old: new for new, old in enumerate(keep)}
    edges = [
        (index[u], index[v])
        for u, v in g.edges
        if u in index and v in index
    ]
    return build(len(keep), edges), keep


def relabel(g: Graph, perm) -> Graph:
    """Apply a permutation (new label = perm[old label]) to the vertex set."""
    p = list(perm)
    if sorted(p) != list(range(g.n)):
        raise ValueError("perm must be a permutation of range(n)")
    return build(g.n, [(p[u], p[v]) for u, v in g.edges])
