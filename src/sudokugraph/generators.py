"""Named graph families with fixed, documented labelings.

Labeling conventions matter here: the certificate constructions in
`theorems` address vertices by position, so each generator pins an exact
vertex numbering and the tests assert it. Generators whose edge count can
grow quadratically pass build an iterator, so build's MAX_EDGES check runs
before the edges are all held.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, combinations

from .errors import InvalidFamilyParamsError
from .graph import Graph, build


class Family(Enum):
    PATH = "path"
    CYCLE = "cycle"
    COMPLETE = "complete"
    COMPLETE_MULTIPARTITE = "complete-multipartite"
    STAR = "star"
    TREE = "tree"
    FRIENDSHIP = "friendship"
    AMALGAM = "amalgam"
    TADPOLE = "tadpole"
    LOLLIPOP = "lollipop"
    CYCLE_OF_CLIQUES = "cycle-of-cliques"
    CYCLE_OF_CLIQUES_MINUS = "cycle-of-cliques-minus"
    STACKED_TRIANGULATION = "stacked-triangulation"
    FAN = "fan"
    WHEEL = "wheel"
    SUDOKU_GRID = "sudoku-grid"


@dataclass(frozen=True)
class FamilySpec:
    """A family name plus its integer (or list) parameters."""

    family: Family
    params: dict = field(default_factory=dict)


def _need(params: dict, key: str) -> int:
    if key not in params:
        raise InvalidFamilyParamsError(f"missing parameter '{key}'")
    value = params[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidFamilyParamsError(f"parameter '{key}' must be an integer, got {value!r}")
    return value


def path(n: int) -> Graph:
    """P_n on 0..n-1 in chain order."""
    if n < 2:
        raise InvalidFamilyParamsError(f"path needs n >= 2, got {n}")
    return build(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    """C_n on 0..n-1 in ring order."""
    if n < 3:
        raise InvalidFamilyParamsError(f"cycle needs n >= 3, got {n}")
    return build(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise InvalidFamilyParamsError(f"complete graph needs n >= 1, got {n}")
    return build(n, combinations(range(n), 2))


def complete_multipartite(parts: list[int]) -> Graph:
    """Parts occupy consecutive vertex blocks in the order given."""
    if not parts or any((not isinstance(p, int)) or p < 1 for p in parts):
        raise InvalidFamilyParamsError(f"parts must be positive integers, got {parts!r}")
    bounds = [0]
    for p in parts:
        bounds.append(bounds[-1] + p)
    edges = (
        (u, v)
        for a in range(len(parts))
        for b in range(a + 1, len(parts))
        for u in range(bounds[a], bounds[a + 1])
        for v in range(bounds[b], bounds[b + 1])
    )
    return build(bounds[-1], edges)


def star(n: int) -> Graph:
    """K_{1,n}: hub 0, leaves 1..n."""
    if n < 1:
        raise InvalidFamilyParamsError(f"star needs n >= 1 leaves, got {n}")
    return build(n + 1, [(0, i) for i in range(1, n + 1)])


def tree(n: int, seed: int = 0) -> Graph:
    """Uniform random labeled tree via a seeded Pruefer sequence."""
    if n < 1:
        raise InvalidFamilyParamsError(f"tree needs n >= 1, got {n}")
    if n == 1:
        return build(1, [])
    if n == 2:
        return build(2, [(0, 1)])
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return build(n, edges)


def amalgam(m: int, n: int, r: int) -> Graph:
    """m copies of K_n glued along a shared K_r.

    Core K_r is 0..r-1; copy i (1-based) owns interior block
    r+(i-1)(n-r) .. r+i(n-r)-1. Order is r + m(n-r).
    """
    if m < 2:
        raise InvalidFamilyParamsError(f"amalgam needs m >= 2 copies, got {m}")
    if n < 2:
        raise InvalidFamilyParamsError(f"amalgam needs n >= 2, got {n}")
    if not (1 <= r < n):
        raise InvalidFamilyParamsError(f"amalgam needs 1 <= r < n, got r={r}, n={n}")
    blocks = ((*range(r), *range(r + i * (n - r), r + (i + 1) * (n - r))) for i in range(m))
    return build(r + m * (n - r), (e for block in blocks for e in combinations(block, 2)))


def friendship(m: int) -> Graph:
    """f_m: m triangles sharing one vertex, i.e. the amalgam of m K_3's along K_1."""
    if m < 2:
        raise InvalidFamilyParamsError(f"friendship graph needs m >= 2 triangles, got {m}")
    return amalgam(m, 3, 1)


def tadpole(n: int, m: int) -> Graph:
    """T(n, m): cycle 0..n-1 plus a path of m vertices sharing its first vertex with 0.

    Path vertices u_2..u_m are n..n+m-2; u_1 coincides with cycle vertex 0.
    """
    if n < 3:
        raise InvalidFamilyParamsError(f"tadpole needs cycle length n >= 3, got {n}")
    if m < 2:
        raise InvalidFamilyParamsError(f"tadpole needs path order m >= 2, got {m}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    prev = 0
    for j in range(2, m + 1):
        cur = n + j - 2
        edges.append((prev, cur))
        prev = cur
    return build(n + m - 1, edges)


def lollipop(n: int, m: int) -> Graph:
    """L(n, m): clique 0..n-1 plus a path of m vertices sharing its first vertex with 0."""
    if n < 3:
        raise InvalidFamilyParamsError(f"lollipop needs clique order n >= 3, got {n}")
    if m < 2:
        raise InvalidFamilyParamsError(f"lollipop needs path order m >= 2, got {m}")
    tail = (0, *range(n, n + m - 1))
    return build(n + m - 1, chain(combinations(range(n), 2), zip(tail, tail[1:])))


def cycle_of_cliques(n: int, m: int) -> Graph:
    """C_2n(K_m): a 2n-cycle whose i-th consecutive rim pair lies in its own K_m.

    Rim x_1..x_2n is 0..2n-1; the clique blocks H^1..H^n of m-2 extra vertices
    follow, block i occupying 2n+(i-1)(m-2) .. 2n+i(m-2)-1. Rim pair
    (x_{2i-1}, x_{2i}) plus H^i forms K_m; alternate rim edges join cliques.
    """
    if n < 2:
        raise InvalidFamilyParamsError(f"cycle of cliques needs n >= 2 cliques, got {n}")
    if m < 3:
        raise InvalidFamilyParamsError(f"cycle of cliques needs clique order m >= 3, got {m}")
    rim = 2 * n
    ring = ((i, (i + 1) % rim) for i in range(rim))
    blocks = (
        (2 * i, 2 * i + 1, *range(rim + i * (m - 2), rim + (i + 1) * (m - 2))) for i in range(n)
    )
    cliques = (e for block in blocks for e in combinations(block, 2))
    return build(rim + n * (m - 2), chain(ring, cliques))


def cycle_of_cliques_minus(n: int, m: int) -> Graph:
    """C_2n(K_m^-): cycle_of_cliques(n, m) with each in-clique rim edge removed.

    The result is (m-1)-regular.
    """
    if n < 2:
        raise InvalidFamilyParamsError(f"cycle of cliques needs n >= 2 cliques, got {n}")
    if m < 4:
        raise InvalidFamilyParamsError(f"removing rim chords needs clique order m >= 4, got {m}")
    g = cycle_of_cliques(n, m)
    drop = {(2 * i, 2 * i + 1) for i in range(n)}
    return build(g.n, [e for e in g.edges if e not in drop])


def stacked_triangulation(attachments: list[tuple[int, int]]) -> Graph:
    """Start from the triangle 0,1,2 and glue one new vertex onto an existing edge per step.

    Step t (0-based) adds vertex 3+t adjacent to both ends of attachments[t],
    which must already be an edge.
    """
    edges = [(0, 1), (0, 2), (1, 2)]
    present = set(edges)
    n = 3
    for t, pair in enumerate(attachments):
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise InvalidFamilyParamsError(f"attachment {t} must be a pair, got {pair!r}")
        key = (u, v) if u < v else (v, u)
        if key not in present:
            raise InvalidFamilyParamsError(
                f"attachment {t} = ({u}, {v}) is not an existing edge"
            )
        edges.append((u, n))
        edges.append((v, n))
        present.add((min(u, n), max(u, n)))
        present.add((min(v, n), max(v, n)))
        n += 1
    return build(n, edges)


def fan(n: int) -> Graph:
    """F_n: path 0..n-1 joined to hub n."""
    if n < 2:
        raise InvalidFamilyParamsError(f"fan needs path order n >= 2, got {n}")
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(i, n) for i in range(n)]
    return build(n + 1, edges)


def wheel(n: int) -> Graph:
    """W_n: rim cycle 0..n-1 joined to hub n."""
    if n < 3:
        raise InvalidFamilyParamsError(f"wheel needs rim length n >= 3, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n) for i in range(n)]
    return build(n + 1, edges)


def sudoku_grid(b: int) -> Graph:
    """Cells of a b^2 x b^2 Sudoku board; vertex = row * b^2 + col.

    Cells are adjacent when they share a row, a column, or a b x b box.
    Every vertex has degree 3b^2 - 2b - 1.
    """
    if b < 2:
        raise InvalidFamilyParamsError(f"sudoku grid needs box side b >= 2, got {b}")
    side = b * b

    def edges():
        # A pair in one row or column and one box comes twice; build keeps one.
        for r in range(side):
            for c in range(side):
                v = r * side + c
                for c2 in range(c + 1, side):
                    yield v, r * side + c2
                for r2 in range(r + 1, side):
                    yield v, r2 * side + c
                br, bc = r - r % b, c - c % b
                for r2 in range(br, br + b):
                    for c2 in range(bc, bc + b):
                        w = r2 * side + c2
                        if w > v:
                            yield v, w

    return build(side * side, edges())


# Each family's builder and the integer parameters it takes, in order.
_BUILDERS = {
    Family.PATH: (path, ("n",)),
    Family.CYCLE: (cycle, ("n",)),
    Family.COMPLETE: (complete, ("n",)),
    Family.COMPLETE_MULTIPARTITE: (complete_multipartite, ()),
    Family.STAR: (star, ("n",)),
    Family.TREE: (tree, ("n",)),
    Family.FRIENDSHIP: (friendship, ("m",)),
    Family.AMALGAM: (amalgam, ("m", "n", "r")),
    Family.TADPOLE: (tadpole, ("n", "m")),
    Family.LOLLIPOP: (lollipop, ("n", "m")),
    Family.CYCLE_OF_CLIQUES: (cycle_of_cliques, ("n", "m")),
    Family.CYCLE_OF_CLIQUES_MINUS: (cycle_of_cliques_minus, ("n", "m")),
    Family.STACKED_TRIANGULATION: (stacked_triangulation, ()),
    Family.FAN: (fan, ("n",)),
    Family.WHEEL: (wheel, ("n",)),
    Family.SUDOKU_GRID: (sudoku_grid, ("b",)),
}


def family_args(spec: FamilySpec) -> tuple:
    """Check spec's parameters (their ranges are the builder's) and return its arguments."""
    fam, p = spec.family, spec.params
    if fam not in _BUILDERS:
        raise InvalidFamilyParamsError(f"unknown family {fam!r}")
    if fam is Family.COMPLETE_MULTIPARTITE:
        parts = p.get("parts")
        if not isinstance(parts, (list, tuple)):
            raise InvalidFamilyParamsError("complete-multipartite needs a 'parts' list")
        return (list(parts),)
    if fam is Family.STACKED_TRIANGULATION:
        att = p.get("attachments")
        if not isinstance(att, (list, tuple)):
            raise InvalidFamilyParamsError("stacked-triangulation needs an 'attachments' list of edges")
        return (list(att),)
    args = tuple(_need(p, key) for key in _BUILDERS[fam][1])
    return (*args, p.get("seed", 0)) if fam is Family.TREE else args


def generate(spec: FamilySpec) -> Graph:
    """Build the graph a FamilySpec describes, validating its parameters."""
    args = family_args(spec)  # before the lookup, so an unknown family raises the package error
    return _BUILDERS[spec.family][0](*args)
