"""Independent brute-force oracles used to cross-check the fast engines.

Everything here enumerates exhaustively with no propagation, no pruning and
no shared code with the package internals, so agreement is meaningful. The
one-support references prune_subset and canonical_colorings check the
package's support generator and coloring walk one item at a time.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from sudokugraph import Graph, PartialColoring, build
from sudokugraph.sn import PRUNE_PENDANT, PRUNE_UNCOLORED_EDGE

CHUNK = 1 << 16


def _proper_mask(colors: np.ndarray, edges) -> np.ndarray:
    ok = np.ones(colors.shape[0], dtype=bool)
    for u, v in edges:
        ok &= colors[:, u] != colors[:, v]
    return ok


def _assignments_chunk(start: int, stop: int, k: int, t: int) -> np.ndarray:
    """Rows start..stop-1 of the k^t mixed-radix table, values 1..k."""
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((stop - start, t), dtype=np.int64)
    for j in range(t - 1, -1, -1):
        out[:, j] = idx % k + 1
        idx //= k
    return out


def brute_count_extensions(g: Graph, partial: PartialColoring, cap: int | None = None) -> int:
    """Count proper completions by enumerating every assignment of the free vertices."""
    k = partial.k
    free = [v for v in range(g.n) if v not in partial.assignments]
    fixed = np.zeros(g.n, dtype=np.int64)
    for v, c in partial.assignments.items():
        fixed[v] = c
    if not free:
        return 1 if bool(_proper_mask(fixed[None, :], g.edges)[0]) else 0
    t = len(free)
    total = 0
    for start in range(0, k**t, CHUNK):
        stop = min(start + CHUNK, k**t)
        rows = stop - start
        colors = np.tile(fixed, (rows, 1))
        colors[:, free] = _assignments_chunk(start, stop, k, t)
        total += int(_proper_mask(colors, g.edges).sum())
        if cap is not None and total >= cap:
            return cap
    return total


def brute_has_proper_coloring(g: Graph, k: int) -> bool:
    empty = PartialColoring(k, {})
    return brute_count_extensions(g, empty, cap=1) == 1


def brute_chromatic(g: Graph) -> int:
    if g.m == 0:
        return 1
    for k in range(2, g.n + 1):
        if brute_has_proper_coloring(g, k):
            return k
    raise AssertionError("n colors always suffice")


def brute_is_sudoku(g: Graph, partial: PartialColoring) -> bool:
    return brute_count_extensions(g, partial, cap=2) == 1


def brute_sn(g: Graph) -> int:
    """Naive Sudoku number: all subsets, all proper partial colorings, brute counting."""
    k = brute_chromatic(g)
    for size in range(0, g.n):
        for subset in itertools.combinations(range(g.n), size):
            for combo in itertools.product(range(1, k + 1), repeat=size):
                partial = dict(zip(subset, combo))
                if any(
                    u in partial and v in partial and partial[u] == partial[v]
                    for u, v in g.edges
                ):
                    continue
                if brute_is_sudoku(g, PartialColoring(k, partial)):
                    return size
    raise AssertionError("coloring everything is always a Sudoku coloring")


def prune_subset(g: Graph, subset, k: int) -> str | None:
    """Name of the lemma ruling out this support, or None (defined for k >= 3).

    "pendant" fires on an uncolored degree-1 vertex; "uncolored-edge" fires on
    an edge both of whose ends are uncolored with degree at most k-1. Either
    way no coloring of the support can have a unique completion.
    """
    if k < 3:
        raise ValueError(f"pruning assumes k = chi(g) >= 3, got k = {k}")
    in_s = bytearray(g.n)
    for v in subset:
        in_s[v] = 1
    for v in range(g.n):
        if not in_s[v] and g.degree(v) == 1:
            return PRUNE_PENDANT
    limit = k - 1
    for u, v in g.edges:
        if (
            not in_s[u]
            and not in_s[v]
            and g.degree(u) <= limit
            and g.degree(v) <= limit
        ):
            return PRUNE_UNCOLORED_EDGE
    return None


def canonical_colorings(g: Graph, subset, k: int):
    """Proper colorings of g[subset], one per color-permutation orbit.

    Canonical form: scanning the support in ascending vertex order, each vertex
    reuses a previously seen color or opens the next fresh one. For k >= 3 only
    representatives with at least k-1 distinct colors are yielded (a uniquely
    extendable coloring can never use fewer). Yields PartialColorings in
    canonical-form order.
    """
    verts = sorted(subset)
    need = k - 1 if k >= 3 else 1
    inner_adj: list[list[int]] = []
    position = {v: i for i, v in enumerate(verts)}
    for v in verts:
        inner_adj.append([position[u] for u in g.adj[v] if u in position])
    t = len(verts)
    colors = [0] * t

    def rec(i: int, used: int):
        if used + (t - i) < need:
            return
        if i == t:
            yield PartialColoring(k, {verts[j]: colors[j] for j in range(t)})
            return
        taken = {colors[j] for j in inner_adj[i] if j < i}
        top = min(k, used + 1)
        for c in range(1, top + 1):
            if c in taken:
                continue
            colors[i] = c
            yield from rec(i + 1, max(used, c))
            colors[i] = 0

    yield from rec(0, 0)


@functools.cache
def _pairs_and_emaps(n: int):
    """The pairs (u, v), u < v, in lexicographic order, and for every vertex
    permutation but the identity the image bit of each pair's bit."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {p: i for i, p in enumerate(pairs)}
    emaps = []
    for perm in itertools.permutations(range(n)):
        emap = [0] * len(pairs)
        for (i, j), idx in index.items():
            a, b = perm[i], perm[j]
            emap[idx] = 1 << index[(a, b) if a < b else (b, a)]
        emaps.append(emap)
    return pairs, emaps[1:]


def brute_is_least(n: int, mask: int) -> bool:
    """Whether no vertex permutation maps edge mask `mask` (bit i is the i-th
    pair (u, v), u < v, in lexicographic order) to a smaller one, by trying
    all n! - 1 of them."""
    for emap in _pairs_and_emaps(n)[1]:
        mm = 0
        b = mask
        while b:
            low = b & (-b)
            b ^= low
            mm |= emap[low.bit_length() - 1]
            if mm >= mask:
                break
        else:
            if mm < mask:
                return False
    return True


def brute_connected_graphs(n: int):
    """Connected graphs on n vertices, one per isomorphism class, by brute force.

    Tests every edge mask against every vertex permutation (brute_is_least),
    and keeps a connected mask when it is minimal over all of them. Ascending
    mask order.
    """
    if n < 1:
        return
    if n == 1:
        yield build(1, [])
        return
    pairs = _pairs_and_emaps(n)[0]
    full_vertex_mask = (1 << n) - 1
    for mask in range(1, 1 << len(pairs)):
        if mask.bit_count() < n - 1:
            continue
        nbr = [0] * n
        rest = mask
        while rest:
            low = rest & (-rest)
            rest ^= low
            u, v = pairs[low.bit_length() - 1]
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            f = frontier
            while f:
                lb = f & (-f)
                f ^= lb
                nxt |= nbr[lb.bit_length() - 1]
            frontier = nxt & ~seen
            seen |= frontier
        if seen != full_vertex_mask or not brute_is_least(n, mask):
            continue
        edges = []
        rest = mask
        while rest:
            low = rest & (-rest)
            rest ^= low
            edges.append(pairs[low.bit_length() - 1])
        yield build(n, edges)


def brute_automorphisms(g: Graph) -> set[tuple[int, ...]]:
    """Aut(g) by trying all n! vertex permutations; gamma[v] is the image of v."""
    edges = set(g.edges)
    return {
        gamma
        for gamma in itertools.permutations(range(g.n))
        if all(
            ((gamma[u], gamma[v]) if gamma[u] < gamma[v] else (gamma[v], gamma[u])) in edges
            for u, v in g.edges
        )
    }


def random_connected_graph(rng, n: int, extra: float = 0.3) -> Graph:
    """Random spanning tree plus each remaining pair independently with prob extra."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u, v = order[rng.randrange(i)], order[i]
        edges.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra:
                edges.add((u, v))
    return build(n, sorted(edges))


def random_proper_partial(rng, g: Graph, k: int, coverage: float = 0.5) -> PartialColoring:
    """Greedy random proper partial coloring; vertices with no free color are skipped."""
    assignments = {}
    for v in range(g.n):
        if rng.random() >= coverage:
            continue
        banned = {assignments[u] for u in g.adj[v] if u in assignments}
        options = [c for c in range(1, k + 1) if c not in banned]
        if options:
            assignments[v] = rng.choice(options)
    return PartialColoring(k, assignments)


ROW = [[9 * r + c for c in range(9)] for r in range(9)]
COL = [[9 * r + c for r in range(9)] for c in range(9)]
BOX = [
    [9 * (3 * br + r) + 3 * bc + c for r in range(3) for c in range(3)]
    for br in range(3)
    for bc in range(3)
]


def brute_sudoku_solutions(cells: dict[int, int], limit: int = 2):
    """Independent 9x9 solver: backtracking over row/col/box bitmasks.

    Branches on a cell with the fewest legal digits (no other inference).
    Returns (count saturated at limit, first solution found or None).
    """
    row_used = [0] * 9
    col_used = [0] * 9
    box_used = [0] * 9
    grid = [0] * 81
    for cell, d in cells.items():
        r, c = divmod(cell, 9)
        b = 3 * (r // 3) + c // 3
        bit = 1 << d
        if (row_used[r] | col_used[c] | box_used[b]) & bit:
            return 0, None
        row_used[r] |= bit
        col_used[c] |= bit
        box_used[b] |= bit
        grid[cell] = d
    blanks = set(i for i in range(81) if grid[i] == 0)
    found = []

    def legal(cell: int) -> int:
        r, c = divmod(cell, 9)
        b = 3 * (r // 3) + c // 3
        return ~(row_used[r] | col_used[c] | box_used[b]) & 0b1111111110

    def rec() -> bool:
        if not blanks:
            found.append(grid[:])
            return len(found) >= limit
        cell = min(blanks, key=lambda i: bin(legal(i)).count("1"))
        r, c = divmod(cell, 9)
        b = 3 * (r // 3) + c // 3
        options = legal(cell)
        blanks.discard(cell)
        for d in range(1, 10):
            bit = 1 << d
            if not options & bit:
                continue
            row_used[r] |= bit
            col_used[c] |= bit
            box_used[b] |= bit
            grid[cell] = d
            if rec():
                return True
            row_used[r] ^= bit
            col_used[c] ^= bit
            box_used[b] ^= bit
            grid[cell] = 0
        blanks.add(cell)
        return False

    rec()
    first = "".join(map(str, found[0])) if found else None
    return len(found), first
