"""Exact chromatic number, greedy coloring and coloring counts from one search.

Every public function here, greedy_coloring included, configures `_search`,
a depth-first search over per-vertex color bitmasks (bit i-1 is color i)
that keeps its state on an explicit stack, so its depth is bounded by memory,
not by the recursion limit. It branches on the uncolored vertex with the
fewest free colors (ties: higher degree, then lower index), which is
Brélaz's DSATUR order (D. Brélaz, "New methods to color the vertices of a
graph", CACM 22(4), 1979). With `fresh` set, a vertex may take at most one
color above the highest in use, so colorings that differ only by renaming
colors are visited once: with nothing preset, exactly one per vertex
partition. Deterministic by construction.
"""

from __future__ import annotations

import time

from .coloring import ColorListState, PartialColoring
from .errors import BudgetExceededError
from .graph import Graph

DEFAULT_NODE_BUDGET = 50_000_000


class SearchExpired(Exception):
    """A search given a deadline found time.perf_counter() past it.

    Raised from inside a coloring, propagation or completion search, which is
    left unfinished: an extension engine must not be used again after it.
    """


def _fewest_colors(order, color: list[int], lists: list[int], enough: int) -> int:
    """The first uncolored vertex in order whose list (a color bitmask) is shortest.

    The scan stops at the first list of at most `enough` colors, a length
    the caller knows no uncolored list can undercut. Returns -1 when every
    vertex is colored. Both searches branch on it: `_search` over its degree
    order, the extension engine over range(n).
    """
    best, fewest = -1, 1 << 62
    for v in order:
        if not color[v]:
            f = lists[v].bit_count()
            if f < fewest:
                best, fewest = v, f
                if f <= enough:
                    break
    return best


def _search(
    g: Graph,
    lists: list[int],
    *,
    preset: dict[int, int] | None = None,
    cap: int | None = None,
    budget: int = DEFAULT_NODE_BUDGET,
    fresh: bool = False,
    deadline: float | None = None,
    what: str,
) -> tuple[int, list[int] | None]:
    """Count proper colorings with color[v] in lists[v], saturating at cap.

    Returns the count (cap None counts all) and the first coloring found,
    as a list indexed by vertex. Preset vertices keep their colors, which
    must be proper. Each branching vertex is one node; more than budget
    nodes raise BudgetExceededError naming `what`, and a node reached past
    the deadline (a time.perf_counter() value) raises SearchExpired.
    """
    adj = g.adj
    order = sorted(range(g.n), key=lambda v: -len(adj[v]))  # stable: ties by index
    color = [0] * g.n
    free = list(lists)
    preset = preset or {}
    top = 0
    for v, c in preset.items():
        color[v] = c
        top = max(top, c)
        for u in adj[v]:
            free[u] &= ~(1 << (c - 1))
    left = g.n - len(preset)
    journal: list[int] = []  # vertices whose free mask lost the color just assigned
    stack: list[list[int]] = []  # [vertex, untried colors, journal mark, top before]
    count = nodes = 0
    first = None
    while True:
        if left:
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(f"{what} exceeded {budget} nodes")
            if deadline is not None and time.perf_counter() >= deadline:
                raise SearchExpired
            best = _fewest_colors(order, color, free, 0)
            bits = free[best] & ((2 << top) - 1) if fresh else free[best]
            stack.append([best, bits, len(journal), top])
        else:
            count += 1
            if first is None:
                first = color[:]
            if count == cap:
                break
        # Undo the top frame's color and try its next one, popping spent frames.
        while stack:
            frame = stack[-1]
            v, bits, mark, top = frame
            if color[v]:
                bit = 1 << (color[v] - 1)
                for u in journal[mark:]:
                    free[u] |= bit
                del journal[mark:]
                color[v] = 0
                left += 1
            if not bits:
                stack.pop()
                continue
            bit = bits & -bits
            frame[1] = bits ^ bit
            color[v] = c = bit.bit_length()
            top = max(top, c)
            left -= 1
            for u in adj[v]:
                if free[u] & bit and not color[u]:
                    free[u] ^= bit
                    journal.append(u)
            break
        else:
            break
    return count, first


def _check_budget(budget: int) -> None:
    # A negative budget would fail at the first node, but only where a search runs.
    if budget < 0:
        raise ValueError(f"node budget must be >= 0, got {budget}")


def greedy_clique(g: Graph) -> list[int]:
    """A maximal clique grown greedily by degree (ties: lower index)."""
    if g.n == 0:
        return []
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    clique = [order[0]]
    for v in order[1:]:
        if all(v in g.adj[u] for u in clique):
            clique.append(v)
    return clique


def greedy_coloring(g: Graph, *, deadline: float | None = None) -> dict[int, int]:
    """DSATUR greedy: always color the most saturated uncolored vertex next.

    Ties go to higher degree, then lower index; each vertex takes its lowest
    free color. This is `_search` stopped at its first coloring: with Δ+1
    colors on every list no vertex runs out of colors, so it never backtracks
    and makes exactly one node per vertex.
    """
    width = max(map(len, g.adj), default=0) + 1
    _, first = _search(
        g, [(1 << width) - 1] * g.n, cap=1, budget=g.n, fresh=True, deadline=deadline,
        what="greedy coloring",
    )
    return dict(enumerate(first))


def find_k_coloring(
    g: Graph, k: int, *, budget: int = DEFAULT_NODE_BUDGET, deadline: float | None = None
) -> dict[int, int] | None:
    """A proper coloring with colors 1..k, or None when none exists."""
    _check_budget(budget)
    if g.n == 0:
        return {}
    if k < 1:
        return None
    clique = greedy_clique(g)
    if len(clique) > k:
        return None
    # The clique is preset to 1..len(clique), which also breaks color symmetry.
    preset = {v: i + 1 for i, v in enumerate(clique)}
    _, first = _search(
        g, [(1 << k) - 1] * g.n, preset=preset, cap=1, budget=budget, fresh=True,
        deadline=deadline, what="k-coloring search",
    )
    return None if first is None else dict(enumerate(first))


def chromatic_number(
    g: Graph, *, budget: int = DEFAULT_NODE_BUDGET, deadline: float | None = None
) -> tuple[int, PartialColoring]:
    """Exact chromatic number with a witness coloring.

    The node budget applies to each exact k-coloring search; the deadline
    (a time.perf_counter() value) to the greedy bound and those searches
    alike, which raise SearchExpired once it has passed.
    """
    _check_budget(budget)
    if g.n == 0:
        raise ValueError("chromatic number needs a nonempty graph")
    if g.m == 0:
        return 1, PartialColoring(1, {v: 1 for v in range(g.n)})
    greedy = greedy_coloring(g, deadline=deadline)
    ub = max(greedy.values())
    for k in range(max(len(greedy_clique(g)), 2), ub):
        witness = find_k_coloring(g, k, budget=budget, deadline=deadline)
        if witness is not None:
            return k, PartialColoring(k, witness)
    return ub, PartialColoring(ub, greedy)


def count_color_partitions(
    g: Graph, k: int, cap: int | None = None, *, budget: int = DEFAULT_NODE_BUDGET,
    deadline: float | None = None,
) -> int:
    """Number of proper colorings with <= k colors counted up to color permutation.

    cap None means count exactly. Counts the colorings whose colors appear
    in the search in the order 1, 2, 3, ...: one per vertex partition. Past
    the deadline (a time.perf_counter() value) it raises SearchExpired.
    """
    _check_budget(budget)
    if k < 0 or (cap is not None and cap < 1):
        raise ValueError("need k >= 0 and cap >= 1")
    lists = [(1 << k) - 1] * g.n
    return _search(g, lists, cap=cap, budget=budget, fresh=True, deadline=deadline,
                   what="partition count")[0]


def count_list_colorings(g: Graph, state: ColorListState, cap: int = 2) -> int:
    """Count proper colorings where every vertex takes a color from its list.

    Every vertex of g must carry a nonempty list. Saturates at cap. The
    search runs under DEFAULT_NODE_BUDGET.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    lists = state.lists
    missing = [v for v in range(g.n) if v not in lists]
    if missing:
        raise ValueError(f"vertices without lists: {missing}")
    masks = []
    for v in range(g.n):
        mask = 0
        for col in lists[v]:
            if col < 1:
                raise ValueError(f"vertex {v} lists invalid color {col}")
            mask |= 1 << (col - 1)
        if mask == 0:
            raise ValueError(f"vertex {v} has an empty list")
        masks.append(mask)
    return _search(g, masks, cap=cap, what="list coloring count")[0]
