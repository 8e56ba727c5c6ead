"""Exact Sudoku numbers: minimum support sizes for uniquely extendable colorings."""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from math import comb, isnan

from .chromatic import SearchExpired, chromatic_number, count_color_partitions
from .coloring import ExtensionKind, PartialColoring, is_proper
from .errors import BudgetExceededError, DisconnectedGraphError
from .extension import _Engine, _EngineGraph, count_extensions
from .graph import Graph, build, is_connected

PROVENANCE_EXACT = "exact-search"

PRUNE_PENDANT = "pendant"
PRUNE_UNCOLORED_EDGE = "uncolored-edge"

# Automorphism generators are computed once this many supports have been
# evaluated, so searches that end sooner never pay for them.
ORBIT_START = 16
# Most bytes that the generator image tables, and the marks of one support
# size, each take (see _Orbits).
ORBIT_BYTES = 1 << 24


@dataclass(frozen=True)
class Certificate:
    """A graph, a partial coloring claimed to extend uniquely, and its origin."""

    graph: Graph
    partial: PartialColoring
    claimed_sn: int
    provenance: str


@dataclass
class SearchReport:
    sn: int
    certificate: Certificate
    subsets_examined: int
    colorings_examined: int
    pruned_by: dict[str, int]
    elapsed_seconds: float


@dataclass
class VerificationResult:
    ok: bool
    checks: list[dict] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": ok, "detail": detail})
        if not ok:
            self.ok = False


def search_lower_bound(chi: int) -> int:
    """Smallest support size worth trying: 1 for bipartite, chi-1 otherwise."""
    return 1 if chi <= 2 else chi - 1


def _suffix_tables(g: Graph, k: int, lemmas: bool):
    """Per-vertex tables of the two prune lemmas, for deciding vertices in order.

    Returns (pendant, below, pendants_from, bound): pendant[v] marks degree-1
    vertices; below[v] lists the neighbors u < v joined to v by a low-degree
    edge (both ends of degree <= k-1); pendants_from[x] counts the pendants in
    [x, n); bound[x] is a lower bound on the picks any surviving support makes
    in [x, n): those pendants plus a greedy matching of the low-degree edges
    between non-pendants inside [x, n), whose covers avoid the pendants.
    With lemmas off the tables rule nothing out.
    """
    n = g.n
    if not lemmas:
        return [False] * n, [()] * n, [0] * (n + 1), [0] * (n + 1)
    limit = k - 1
    deg = [g.degree(v) for v in range(n)]
    low = [d <= limit for d in deg]
    pendant = [d == 1 for d in deg]
    below = [
        tuple(u for u in g.adj[v] if u < v and low[u]) if low[v] else () for v in range(n)
    ]
    pendants_from = [0] * (n + 1)
    bound = [0] * (n + 1)
    matched = bytearray(n)
    matching = 0
    for x in range(n - 1, -1, -1):
        pendants_from[x] = pendants_from[x + 1] + pendant[x]
        if low[x] and not pendant[x]:
            for y in g.adj[x]:
                if y > x and low[y] and not pendant[y] and not matched[y]:
                    matched[x] = matched[y] = 1
                    matching += 1
                    break
        bound[x] = pendants_from[x] + matching
    return pendant, below, pendants_from, bound


def _supports(n: int, size: int, tables):
    """Supports of one size in itertools.combinations order, lemma failures cut in blocks.

    Yields (support, 0, 0) for each support that survives the pendant and
    uncolored-edge lemmas, and (None, p, e) for each cut block of p + e > 0
    consecutive supports of which p fail the pendant lemma and e fail only the
    uncolored-edge lemma; prune_subset in tests/oracles.py is the reference
    that checks one support at a time. Vertices 0..n-1 are decided in order,
    include before exclude, on an explicit stack: the stack is the list of
    included vertices, each with its exclude branch pending.
    `tables` come from _suffix_tables for a graph on n vertices.
    """
    pendant, below, pendants_from, bound = tables

    def block(rest: int, r: int, p: int):
        # All choices of r of the rest undecided vertices, p of them pendants;
        # the decided prefix already includes every earlier pendant.
        total = comb(rest, r)
        kept = comb(rest - p, r - p) if r >= p else 0
        return None, total - kept, kept

    chosen: list[int] = []
    inc = bytearray(n)
    x, r = 0, size
    while True:
        # Descend from a prefix deciding 0..x-1 that no lemma rules out yet.
        while True:
            if r < bound[x]:
                yield block(n - x, r, pendants_from[x])
                break
            if r == 0:
                # The only completion excludes the rest. bound[x] == 0 leaves no
                # pendant and no low-degree edge inside [x, n), so it fails only
                # on a low-degree edge back to an excluded vertex.
                if any(not inc[u] for v in range(x, n) for u in below[v]):
                    yield None, 0, 1
                else:
                    yield tuple(chosen), 0, 0
                break
            chosen.append(x)
            inc[x] = 1
            x += 1
            r -= 1
        # Backtrack to the deepest include whose exclude branch can hold r picks.
        while chosen:
            v = chosen.pop()
            inc[v] = 0
            r = size - len(chosen)
            rest = n - v - 1
            if r > rest:
                continue
            if pendant[v]:
                yield None, comb(rest, r), 0
            elif any(not inc[u] for u in below[v]):
                yield block(rest, r, pendants_from[v + 1])
            else:
                x = v + 1
                break
        else:
            return


def _pattern(adj, verts) -> tuple[tuple[int, ...], ...]:
    """G[S] for sorted verts: per position i, the positions j < i of its neighbours."""
    position = {v: i for i, v in enumerate(verts)}
    return tuple(tuple(position[u] for u in adj[v] if u < v and u in position) for v in verts)


def _twin_classes(g: Graph) -> list[int]:
    """Bitmasks of the classes of two or more closed twins (N[u] == N[v])."""
    classes: dict[tuple[int, ...], int] = defaultdict(int)
    for v in range(g.n):
        classes[tuple(sorted(g.adj[v] + (v,)))] |= 1 << v
    return [c for c in classes.values() if c & (c - 1)]


def _loser_count(g: Graph, k: int, subset, memo: dict, deadline: float | None) -> int:
    """_evaluate_subset's count for a loser: partitions of G[S] into max(k-1, 1)..k sets."""
    pattern = _pattern(g.adj, subset)
    if pattern not in memo:
        sub = build(len(subset), [(j, i) for i, row in enumerate(pattern) for j in row])
        fewer = search_lower_bound(k) - 1
        high, low = (count_color_partitions(sub, c, deadline=deadline) for c in (k, fewer))
        memo[pattern] = high - low
    return memo[pattern]


def _evaluate_subset(eng: _Engine, subset):
    """Try the canonical colorings of one support, in canonical order.

    Canonical form: in ascending vertex order, each support vertex reuses a
    color already seen or opens the next fresh one, and for k >= 3 at least
    k-1 colors are used (a uniquely extendable coloring never uses fewer);
    canonical_colorings in tests/oracles.py is the reference enumeration.
    The walk keeps its own stack: position i of the sorted support takes its
    next canonical color, is placed on the shared engine and propagated, and
    the walk goes one position deeper. A prefix that propagation rules out
    (it dies, or it has already given the vertex another color or taken the
    color off its list) has no proper completion, so every coloring below it
    is counted as tried without engine work. A live leaf runs the completion
    search capped at 2. The engine is back at its empty root on return.

    Returns (colorings_tried, winning_assignments or None).
    """
    k = eng.eg.k
    verts = sorted(subset)
    t = len(verts)
    need = k - 1 if k >= 3 else 1
    earlier = _pattern(eng.adj, verts)
    color, lists = eng.color, eng.lists
    colors = [0] * t
    used = [0] * (t + 1)  # used[i]: highest color on positions < i
    marks = [0] * (t + 1)  # marks[i]: journal length with positions < i placed; -1 if dead
    root = marks[0] = len(eng.journal)
    tried = 0
    i = 0
    while i >= 0:
        if i == t:
            tried += 1
            if marks[t] >= 0 and eng.search(2) == 1:
                eng.rewind(root)
                return tried, {verts[j]: colors[j] for j in range(t)}
            i -= 1
            continue
        taken = 0
        for j in earlier[i]:
            taken |= 1 << colors[j]
        c = colors[i] + 1
        top = min(k, used[i] + 1)
        while c <= top and taken >> c & 1:
            c += 1
        if c > top:
            colors[i] = 0
            i -= 1
            continue
        colors[i] = c
        u = max(used[i], c)
        if u + (t - i - 1) < need:
            # No canonical coloring below: too few colors left.
            continue
        used[i + 1] = u
        mark = marks[i]
        if mark >= 0:
            eng.rewind(mark)
            v = verts[i]
            if color[v]:
                alive = color[v] == c
            else:
                alive = bool(lists[v] >> (c - 1) & 1) and eng.place(v, c)
            mark = len(eng.journal) if alive else -1
        marks[i + 1] = mark
        i += 1
    eng.rewind(root)
    return tried, None


def _check_seconds(max_seconds: float | None) -> None:
    # Every comparison with NaN is false, so a NaN budget would never run out.
    if max_seconds is not None and isnan(max_seconds):
        raise ValueError("max_seconds must be a number, got nan")


class _Budget:
    def __init__(self, max_subsets: int | None, max_seconds: float | None):
        if max_subsets is not None and max_subsets < 0:
            raise ValueError(f"max_subsets must be >= 0, got {max_subsets}")
        self.max_subsets = max_subsets
        self.max_seconds = max_seconds
        self.start = time.perf_counter()
        self.deadline = None if max_seconds is None else self.start + max_seconds

    def check(self, subsets_used: int, proven: int, count: int = 1) -> None:
        """Raise unless `count` more subsets fit after `subsets_used`."""
        if self.max_subsets is not None and subsets_used + count > self.max_subsets:
            raise BudgetExceededError(
                f"subset budget {self.max_subsets} exhausted; sn >= {proven}",
                lower_bound=proven,
            )
        if self.deadline is not None and time.perf_counter() >= self.deadline:
            raise self.expired(proven)

    def expired(self, proven: int) -> BudgetExceededError:
        return BudgetExceededError(
            f"time budget {self.max_seconds}s exhausted; sn >= {proven}",
            lower_bound=proven,
        )

    def elapsed(self) -> float:
        return time.perf_counter() - self.start


class _Orbits:
    """Supports of one size that are images of a losing support under Aut(G).

    counted[s], s a vertex bitmask, is the count of the loser s is an image
    of (s itself included). Generators come from canon.automorphism_generators
    once ORBIT_START supports have lost, and canon is imported only then, so
    short searches skip even loading it. Each becomes a table per byte of a
    support, from the byte to its image's bitmask. Both stay within
    ORBIT_BYTES: the generators past it, at about 4n(n + 256) bytes each, are
    dropped, and marking stops at `limit` marks, at about 88 + n/7.5 bytes
    each: a dict entry, its n-bit key and the key's frontier slot.
    """

    def __init__(self, g: Graph, deadline: float | None):
        self.g = g
        self.deadline = deadline
        self.tables: list[list[list[int]]] | None = None
        self.evaluated = 0
        self.counted: dict[int, int] = {}
        self.limit = int(ORBIT_BYTES / (88 + g.n / 7.5))

    def mark(self, support: int, tried: int) -> None:
        """Mark support's orbit, breadth first over the generators, up to `limit` marks."""
        self.evaluated += 1
        if self.tables is None:
            if self.evaluated < ORBIT_START:
                return
            from . import canon

            gens = canon.automorphism_generators(self.g, self.deadline)[0]
            self.tables = []
            for gamma in gens[: ORBIT_BYTES // (4 * self.g.n * (self.g.n + 256))]:
                self.tables.append(tables := [])
                for lo in range(0, len(gamma), 8):
                    tables.append(table := [0])
                    for w in gamma[lo : lo + 8]:
                        table += [x | 1 << w for x in table]
        counted, limit = self.counted, self.limit
        if not self.tables or len(counted) >= limit:
            return
        counted[support] = tried
        frontier = [support]
        for s in frontier:
            for tables in self.tables:
                image, rest = 0, s
                for table in tables:
                    image |= table[rest & 255]
                    rest >>= 8
                if image not in counted:
                    if len(counted) >= limit:
                        return
                    counted[image] = tried
                    frontier.append(image)


def sn_exact(
    g: Graph,
    *,
    prune: bool = True,
    max_subsets: int | None = None,
    max_seconds: float | None = None,
) -> SearchReport:
    """Exact Sudoku number by exhaustive search.

    Supports are tried in ascending size from the lower bound, each size in
    lexicographic subset order and each support in canonical coloring order,
    so the first success is a deterministic winner.
    With prune (and chi >= 3) the supports are generated with a look-ahead on
    the pendant and uncolored-edge lemmas, so the ones those lemmas rule out
    are never visited: they are cut in whole blocks, and each block is counted
    in subsets_examined and pruned_by as checking its supports one by one
    would count them. The subset budget applies to those counts.

    One extension engine serves the whole search. Each support's canonical
    colorings are walked vertex by vertex on it, propagating after every
    placement; a prefix whose propagation dies has no proper completion, so
    the colorings below it are skipped but still counted in
    colorings_examined, exactly as if each had been tried and found not
    extendable. Only live complete colorings run the completion search,
    capped at 2.

    A support that leaves two closed twins (N[u] == N[v]) uncolored loses
    under every coloring, as swapping their colors in a completion gives
    another. It is settled without the engine, not pruned: it adds to
    colorings_examined the count its evaluation would add (_loser_count).

    Supports in one orbit of Aut(G) are evaluated once. After a support
    loses, evaluated or settled, its orbit under automorphism generators is
    marked, and a marked support is counted in colorings_examined with its
    representative's count instead of being evaluated. The output stays the
    same:

    - Lemma survival and the count of a losing support (see _loser_count)
      are invariant under automorphisms, so a marked support survives and
      its count is its representative's.
    - An automorphism maps a winning support and its coloring to a winning
      support, so every image of a loser loses: a marked support is a loser
      that is not evaluated, and the count it adds is the one its
      evaluation would add.
    - The representative comes first in lex order, so it is evaluated before
      any image of it is reached. The lex-first winner S* is no image of an
      earlier loser, so it is evaluated and wins with the same coloring.
    - Every support and cut block is still walked and checked against the
      budgets, so subsets_examined, pruned_by and the budget stops do not
      change.

    The time budget starts before the chromatic number, which runs under its
    deadline, and is also checked inside each support's engine work or count,
    so neither a long chi search nor one long completion can overrun it.
    """
    _check_seconds(max_seconds)
    if g.n < 2:
        raise ValueError("Sudoku numbers need at least 2 vertices (chi >= 2)")
    budget = _Budget(max_subsets, max_seconds)
    if not is_connected(g):
        raise DisconnectedGraphError("Sudoku numbers are defined for connected graphs")
    try:
        k, _ = chromatic_number(g, deadline=budget.deadline)
    except SearchExpired:
        # Every connected graph on >= 2 vertices needs a nonempty support.
        raise budget.expired(1) from None
    tables = _suffix_tables(g, k, prune and k >= 3)
    subsets_examined = 0
    colorings_examined = 0
    pruned_by = {PRUNE_PENDANT: 0, PRUNE_UNCOLORED_EDGE: 0}
    eng = _Engine(_EngineGraph(g, k), deadline=budget.deadline)
    orbits = _Orbits(g, budget.deadline)
    twins = _twin_classes(g)
    settled: dict = {}  # the memo of _loser_count
    try:
        for size in range(search_lower_bound(k), g.n):
            orbits.counted.clear()
            for subset, pendant_cut, edge_cut in _supports(g.n, size, tables):
                if subset is None:
                    cut = pendant_cut + edge_cut
                    budget.check(subsets_examined, size, cut)
                    subsets_examined += cut
                    pruned_by[PRUNE_PENDANT] += pendant_cut
                    pruned_by[PRUNE_UNCOLORED_EDGE] += edge_cut
                    continue
                budget.check(subsets_examined, size)
                subsets_examined += 1
                bits = sum(1 << v for v in subset)
                if bits in orbits.counted:
                    colorings_examined += orbits.counted[bits]
                    continue
                if any((c & ~bits).bit_count() > 1 for c in twins):
                    tried, win = _loser_count(g, k, subset, settled, budget.deadline), None
                else:
                    tried, win = _evaluate_subset(eng, subset)
                colorings_examined += tried
                if win is not None:
                    cert = Certificate(g, PartialColoring(k, win), size, PROVENANCE_EXACT)
                    counts = subsets_examined, colorings_examined, dict(pruned_by)
                    return SearchReport(size, cert, *counts, budget.elapsed())
                orbits.mark(bits, tried)
    except SearchExpired:
        raise budget.expired(size) from None
    raise AssertionError("unreachable: sn(G) <= n - 1 for every connected graph")


def verify_certificate(cert: Certificate, *, exact: bool = False) -> VerificationResult:
    """Re-check everything a certificate claims.

    Always: connectivity, support size, properness, unique extension, and the
    color-count observation (a unique extension forces >= k-1 support colors).
    With exact=True, re-run the full search and confirm minimality.
    """
    g = cert.graph
    c = cert.partial
    result = VerificationResult(ok=True)
    result.add("connected", is_connected(g) and g.n >= 2, f"n={g.n}")
    result.add(
        "support-size",
        len(c.assignments) == cert.claimed_sn,
        f"|S|={len(c.assignments)}, claimed {cert.claimed_sn}",
    )
    proper = is_proper(g, c)
    result.add("proper", proper, "no monochromatic edge" if proper else "conflict found")
    if proper:
        outcome = count_extensions(g, c, 2)
        result.add(
            "unique-extension",
            outcome.kind is ExtensionKind.UNIQUE,
            f"kind={outcome.kind.value}",
        )
        if outcome.kind is ExtensionKind.UNIQUE and len(c.assignments) < g.n:
            used = len(c.colors_used)
            result.add(
                "color-count",
                used >= c.k - 1,
                f"{used} colors on the support, k={c.k}",
            )
    if exact and result.ok:
        report = sn_exact(g)
        result.add(
            "minimal",
            report.sn == cert.claimed_sn,
            f"search found sn={report.sn}, claimed {cert.claimed_sn}",
        )
    return result


@dataclass
class ScanReport:
    max_n: int
    classes_scanned: dict[int, int]
    extremal: list[dict]
    counterexamples: list[dict]


def _is_least(nbr: list[int]) -> bool:
    """True when the mask with neighbour bitsets nbr is canonical (see below)."""
    n = len(nbr)
    image = [0] * n  # image[j] is pi(j)

    def place(i: int, free: int) -> bool:
        cand = free
        for j in range(n - 1, i, -1):
            w = nbr[image[j]]
            if nbr[i] >> j & 1:
                if cand & ~w:
                    return False
                cand &= w
            else:
                cand &= ~w
        while cand:
            low = cand & -cand
            cand ^= low
            image[i] = low.bit_length() - 1
            if i and not place(i - 1, free ^ low):
                return False
        return True

    return place(n - 1, (1 << n) - 1)


def connected_graphs_up_to_iso(n: int):
    """All connected graphs on exactly n vertices, one per isomorphism class.

    Bit i of an edge mask stands for the i-th pair (u, v), u < v, in
    lexicographic order. Each class is yielded once, labeled by its canonical
    mask: the least over all vertex permutations. Masks come in ascending
    order, lazily.

    Orderly generation (R. C. Read, "Every one a winner", Ann. Discrete
    Math. 2, 1978) visits only canonical masks, by this parent rule: if M is
    canonical and M != K_n, then M | z is canonical, z the lowest unset bit
    of M. So the canonical masks form a tree under K_n, and the children of
    P are the canonical masks P - 2**b for b in P's run of trailing ones.
    Proof: in complements the canonical masks are the maximal ones, and the
    rule reads "clearing the lowest set bit e of a maximal mask C keeps it
    maximal". Suppose sigma(C') > C' for C' = C - 2**e, first differing
    (from the top) at bit d. If d > e, then sigma(C) > C: above d they
    differ at most at bit sigma(e), which only sigma(C) has, and otherwise
    only sigma(C) has bit d. If d <= e, then sigma(C') holds all of C'
    (which has no bit at or below e) plus bit d, one bit more than C'.
    Both are contradictions.

    Whether M is canonical is decided row by row. Relabelled by pi, pair
    (i, j) of the new mask is pair (pi(i), pi(j)) of M. From the top, a mask
    reads row n-2, row n-3, ..., row 0, row i being the pairs (i, j), j > i,
    from j = n-1 down; it depends only on pi(i..n-1). So pi(n-1), pi(n-2),
    ..., pi(0) are picked in turn, the rows above i equal to M's. A free
    vertex whose row (its edges to pi(n-1), ..., pi(i+1)) first differs from
    M's row i by a missing edge makes the new mask smaller whatever follows,
    so M is not canonical; one that first differs by an extra edge makes it
    larger and is cut; the rest, where the bitsets nbr[pi(j)] or their
    complements meet, are branched on. So M is canonical exactly when the
    branches run out: the verdict of comparing all n! relabellings.

    The tree is walked in post-order on an explicit stack, children by
    descending b: a node is the largest mask of its subtree and a larger b
    gives smaller masks, so masks come out ascending. A child that is not
    canonical has no canonical descendant, and one that is disconnected has
    no connected descendant (each is a spanning subgraph of it), so either
    is dropped with its subtree; connectivity is tested first (cheaper).
    """
    if n < 1:
        return
    if n == 1:
        yield build(1, [])
        return
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    full_vertex_mask = (1 << n) - 1

    def connected(nbr: list[int]) -> bool:
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
        return seen == full_vertex_mask

    # Frames are [mask, untried, nbr]: bits 0..untried-1 of mask's trailing
    # ones are still to be cleared, the highest first; nbr holds neighbour bitsets.
    stack = [[(1 << len(pairs)) - 1, len(pairs), [full_vertex_mask ^ 1 << v for v in range(n)]]]
    while stack:
        frame = stack[-1]
        mask, b, nbr = frame
        if b == 0:
            stack.pop()
            yield build(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            continue
        b -= 1
        frame[1] = b
        child = mask ^ (1 << b)
        if child.bit_count() < n - 1:
            continue
        u, v = pairs[b]
        child_nbr = nbr.copy()
        child_nbr[u] ^= 1 << v
        child_nbr[v] ^= 1 << u
        if connected(child_nbr) and _is_least(child_nbr):
            stack.append([child, b, child_nbr])


def conjecture_scan(max_n: int, *, max_seconds: float | None = None) -> ScanReport:
    """Compute sn for every connected graph class up to max_n vertices.

    Reports the classes hitting the extreme value n-1 and flags any that are
    not complete. Single-vertex graphs fall outside the definition (chi = 1)
    and are skipped; K_2 is reported but marked degenerate (chi < 3).
    """
    if not (2 <= max_n <= 7):
        raise ValueError(f"scan supports 2 <= max_n <= 7, got {max_n}")
    _check_seconds(max_seconds)
    start = time.perf_counter()
    classes_scanned: dict[int, int] = {}
    extremal: list[dict] = []
    for n in range(2, max_n + 1):
        count = 0
        for g in connected_graphs_up_to_iso(n):
            if max_seconds is not None and time.perf_counter() - start >= max_seconds:
                raise BudgetExceededError(
                    f"time budget {max_seconds}s exhausted during scan at n={n}"
                )
            count += 1
            report = sn_exact(g)
            if report.sn == n - 1:
                chi = report.certificate.partial.k
                complete = g.m == n * (n - 1) // 2
                extremal.append(
                    {
                        "n": n,
                        "edges": [list(e) for e in g.edges],
                        "sn": report.sn,
                        "complete": complete,
                        "degenerate": chi < 3,
                    }
                )
        classes_scanned[n] = count
    counterexamples = [row for row in extremal if not row["complete"]]
    return ScanReport(
        max_n=max_n,
        classes_scanned=classes_scanned,
        extremal=extremal,
        counterexamples=counterexamples,
    )
