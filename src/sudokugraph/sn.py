"""Exact Sudoku numbers: minimum support sizes for uniquely extendable colorings."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .chromatic import _search, chromatic_number, find_k_coloring
from .coloring import ExtensionKind, PartialColoring, is_proper
from .errors import BudgetExceededError, Clock, DisconnectedGraphError
from .extension import _count, _Engine, _EngineGraph
from .graph import Graph, bipartition, is_connected, twin_classes

PROVENANCE_EXACT = "exact-search"

PRUNE_PENDANT = "pendant"
PRUNE_UNCOLORED_EDGE = "uncolored-edge"

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

    Returns (pendant, below, pendants_from, bound, free): pendant[v] marks
    degree-1 vertices; below[v] lists the neighbors u < v joined to v by a
    low-degree edge (both ends of degree <= k-1); pendants_from[x] counts the
    pendants in [x, n); bound[x] is a lower bound on the picks any surviving
    support makes in [x, n); free is the least x with no pendant and no
    low-degree edge ending in [x, n), from where no choice can fail a lemma.
    With lemmas off, or when every degree is at least k, the tables rule
    nothing out.

    A surviving support holds every pendant and covers every low-degree
    edge, so its picks in [x, n) are those pendants plus a vertex cover of
    the low-degree edges between non-pendants inside [x, n), which avoids
    the pendants. The components of those edges, kept by union-find as x
    falls, need disjoint covers, so their bounds add. A component with V
    vertices, E edges and largest inside degree D needs as many cover
    vertices as the largest of three bounds: a greedy matching's size, as
    no vertex covers two of its edges; ceil(E / D), as no vertex covers
    more than D edges; and V - 1 when it is complete. For k = 3 every
    component is a path or a cycle, where ceil(E / D) is the minimum
    cover, so bound[x] is exact there.
    """
    n = g.n
    if not lemmas:
        return [False] * n, [()] * n, [0] * (n + 1), [0] * (n + 1), 0
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
    inner = [0] * n  # degree in the low-degree edges between non-pendants in [x, n)
    # Per component, at its root (its least vertex): vertices, edges, largest
    # inner degree, greedy matching and the cover bound it adds to `cover`.
    root = list(range(n))
    verts, edges, top, pairs, part = [1] * n, [0] * n, [0] * n, [0] * n, [0] * n
    cover = 0
    for x in range(n - 1, -1, -1):
        pendants_from[x] = pendants_from[x + 1] + pendant[x]
        if low[x] and not pendant[x]:
            for y in g.adj[x]:
                if y > x and low[y] and not pendant[y]:
                    inner[x] += 1
                    inner[y] += 1
                    r = y
                    while root[r] != r:
                        root[r] = r = root[root[r]]
                    if r != x:  # merge y's component into x's
                        root[r] = x
                        cover -= part[r]
                        verts[x] += verts[r]
                        edges[x] += edges[r]
                        pairs[x] += pairs[r]
                        top[x] = max(top[x], top[r])
                    edges[x] += 1
                    top[x] = max(top[x], inner[x], inner[y])
                    if not matched[x] and not matched[y]:
                        matched[x] = matched[y] = 1
                        pairs[x] += 1
            if edges[x]:
                e, v = edges[x], verts[x]
                part[x] = max(pairs[x], -(-e // top[x]), v - 1 if 2 * e == v * (v - 1) else 0)
                cover += part[x]
        bound[x] = pendants_from[x] + cover
    free = n
    while free and not pendant[free - 1] and not below[free - 1]:
        free -= 1
    return pendant, below, pendants_from, bound, free


def _supports(n: int, size: int, tables):
    """Supports of one size in itertools.combinations order, lemma failures cut in blocks.

    Yields (support, 0, 0) for each support that survives the pendant and
    uncolored-edge lemmas, and (None, p, e) for each cut block of p + e > 0
    consecutive supports of which p fail the pendant lemma and e fail only the
    uncolored-edge lemma; prune_subset in tests/oracles.py is the reference
    that checks one support at a time. Vertices 0..n-1 are decided in order,
    include before exclude, on an explicit stack: the stack is the list of
    included vertices, each with its exclude branch pending. A prefix with
    fewer picks left than the table's `bound` (the pendants plus a cover
    bound of the low-degree edges) is one cut block, and so is a whole size
    below bound[0]. From the table's `free` vertex on no choice can fail a
    lemma, so the rest of a prefix's supports come straight from
    itertools.combinations, in the same order; with lemmas off, or with
    every degree at least k, that is every support.
    `tables` come from _suffix_tables for a graph on n vertices.
    """
    pendant, below, pendants_from, bound, free = tables

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
            if x >= free:
                head = tuple(chosen)
                for tail in combinations(range(x, n), r):
                    yield head + tail, 0, 0
                break
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


def _twin_swaps(twins, inside: int) -> list[tuple[int, int]]:
    """(b, a), sorted, for the positions a < b of consecutive twins in the support.

    inside is the support's vertex bitmask; positions count its vertices in
    ascending order. twins lists bitmasks of twin classes. A skip is sound
    for any set of automorphisms, so t twins give t - 1 swaps, not all
    t(t - 1)/2. Closed twins are colored apart, and on such prefixes the
    consecutive swaps skip exactly what all pairs would.
    """
    swaps = []
    for cls in twins:
        both = cls & inside
        if both & (both - 1):
            at = []
            while both:
                low = both & -both
                at.append((inside & (low - 1)).bit_count())
                both ^= low
            swaps += [(b, a) for a, b in zip(at, at[1:])]
    swaps.sort()
    return swaps


def _twin_image_is_smaller(colors, used, swaps, i: int) -> bool:
    """True when a twin swap maps the prefix colors[:i+1] to a lexicographically smaller one.

    For each (b, a) of swaps with b <= i the prefix is read with positions a
    and b exchanged and its colors renamed by first use, as a canonical
    coloring is. Both prefixes agree before a, where colors 1..u are all in
    use, u = used[a], so only colors above u are renamed. With ca =
    colors[a] != cb = colors[b], the verdict has three cases:

    - cb <= u: position a reads cb against ca, so the image is smaller
      exactly when cb < ca.
    - cb > u >= ca: position a reads the fresh name u + 1 against ca: larger.
    - Otherwise ca = u + 1 is first used at a, and the image reads u + 1 =
      ca there too, having renamed cb to ca. Past a, until a position j != b
      holding ca or cb, the images of the other colors keep their names, and
      b, cb's first use then, reads ca under the next fresh name, which is
      cb. The first such j decides: ca reads a name above ca (larger), cb
      reads ca (smaller). So the image is smaller exactly when cb is at a
      position j <= i, j != b, before ca's second use (or ca has none).

    A table of each color's first two positions in colors[:i+1], built once
    per call, makes each verdict O(1), and a class of t twins has t - 1
    swaps (see _twin_swaps).
    """
    end = i + 1  # no position: past the prefix
    first = [end] * (end + 1)  # a canonical prefix uses colors 1..i+1 at most
    second = [end] * (end + 1)
    for j in range(i, -1, -1):
        c = colors[j]
        second[c] = first[c]
        first[c] = j
    for b, a in swaps:
        if b > i:
            break
        ca, cb = colors[a], colors[b]
        if ca == cb:
            continue  # the swap leaves the prefix as it is
        u = used[a]
        if cb <= u:
            if cb < ca:
                return True
        elif ca > u:
            j = first[cb] if first[cb] != b else second[cb]
            if j < second[ca]:
                return True
    return False


def _colorings_below(pattern, k: int, clock: Clock | None):
    """The counter below(i, u, colors) of the canonical colorings of a support's tail.

    pattern is _pattern of a support S on a graph with chromatic number k.
    below(i, u, colors) counts the ways to color positions i..t-1 of G[S]
    by _evaluate_subset's canonical rules, given colors[j] for the positions
    j < i and u, the highest color among them: a position reuses one of
    1..u that no earlier neighbour has or opens u+1, never above k, and a
    coloring ends with at least need colors. The count depends only on i,
    u and the colors of the frontier, the positions before i with a
    neighbour at i or later, so it is memoized on those (the frontier
    method: K. Sekine, H. Imai and S. Tani, "Computing the Tutte
    polynomial of a graph of moderate size", ISAAC 1995). States are
    evaluated depth first on an explicit stack, so a support of any size
    stays within the recursion limit, and the clock is checked at each
    memo miss.
    """
    t = len(pattern)
    need = search_lower_bound(k)
    last = list(range(t))  # last[j]: the highest position adjacent to j, or j
    for i, row in enumerate(pattern):
        for j in row:
            last[j] = i
    # frontier[i] as a tuple of positions; taken[i] indexes i's earlier
    # neighbours in frontier[i], keep[i] frontier[i+1] in frontier[i] + (i,).
    frontier, taken, keep = [()], [], []
    for i, row in enumerate(pattern):
        at = {j: x for x, j in enumerate(frontier[i] + (i,))}
        frontier.append(tuple(j for j in at if last[j] > i))
        taken.append(tuple(at[j] for j in row))
        keep.append(tuple(at[j] for j in frontier[i + 1]))
    memo: dict[tuple, int] = {}
    check = clock.check if clock is not None else lambda: None

    def below(i: int, u: int, colors) -> int:
        if i == t:
            return int(u >= need)
        root = (i, u, tuple(colors[j] for j in frontier[i]))
        if root in memo:
            return memo[root]
        check()
        stack = [[root, 0, 0]]  # [state, last color tried, count so far]
        while True:
            frame = stack[-1]
            state, c, total = frame
            i, u, cols = state
            mask = 0
            for x in taken[i]:
                mask |= 1 << cols[x]
            top = min(k, u + 1)
            miss = None
            while c < top:
                c += 1
                if mask >> c & 1:
                    continue
                high = max(u, c)
                if high + (t - i - 1) < need:
                    continue
                if i + 1 == t:
                    total += 1
                    continue
                ext = cols + (c,)
                child = (i + 1, high, tuple([ext[x] for x in keep[i]]))
                got = memo.get(child)
                if got is None:
                    miss = child
                    break
                total += got
            if miss is not None:
                frame[1], frame[2] = c, total
                check()
                stack.append([miss, 0, 0])
                continue
            memo[state] = total
            stack.pop()
            if not stack:
                return total
            stack[-1][2] += total

    return below


def _loser_count(g: Graph, k: int, subset, memo: dict, clock: Clock | None) -> int:
    """_evaluate_subset's count for a loser: every canonical coloring of the support."""
    pattern = _pattern(g.adj, subset)
    if pattern not in memo:
        memo[pattern] = _colorings_below(pattern, k, clock)(0, 0, ())
    return memo[pattern]


def _evaluate_subset(eng: _Engine, subset, counters: dict, twins=()):
    """Try the canonical colorings of one support, in canonical order.

    Canonical form: in ascending vertex order, each support vertex reuses a
    color already seen or opens the next fresh one, and for k >= 3 at least
    k-1 colors are used (a uniquely extendable coloring never uses fewer);
    canonical_colorings in tests/oracles.py is the reference enumeration.
    The walk keeps its own stack: position i of the sorted support takes its
    next canonical color, is placed on the shared engine and propagated, and
    the walk goes one position deeper. A prefix that propagation rules out
    (it dies, or it has already given the vertex another color or taken the
    color off its list) has no proper completion: the walk does not descend
    but counts the colorings below it as tried, with the counter of
    _colorings_below, and tries the next color at the same position. A live
    leaf runs the completion search capped at 2, and only its count is
    read, so the engine's tables may be count-only (sn_exact's are). The
    engine is back at its empty root on return.

    A live prefix is skipped the same way, with no completion search below
    it, when an uncolored vertex w outside S has every neighbour colored.
    No unique extension lies below it, as outside S the unique extension is
    color-dominating (Section 2 of the paper). At a propagated fixpoint an
    uncolored vertex has two or more colors on its list, as a single one
    would have been placed, and its list loses a color only when a
    neighbour takes it: lists[w] is exactly the colors missing from w's
    colored neighbours. No later placement or deduction recolors N(w), so
    every completion below can move w between two of them. Such a w
    neighbours a vertex colored since the prefix's parent (else it would
    have cut the parent), so the walk looks only at the neighbours of the
    vertices colored since then. A w in a k-clique has at most one color
    left once its neighbours are colored, so once the engine's clique table
    is built (_EngineGraph.cliques_at) only the neighbours in no listed
    k-clique are looked at, and none on a graph whose every vertex lies in
    one. The engine makes the placement, the propagation and this check in
    one call (_Engine.place), and counts the cut in eng.walk_cuts. The cut
    changes neither the count returned nor the winner.

    twins lists bitmasks of twin classes (graph.twin_classes). Swapping two
    twins u and v of S is an automorphism that maps S to itself, so it maps
    each canonical coloring of S, renamed by first use, to another, and one
    of them extends uniquely exactly when the other does. A prefix in which
    both are placed and whose swapped, renamed image is lexicographically
    smaller (_twin_image_is_smaller) is skipped before it is placed, and
    counted like a dead one: every leaf below it has an earlier image, which
    the walk has already tried and found losing. Only consecutive members of
    a class are swapped (_twin_swaps). The lex-first winner is the image of
    no smaller coloring, so it is never skipped, and the count returned and
    the winner are those of the walk without the skip. A support with no
    twin pair pays nothing for it.

    Each skip checks the engine's deadline and raises the clock's error
    once it has passed, as a walk that runs no search reads no clock
    otherwise. counters maps a support's _pattern to its counter, built at
    the support's first skip and shared by every support with the same
    pattern.

    Returns (colorings_tried, winning_assignments or None).
    """
    k = eng.eg.k
    verts = sorted(subset)
    t = len(verts)
    need = search_lower_bound(k)
    earlier = _pattern(eng.adj, verts)
    inside = sum(map((1).__lshift__, verts))
    swaps = _twin_swaps(twins, inside)
    deadline = eng.deadline
    below = None
    colors = [0] * t
    used = [0] * (t + 1)  # used[i]: highest color on positions < i
    marks = [0] * (t + 1)  # marks[i]: journal length with positions < i placed
    root = marks[0] = len(eng.journal)
    tried = 0
    i = 0
    while i >= 0:
        if i == t:
            tried += 1
            if eng.search(2) == 1:
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
        if swaps and _twin_image_is_smaller(colors, used, swaps, i):
            alive = False
        else:
            eng.rewind(marks[i])
            alive = eng.place(verts[i], c, inside)
        if alive:
            used[i + 1] = u
            marks[i + 1] = len(eng.journal)
            i += 1
            continue
        if deadline is not None and Clock.now() >= deadline:
            eng.clock.expire()
        if below is None:
            below = counters.get(earlier)
            if below is None:
                below = counters[earlier] = _colorings_below(earlier, k, eng.clock)
        tried += below(i + 1, u, colors)
    eng.rewind(root)
    return tried, None


class _Orbits:
    """Supports of one size that are images of a losing support under Aut(G).

    counted[s], s a vertex bitmask, is the count of the loser s is an image
    of (s itself included). The first mark, at a search's first losing
    support, takes the generators from canon.automorphism_generators, and
    canon is imported only then, so a search whose first support wins never
    loads it. Each generator becomes a table per byte of a support, from the
    byte to its image's bitmask. Both stay within ORBIT_BYTES: the generator
    search stops once it holds as many as fit, at about 4n(n + 256) bytes
    each (and none is searched for when not one fits, from n = 1,924 at the
    default bound), and marking stops at `limit` marks, at about 88 + n/7.5
    bytes each: a dict entry, its n-bit key and the key's frontier slot.
    """

    def __init__(self, g: Graph, clock: Clock | None):
        self.g = g
        self.clock = clock
        self.tables: list[list[list[int]]] | None = None
        self.counted: dict[int, int] = {}
        self.limit = int(ORBIT_BYTES / (88 + g.n / 7.5))

    def mark(self, support: int, tried: int) -> None:
        """Mark support's orbit, breadth first over the generators, up to `limit` marks."""
        if self.tables is None:
            self.tables = []
            fit, gens = ORBIT_BYTES // (4 * self.g.n * (self.g.n + 256)), []
            if fit:
                from . import canon

                gens = canon.automorphism_generators(self.g, self.clock, fit)[0]
            for gamma in gens:
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
    clock: Clock | None = None,
) -> SearchReport:
    """Exact Sudoku number by exhaustive search.

    Supports are tried in ascending size from the lower bound, each size in
    lexicographic subset order and each support in canonical coloring order,
    so the first success is a deterministic winner.
    With prune (and chi >= 3) the supports are generated with a look-ahead on
    the pendant and uncolored-edge lemmas, so the ones those lemmas rule out
    are never visited: they are cut in whole blocks, and each block is counted
    in subsets_examined and pruned_by as checking its supports one by one
    would count them. A size too small to hold every pendant and a vertex
    cover of the low-degree edges, bounded per component (see
    _suffix_tables), is a single block. The subset budget applies to those
    counts. Where no lemma can fire any more, and everywhere on a graph
    whose degrees are all at least chi or without prune, the supports come
    straight from itertools.combinations (see _supports).

    One extension engine serves the whole search. Each support's canonical
    colorings are walked vertex by vertex on it, propagating after every
    placement; a prefix whose propagation dies has no proper completion, so
    the colorings below it are skipped but still counted in
    colorings_examined, exactly as if each had been tried and found not
    extendable. So are the colorings below a prefix that leaves a vertex
    outside the support, all of whose neighbours are colored, free to take
    two colors: none of them extends uniquely (see _evaluate_subset). So
    are the colorings below a prefix that a swap of two twins in the
    support maps to an earlier prefix, as each has an earlier image that
    lost. The skipped colorings are counted, not stepped through, by a
    frontier dynamic program over the support's induced pattern
    (_colorings_below), one per pattern of the current support size. Only
    the remaining complete colorings run the completion search, capped at
    2. Only whether that count is 1 is read, so the search runs on
    count-only tables: no attractive rule, and hidden singles kept from a
    search's first dead end on, while propagate and count_extensions,
    whose traces are output, keep the attractive rule and only probe.

    A support that leaves two closed twins (N[u] == N[v]) uncolored loses
    under every coloring, as swapping their colors in a completion gives
    another. It is settled without the engine, not pruned: it adds to
    colorings_examined the count its evaluation would add, every canonical
    coloring of the support (_loser_count), kept as one int per pattern.

    Supports in one orbit of Aut(G) are evaluated once. After a support
    loses, evaluated or settled, its orbit under automorphism generators,
    found at the search's first loss (see _Orbits), is marked, and a marked
    support is counted in colorings_examined with its representative's
    count instead of being evaluated. The output stays the same:

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

    One clock holds the time budget. It starts before the chromatic number
    and is checked inside it, at every support and cut block, inside each
    support's engine work, at each skip of a walk and at each new state of
    a counter, so neither a long chi search, nor one long completion, nor
    a long walk of skipped prefixes can overrun it. The subset budget
    is checked at the supports and cut blocks, before the time. Either stop
    reports sn >= the current support size (1 during chi, as every
    connected graph on >= 2 vertices needs a nonempty support) as its
    lower_bound. A caller that shares one budget among several searches
    passes its clock instead of max_seconds; elapsed_seconds still counts
    from this call.
    """
    start = Clock.now()
    if clock is None:
        clock = Clock(max_seconds)
    elif max_seconds is not None:
        raise ValueError("pass max_seconds or clock, not both")
    if g.n < 2:
        raise ValueError("Sudoku numbers need at least 2 vertices (chi >= 2)")
    if max_subsets is not None and max_subsets < 0:
        raise ValueError(f"max_subsets must be >= 0, got {max_subsets}")
    if not is_connected(g):
        raise DisconnectedGraphError("Sudoku numbers are defined for connected graphs")
    clock.proven, clock.lower_bound = "; sn >= 1", 1
    k, _ = chromatic_number(g, clock=clock)
    tables = _suffix_tables(g, k, prune and k >= 3)
    subsets_examined = 0
    colorings_examined = 0
    pruned_by = {PRUNE_PENDANT: 0, PRUNE_UNCOLORED_EDGE: 0}
    eng = _Engine(_EngineGraph(g, k, traced=False), clock=clock)
    orbits = _Orbits(g, clock)
    closed, opened = twin_classes(g)
    twins = closed + opened
    settled: dict = {}  # the memo of _loser_count
    counters: dict = {}  # _evaluate_subset's counters, per pattern of the current size
    deadline = clock.deadline
    for size in range(search_lower_bound(k), g.n):
        clock.proven, clock.lower_bound = f"; sn >= {size}", size
        orbits.counted.clear()
        counters.clear()
        for subset, pendant_cut, edge_cut in _supports(g.n, size, tables):
            spent = subsets_examined + (1 if subset is not None else pendant_cut + edge_cut)
            if max_subsets is not None and spent > max_subsets:
                raise BudgetExceededError(
                    f"subset budget {max_subsets} exhausted{clock.proven}", lower_bound=size
                )
            if deadline is not None and Clock.now() >= deadline:
                clock.expire()
            subsets_examined = spent
            if subset is None:
                pruned_by[PRUNE_PENDANT] += pendant_cut
                pruned_by[PRUNE_UNCOLORED_EDGE] += edge_cut
                continue
            bits = sum(map((1).__lshift__, subset))
            if bits in orbits.counted:
                colorings_examined += orbits.counted[bits]
                continue
            if any((c & ~bits).bit_count() > 1 for c in closed):
                tried, win = _loser_count(g, k, subset, settled, clock), None
            else:
                tried, win = _evaluate_subset(eng, subset, counters, twins)
            colorings_examined += tried
            if win is not None:
                cert = Certificate(g, PartialColoring(k, win), size, PROVENANCE_EXACT)
                counts = subsets_examined, colorings_examined, dict(pruned_by)
                return SearchReport(size, cert, *counts, Clock.now() - start)
            orbits.mark(bits, tried)
    raise AssertionError("unreachable: sn(G) <= n - 1 for every connected graph")


def verify_certificate(
    cert: Certificate, *, exact: bool = False, clock: Clock | None = None
) -> VerificationResult:
    """Re-check everything a certificate claims.

    Always: connectivity, support size, properness, unique extension, and the
    color-count observation (a unique extension forces >= k-1 support colors).
    Only the kind of the completion count is read, so it runs on count-only
    tables (see _EngineGraph). With exact=True, re-run the full search and
    confirm minimality. Given a clock, the completion count and the search
    run under its budget and raise its BudgetExceededError once the
    deadline has passed.
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
        outcome = _count(_EngineGraph(g, c.k, traced=False), c, 2, clock)
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
        report = sn_exact(g, clock=clock)
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


def _is_least(nbr: list[int]) -> list[tuple[int, ...]] | None:
    """Generators of Aut(M) when the mask M with neighbour bitsets nbr is canonical, else None.

    The search is described in connected_graphs_up_to_iso. Once a candidate
    x has been tried for pi(i), every free candidate y with N(x) - y =
    N(y) - x is skipped: the transposition (x y) is then an automorphism of
    the mask's graph that fixes every placed vertex, so y's subtree yields
    the same relabelled masks as x's.

    Each automorphism gamma is a tuple, gamma[v] the image of v. The list
    holds every leaf's relabelling pi, which is one: each row of the
    relabelled mask equals M's, so pair (i, j) is an edge of M exactly when
    (pi(i), pi(j)) is. It also holds, once each, the transpositions (x y)
    of the twins skipped. Together they generate Aut(M). Without the skip the leaves would
    be all of Aut(M), and the leaves of a skipped subtree of y are (x y)
    times leaves of x's subtree, which by induction the list generates.
    """
    n = len(nbr)
    image = [0] * n  # image[j] is pi(j)
    gens: list[tuple[int, ...]] = []
    swapped: set[int] = set()  # x | y for each twin transposition (x y) used

    def place(i: int, free: int) -> bool:
        cand = free
        row = nbr[i]
        j = n - 1
        while j > i:  # a while loop: a range object per call costs more here
            w = nbr[image[j]]
            if row >> j & 1:
                if cand & ~w:
                    return False
                cand &= w
            else:
                cand &= ~w
            j -= 1
        while cand:
            low = cand & -cand
            cand ^= low
            x = low.bit_length() - 1
            image[i] = x
            if not i:
                gens.append(tuple(image))
            elif not place(i - 1, free ^ low):
                return False
            rest, w = cand, nbr[x]
            while rest:  # drop x's twins from cand
                y = rest & -rest
                rest ^= y
                if not (w ^ nbr[y.bit_length() - 1]) & ~(low | y):
                    cand ^= y
                    swapped.add(low | y)
        return True

    if not place(n - 1, (1 << n) - 1):
        return None
    for pair in swapped:
        x, y = (pair & -pair).bit_length() - 1, pair.bit_length() - 1
        swap = list(range(n))
        swap[x], swap[y] = y, x
        gens.append(tuple(swap))
    return gens


def connected_graphs_up_to_iso(n: int, clock: Clock | None = None):
    """Yield (g, chi, color) for each connected graph g on n vertices, one per isomorphism class.

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
    branches run out: the verdict of comparing all n! relabellings. Of two
    free twins x and y (N(x) - y = N(y) - x) only the first is branched on:
    the transposition (x y) is an automorphism of M that fixes every placed
    vertex, so both branches give the same relabelled masks.

    The tree is walked in post-order on an explicit stack, children by
    descending b: a node is the largest mask of its subtree and a larger b
    gives smaller masks, so masks come out ascending. A child that is not
    canonical has no canonical descendant, and one that is disconnected has
    no connected descendant (each is a spanning subgraph of it), so either
    is dropped with its subtree; connectivity is tested first (cheaper).

    Most children that are not canonical are known so without a search,
    from the automorphisms of their parent P (Read; B. D. McKay,
    "Isomorph-free exhaustive generation", J. Algorithms 26, 1998). For
    sigma in Aut(P) and e = pair b, sigma(P - 2**b) = sigma(P) - 2**sigma(b)
    = P - 2**sigma(b), a mask of the same class. If sigma(b) > b it is the
    smaller one, so P - 2**b is not canonical. The walk holds, for each
    canonical mask, automorphisms that generate its group: the ones the
    mask's own canonicity search met (see _is_least), and for the root K_n
    the adjacent transpositions. A child that one of its parent's holds
    maps to a later pair is dropped before it is copied, tested for
    connectivity or searched. Only one image per generator is taken, not
    the orbit of b, so some non-canonical children are still searched.

    Each class comes with its chromatic number chi and a proper coloring
    with colors 1..chi, as a list indexed by vertex; a child may share it
    with its parent, so it must not be changed. Both are carried down the
    tree. The root K_n has chi = n and colors 1..n. A child M = P - e has
    chi(M) in {chi(P) - 1, chi(P)}: M is a subgraph of P, and giving one end
    of e a new color turns any coloring of M into one of P. So:
    - chi(P) = 2 gives chi(M) = 2, as M is a subgraph of a bipartite graph
      and still has an edge;
    - chi(P) = 3: bipartition(M) decides;
    - chi(P) = k >= 4: one search for a (k - 1)-coloring of M decides, under
      the clock, which is thus checked inside the walk.
    Otherwise M keeps P's coloring: it is proper on the subgraph M and uses
    chi(P) = chi(M) colors.

    The edges are pairs listed sorted and distinct, so each class is made
    as a Graph directly, without build's checks, and its adjacency is read
    from the neighbour bitsets the walk holds.
    """
    if n < 1:
        return
    if n == 1:
        yield Graph(1, ()), 1, [1]
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

    at = [0] * (n * n)  # at[u * n + v]: the index of pair (u, v) or (v, u)
    for i, (u, v) in enumerate(pairs):
        at[u * n + v] = at[v * n + u] = i
    rows: dict[int, tuple[int, ...]] = {}  # a neighbour bitset's vertices, ascending

    def graph(mask: int, nbr: list[int]) -> Graph:
        adj = []
        for bits in nbr:
            row = rows.get(bits)
            if row is None:
                row = rows[bits] = tuple(v for v in range(n) if bits >> v & 1)
            adj.append(row)
        return Graph(n, tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1), tuple(adj))

    # Frames are [mask, untried, nbr, graph, chi, color, gens]: bits
    # 0..untried-1 of mask's trailing ones are still to be cleared, the
    # highest first; nbr holds neighbour bitsets and gens automorphisms that
    # generate Aut(mask).
    top = (1 << len(pairs)) - 1
    nbr = [full_vertex_mask ^ 1 << v for v in range(n)]
    swaps = []  # K_n's generators: the adjacent transpositions
    for v in range(n - 1):
        swap = list(range(n))
        swap[v], swap[v + 1] = v + 1, v
        swaps.append(tuple(swap))
    stack = [[top, len(pairs), nbr, graph(top, nbr), n, list(range(1, n + 1)), swaps]]
    while stack:
        frame = stack[-1]
        mask, b, nbr, g, chi, color, gens = frame
        if b == 0:
            stack.pop()
            yield g, chi, color
            continue
        b -= 1
        frame[1] = b
        child = mask ^ (1 << b)
        if child.bit_count() < n - 1:
            continue
        u, v = pairs[b]
        if any(at[s[u] * n + s[v]] > b for s in gens):
            continue
        child_nbr = nbr.copy()
        child_nbr[u] ^= 1 << v
        child_nbr[v] ^= 1 << u
        if not connected(child_nbr):
            continue
        child_gens = _is_least(child_nbr)
        if child_gens is None:
            continue
        h = graph(child, child_nbr)
        if chi == 3:
            sides = bipartition(h)
            if sides is not None:
                chi, color = 2, [1 if x in sides[0] else 2 for x in range(n)]
        elif chi > 3:
            witness = find_k_coloring(h, chi - 1, clock=clock)
            if witness is not None:
                chi, color = chi - 1, list(witness.values())
        stack.append([child, b, child_nbr, h, chi, color, child_gens])


def _is_extremal(
    g: Graph, k: int, clock: Clock | None = None, color: list[int] | None = None
) -> bool:
    """True when sn(G) = n - 1, for connected g with chromatic number k.

    Winning is monotone: if S wins with unique completion f, every T ⊇ S wins
    with f|T, as each completion of f|T completes f|S. So sn(G) <= n - 2
    exactly when some k-coloring f and pair {u, v} make f on V - {u, v}
    extend uniquely, and the completions on {u, v} have a closed form. With
    L_x the colors of [k] missing from f(N(x) - {u, v}), they number
    |L_u|·|L_v| when u, v are not adjacent, and |L_u|·|L_v| - |L_u ∩ L_v|
    when they are. For a nonadjacent pair it is 1 only when u and v are both
    color-dominating (N(x) sees every color but f(x)). The count is the same
    under every renaming of colors, so one coloring per vertex partition is
    tried, and g is extremal when none has a pair with one completion.

    Any k-coloring that settles a pair answers the test, so a known one
    (color, a list indexed by vertex, such as connected_graphs_up_to_iso
    yields) is tried first, and the partition search runs only when it
    settles none. The clock is checked on entry, even when that coloring
    answers.
    """
    if clock is not None:
        clock.check()
    n, adj, full = g.n, g.adj, (1 << k) - 1

    def settles(color: list[int]) -> bool:
        bit = [1 << c - 1 for c in color]
        seen = [0] * n  # the colors on N(x)
        twice = [0] * n  # the colors on two or more vertices of N(x)
        for x in range(n):
            s = t = 0
            for w in adj[x]:
                t |= s & bit[w]
                s |= bit[w]
            seen[x], twice[x] = s, t
        dominating = [x for x in range(n) if seen[x].bit_count() == k - 1]
        if any(v not in adj[u] for u, v in combinations(dominating, 2)):
            return True
        for u, v in g.edges:
            # v's color leaves L_u's complement unless another neighbor of u has it.
            lu = full & ~seen[u] | bit[v] & ~twice[u]
            lv = full & ~seen[v] | bit[u] & ~twice[v]
            if lu.bit_count() * lv.bit_count() - (lu & lv).bit_count() == 1:
                return True
        return False

    if color is not None and settles(color):
        return False
    return not any(map(settles, _search(g, [full] * n, fresh=True, clock=clock, what="pair test")))


def conjecture_scan(max_n: int, *, max_seconds: float | None = None) -> ScanReport:
    """Test sn(G) = n - 1 for every connected graph class up to max_n vertices.

    Reports the classes hitting this extreme value and flags any that are
    not complete. Single-vertex graphs fall outside the definition (chi = 1)
    and are skipped; K_2 is reported but marked degenerate (chi < 3). Each
    class is decided by _is_extremal, which looks at one support size only,
    not by sn_exact. The chromatic number and a coloring with that many
    colors come from the orderly walk, which carries them from parent to
    child (chi drops by at most one with an edge), and the pair test starts
    from that coloring: any chi-coloring that settles a pair answers it. The
    time budget is checked at each class's pair test and inside the walk's
    (k - 1)-coloring searches and the pair test's partition search.
    """
    if not (2 <= max_n <= 8):
        raise ValueError(f"scan supports 2 <= max_n <= 8, got {max_n}")
    clock = Clock(max_seconds)
    classes_scanned: dict[int, int] = {}
    extremal: list[dict] = []
    for n in range(2, max_n + 1):
        clock.proven = f" during scan at n={n}"
        count = 0
        for g, k, color in connected_graphs_up_to_iso(n, clock):
            count += 1
            if not _is_extremal(g, k, clock, color):
                continue
            extremal.append(
                {
                    "n": n,
                    "edges": [list(e) for e in g.edges],
                    "sn": n - 1,
                    "complete": g.m == n * (n - 1) // 2,
                    "degenerate": k < 3,
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
