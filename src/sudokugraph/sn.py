"""Exact Sudoku numbers: minimum support sizes for uniquely extendable colorings."""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import time
from dataclasses import dataclass, field
from math import comb

from .chromatic import chromatic_number
from .coloring import ExtensionKind, PartialColoring, is_proper
from .errors import BudgetExceededError, DisconnectedGraphError
from .extension import DEFAULT_ATTRACTIVE_LIMIT, _Engine, _EngineGraph, count_extensions
from .graph import Graph, build, is_connected

PROVENANCE_EXACT = "exact-search"

PRUNE_PENDANT = "pendant"
PRUNE_UNCOLORED_EDGE = "uncolored-edge"


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
    uncolored-edge lemma (prune_subset's attribution). Vertices 0..n-1 are
    decided in order, include before exclude, on an explicit stack: the stack
    is the list of included vertices, each with its exclude branch pending.
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


def _support_engine(g: Graph, k: int) -> _Engine:
    """An empty extension engine for g at k colors, reused by every support walk."""
    return _Engine(_EngineGraph(g, k, DEFAULT_ATTRACTIVE_LIMIT))


def _evaluate_subset(eng: _Engine, subset):
    """Try the canonical colorings of one support, in canonical_colorings' order.

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
    position = {v: i for i, v in enumerate(verts)}
    earlier = [
        tuple(position[u] for u in eng.adj[v] if position.get(u, t) < i)
        for i, v in enumerate(verts)
    ]
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
            # canonical_colorings yields nothing below: too few colors left.
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


_POOL_STATE: dict = {}
# Most surviving supports per worker in one pool batch.
_POOL_BATCH = 32


def _batches(items, workers: int):
    """Consecutive runs of _supports items for a pool of `workers`, in order.

    The i-th run holds at most workers * 2**i surviving supports, capped at
    workers * _POOL_BATCH: small first runs limit the supports evaluated past
    an early winner, larger later runs keep the workers busy.
    """
    limit = workers
    batch: list = []
    held = 0
    for item in items:
        batch.append(item)
        if item[0] is not None:
            held += 1
            if held == limit:
                yield batch
                batch, held = [], 0
                limit = min(2 * limit, workers * _POOL_BATCH)
    if batch:
        yield batch


def _pool_init(n: int, edges, k: int) -> None:
    _POOL_STATE["engine"] = _support_engine(build(n, list(edges)), k)


def _pool_eval(subset):
    return _evaluate_subset(_POOL_STATE["engine"], subset)


class _Budget:
    def __init__(self, max_subsets: int | None, max_seconds: float | None):
        self.max_subsets = max_subsets
        self.max_seconds = max_seconds
        self.start = time.perf_counter()

    def check(self, subsets_used: int, proven: int, count: int = 1) -> None:
        """Raise unless `count` more subsets fit after `subsets_used`."""
        if self.max_subsets is not None and subsets_used + count > self.max_subsets:
            raise BudgetExceededError(
                f"subset budget {self.max_subsets} exhausted; sn >= {proven}",
                lower_bound=proven,
            )
        if self.max_seconds is not None and time.perf_counter() - self.start >= self.max_seconds:
            raise BudgetExceededError(
                f"time budget {self.max_seconds}s exhausted; sn >= {proven}",
                lower_bound=proven,
            )

    def elapsed(self) -> float:
        return time.perf_counter() - self.start


def sn_exact(
    g: Graph,
    *,
    prune: bool = True,
    workers: int = 1,
    max_subsets: int | None = None,
    max_seconds: float | None = None,
) -> SearchReport:
    """Exact Sudoku number by exhaustive search.

    Supports are tried in ascending size from the lower bound, each size in
    lexicographic subset order and each support in canonical coloring order,
    so the first success is a deterministic, worker-count-independent winner.
    With prune (and chi >= 3) the supports are generated with a look-ahead on
    the pendant and uncolored-edge lemmas, so the ones those lemmas rule out
    are never visited: they are cut in whole blocks, and each block is counted
    in subsets_examined and pruned_by as prune_subset would count its supports
    one by one. The subset budget applies to those counts.

    One extension engine serves the whole search (one per worker with
    workers > 1). Each support's canonical colorings are walked vertex by
    vertex on it, propagating after every placement; a prefix whose
    propagation dies has no proper completion, so the colorings below it are
    skipped but still counted in colorings_examined, exactly as if each had
    been tried and found not extendable. Only live complete colorings run the
    completion search, capped at 2.
    """
    if g.n < 2:
        raise ValueError("Sudoku numbers need at least 2 vertices (chi >= 2)")
    if not is_connected(g):
        raise DisconnectedGraphError("Sudoku numbers are defined for connected graphs")
    k, _ = chromatic_number(g)
    tables = _suffix_tables(g, k, prune and k >= 3)
    budget = _Budget(max_subsets, max_seconds)
    subsets_examined = 0
    colorings_examined = 0
    pruned_by = {PRUNE_PENDANT: 0, PRUNE_UNCOLORED_EDGE: 0}

    def finish(subset, assignments) -> SearchReport:
        partial = PartialColoring(k, assignments)
        cert = Certificate(g, partial, len(subset), PROVENANCE_EXACT)
        return SearchReport(
            sn=len(subset),
            certificate=cert,
            subsets_examined=subsets_examined,
            colorings_examined=colorings_examined,
            pruned_by=dict(pruned_by),
            elapsed_seconds=budget.elapsed(),
        )

    eng = _support_engine(g, k) if workers <= 1 else None
    if workers > 1:
        pool_context = multiprocessing.get_context().Pool(
            workers, initializer=_pool_init, initargs=(g.n, g.edges, k)
        )
    else:
        pool_context = contextlib.nullcontext()
    with pool_context as pool:
        for size in range(search_lower_bound(k), g.n):
            items = _supports(g.n, size, tables)
            batches = (items,) if pool is None else _batches(items, workers)
            for batch in batches:
                results = None
                if pool is not None:
                    # map returns once the whole batch is done, so no task is in
                    # flight when a winner or a budget stop leaves the with
                    # block: Pool.terminate() can hang on queued tasks.
                    survivors = [s for s, _, _ in batch if s is not None]
                    chunk = max(1, len(survivors) // (4 * workers))
                    results = iter(pool.map(_pool_eval, survivors, chunk))
                for subset, pendant_cut, edge_cut in batch:
                    if subset is None:
                        cut = pendant_cut + edge_cut
                        budget.check(subsets_examined, size, cut)
                        subsets_examined += cut
                        pruned_by[PRUNE_PENDANT] += pendant_cut
                        pruned_by[PRUNE_UNCOLORED_EDGE] += edge_cut
                        continue
                    budget.check(subsets_examined, size)
                    subsets_examined += 1
                    if results is None:
                        tried, win = _evaluate_subset(eng, subset)
                    else:
                        tried, win = next(results)
                    colorings_examined += tried
                    if win is not None:
                        return finish(subset, win)
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


def connected_graphs_up_to_iso(n: int):
    """All connected graphs on exactly n vertices, one per isomorphism class.

    Enumerates edge subsets and keeps a graph only when its edge bitmask is
    minimal over all vertex permutations. Deterministic ascending order.
    """
    if n < 1:
        return
    if n == 1:
        yield build(1, [])
        return
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {p: i for i, p in enumerate(pairs)}
    emaps = []
    for perm in itertools.permutations(range(n)):
        emap = [0] * len(pairs)
        for (i, j), idx in index.items():
            a, b = perm[i], perm[j]
            emap[idx] = 1 << index[(a, b) if a < b else (b, a)]
        emaps.append(emap)
    emaps = emaps[1:]
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
        if seen != full_vertex_mask:
            continue
        minimal = True
        for emap in emaps:
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
                    minimal = False
                    break
        if not minimal:
            continue
        edges = []
        rest = mask
        while rest:
            low = rest & (-rest)
            rest ^= low
            edges.append(pairs[low.bit_length() - 1])
        yield build(n, edges)


def conjecture_scan(max_n: int, *, max_seconds: float | None = None) -> ScanReport:
    """Compute sn for every connected graph class up to max_n vertices.

    Reports the classes hitting the extreme value n-1 and flags any that are
    not complete. Single-vertex graphs fall outside the definition (chi = 1)
    and are skipped; K_2 is reported but marked degenerate (chi < 3).
    """
    if not (2 <= max_n <= 7):
        raise ValueError(f"scan supports 2 <= max_n <= 7, got {max_n}")
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
