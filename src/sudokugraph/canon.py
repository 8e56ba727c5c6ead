"""Automorphism generators of a graph by individualization-refinement.

automorphism_generators(g) returns permutations that generate Aut(g), or a
subgroup of it when its work bound or its clock runs out first. The method is
the search tree of McKay, "Practical graph isomorphism", Congr. Numer. 30
(1981), and McKay & Piperno, "Practical graph isomorphism, II", J. Symbolic
Comput. 60 (2014), without canonical labeling, without a stabilizer chain and
without pruning the tree by the automorphisms found:

- A partition is ordered: a vertex list cut into cells, each cell named by its
  first position. Refinement splits cells by the number of neighbours each
  vertex has in a splitter cell until the partition is equitable. It looks at
  positions and counts only, never at vertex labels, so an automorphism that
  maps one partition onto another maps their refinements onto each other and
  both refinements write the same trace.
- The first path starts from the refined unit partition and individualizes
  b_1, b_2, ..., b_d, each the first vertex of the first non-singleton cell,
  refining after each, until every cell is a singleton. Let G_i be the
  automorphisms that fix b_1..b_i; G_d is trivial, since an automorphism that
  fixes the base keeps every cell of the discrete partition.
- The levels are taken from the deepest up. At level i, each w in b_{i+1}'s
  cell that is not yet in b_{i+1}'s orbit under the generators found so far
  (all of which fix b_1..b_i) gets a depth-first search: individualize w in
  place of b_{i+1}, then every vertex of each next target cell in turn,
  keeping a node only while its refinement trace matches the first path's;
  at a discrete leaf, the map from the first leaf position by position is
  checked on the neighbour bitmasks. The search is exhaustive, so it finds an
  automorphism in G_i that maps b_{i+1} to w whenever one exists, and it
  skips each w in the orbit of a w that already failed. So the generators
  give b_{i+1} its whole G_i-orbit, G_i is generated by them together with
  G_{i+1}, and at level 0 they generate Aut(g).

Work is counted in steps: one per splitter vertex and adjacency entry
scanned, per vertex moved between cells, per list entry copied and per edge
end checked. The search stops before the steps would exceed AUT_STEPS * (n + 2m),
or once its clock's deadline has passed, and returns the generators found so
far. Those generate a subgroup of Aut(g), which is all a caller that
skips work on symmetric images needs.
"""

from __future__ import annotations

from .errors import Clock
from .graph import Graph

# Work bound: steps per vertex and per edge end, so one graph costs at most
# AUT_STEPS * (n + 2m) steps.
AUT_STEPS = 128


class _Stop(Exception):
    """The work bound or the clock ran out: the search ends with what it has."""


class _Partition:
    """An ordered partition of range(n).

    lab lists the vertices cell by cell and pos inverts it; a cell is named by
    the position start of its first vertex, end[start] is one past its last
    position and cell[v] names v's cell.
    """

    __slots__ = ("lab", "pos", "cell", "end", "cells")

    def __init__(self, lab, pos, cell, end, cells):
        self.lab, self.pos, self.cell, self.end, self.cells = lab, pos, cell, end, cells

    def copy(self) -> _Partition:
        return _Partition(self.lab[:], self.pos[:], self.cell[:], self.end[:], self.cells)

    def individualize(self, v: int) -> int:
        """Split v off as a singleton at the back of its cell; returns its position."""
        lab, pos = self.lab, self.pos
        s = self.cell[v]
        last = self.end[s] - 1
        x, pv = lab[last], pos[v]
        lab[pv], pos[x] = x, pv
        lab[last], pos[v] = v, last
        self.end[last] = last + 1
        self.end[s] = last
        self.cell[v] = last
        self.cells += 1
        return last

    def first_open_cell(self) -> int:
        """Position of the first cell with more than one vertex."""
        s = 0
        while self.end[s] - s == 1:
            s += 1
        return s


class _Refiner:
    def __init__(self, g: Graph, clock: Clock | None):
        self.n = g.n
        self.adj = g.adj
        self.deg = [len(a) for a in g.adj]
        self.nbr = [sum(1 << u for u in a) for a in g.adj]
        self.size = g.n + 2 * g.m
        self.limit = AUT_STEPS * self.size
        self.steps = 0
        self.deadline = None if clock is None else clock.deadline

    def charge(self, cost: int) -> None:
        if self.steps + cost > self.limit:
            raise _Stop
        if self.deadline is not None and Clock.now() >= self.deadline:
            raise _Stop
        self.steps += cost

    def copy(self, p: _Partition) -> _Partition:
        # A copy holds 4n list entries, and the first path keeps one per
        # level, so charging each entry bounds memory by the work bound too.
        self.charge(4 * self.n)
        return p.copy()

    def refine(self, p: _Partition, queue: list[int], expect=None) -> list | None:
        """Refine p in place to an equitable partition, splitting by the cells in queue.

        Returns the trace, one (cell, fragment starts, counts) event per
        split, or None as soon as the trace departs from `expect`. A split
        cell that was waiting in the queue queues all its new fragments;
        otherwise all fragments but the first largest are queued (Hopcroft's
        rule: the largest is implied by the others and the old cell).
        """
        adj, deg = self.adj, self.deg
        lab, pos, cell, end = p.lab, p.pos, p.cell, p.end
        n = self.n
        waiting = set(queue)
        trace: list = []
        qi = 0
        while qi < len(queue) and p.cells < n:
            s = queue[qi]
            qi += 1
            waiting.discard(s)
            e = end[s]
            self.charge(e - s + sum(deg[lab[i]] for i in range(s, e)))
            count: dict[int, int] = {}
            for i in range(s, e):
                for u in adj[lab[i]]:
                    count[u] = count.get(u, 0) + 1
            touched: dict[int, list[int]] = {}
            for u in count:
                touched.setdefault(cell[u], []).append(u)
            for cs in sorted(touched):
                ce = end[cs]
                vs = touched[cs]
                if ce - cs == 1:
                    continue
                self.charge(len(vs))
                vs.sort(key=count.__getitem__)
                if len(vs) == ce - cs and count[vs[0]] == count[vs[-1]]:
                    continue
                # Swap the touched vertices into the tail of the cell, then lay
                # the tail out by ascending count; untouched ones count 0.
                tail = ce - len(vs)
                j = tail
                for v in vs:
                    pv = pos[v]
                    if pv < tail:
                        while lab[j] in count:
                            j += 1
                        x = lab[j]
                        lab[pv], pos[x] = x, pv
                        j += 1
                for i, v in enumerate(vs, tail):
                    lab[i] = v
                    pos[v] = i
                starts = [cs] if tail > cs else []
                counts = [0] if tail > cs else []
                for i, v in enumerate(vs, tail):
                    c = count[v]
                    if not counts or c != counts[-1]:
                        starts.append(i)
                        counts.append(c)
                bounds = starts + [ce]
                for a, b in zip(starts, bounds[1:]):
                    end[a] = b
                for a, b in zip(starts[1:], bounds[2:]):
                    for i in range(a, b):
                        cell[lab[i]] = a
                p.cells += len(starts) - 1
                event = (cs, tuple(starts), tuple(counts))
                if expect is not None and (
                    len(trace) == len(expect) or expect[len(trace)] != event
                ):
                    return None
                trace.append(event)
                if cs in waiting:
                    new = starts[1:]
                else:
                    sizes = [b - a for a, b in zip(starts, bounds[1:])]
                    big = sizes.index(max(sizes))
                    new = starts[:big] + starts[big + 1 :]
                queue.extend(new)
                waiting.update(new)
        if expect is not None and len(trace) != len(expect):
            return None
        return trace

    def is_automorphism(self, gamma: list[int]) -> bool:
        self.charge(self.size)
        nbr = self.nbr
        for v, a in enumerate(self.adj):
            gv = nbr[gamma[v]]
            for u in a:
                if not gv >> gamma[u] & 1:
                    return False
        return True


def _find(parent: list[int], v: int) -> int:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def automorphism_generators(
    g: Graph, clock: Clock | None = None
) -> tuple[list[tuple[int, ...]], int]:
    """Generators of Aut(g), or of a subgroup once the work bound or clock runs out.

    Returns (generators, steps spent). Each generator is a tuple gamma with
    gamma[v] the image of vertex v; none is the identity. Running out of
    time raises nothing: the caller's clock stops its own work.
    """
    n = g.n
    ref = _Refiner(g, clock)
    gens: list[tuple[int, ...]] = []
    try:
        root = _Partition(list(range(n)), list(range(n)), [0] * n, [n] * (n + 1), 1 if n else 0)
        ref.refine(root, [0])
        path = [root]
        traces: list = [None]
        targets: list[int] = []
        while path[-1].cells < n:
            s = path[-1].first_open_cell()
            q = ref.copy(path[-1])
            traces.append(ref.refine(q, [q.individualize(q.lab[s])]))
            path.append(q)
            targets.append(s)
        leaf = path[-1].lab
        parent = list(range(n))
        for i in range(len(targets) - 1, -1, -1):
            p = path[i]
            s = targets[i]
            b = p.lab[s]
            failed: list[int] = []
            for w in p.lab[s + 1 : p.end[s]]:
                root_w = _find(parent, w)
                if root_w == _find(parent, b) or any(_find(parent, f) == root_w for f in failed):
                    continue
                gamma = _search(ref, path, traces, targets, i, w, leaf)
                if gamma is None:
                    failed.append(w)
                    continue
                gens.append(gamma)
                for v in range(n):
                    a, c = _find(parent, v), _find(parent, gamma[v])
                    if a != c:
                        parent[a] = c
    except _Stop:
        pass
    return gens, ref.steps


def _search(ref: _Refiner, path, traces, targets, i: int, w: int, leaf) -> tuple[int, ...] | None:
    """An automorphism fixing b_1..b_i that maps b_{i+1} to w, or None.

    Depth first on an explicit stack of [level, partition, candidates,
    next index] frames: a frame at level j tries each candidate for b_{j+1}
    on a copy of its partition.
    """
    d = len(targets)
    stack = [[i, path[i], [w], 0]]
    while stack:
        frame = stack[-1]
        j, base, cands, idx = frame
        if idx == len(cands):
            stack.pop()
            continue
        frame[3] = idx + 1
        q = ref.copy(base)
        if ref.refine(q, [q.individualize(cands[idx])], traces[j + 1]) is None:
            continue
        if j + 1 == d:
            gamma = [0] * len(leaf)
            for v, x in zip(leaf, q.lab):
                gamma[v] = x
            if ref.is_automorphism(gamma):
                return tuple(gamma)
            continue
        s = targets[j + 1]
        stack.append([j + 1, q, q.lab[s : q.end[s]], 0])
    return None
