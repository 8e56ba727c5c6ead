"""Forced-assignment propagation and completion counting for partial colorings.

Internally colors 1..k live in bitmasks (bit i-1 is color i). The search
keeps an undo journal so branching never copies state.

The search drops nodes with no completion by two cuts. Both rest on one fact:
a proper k-coloring uses all k colors on every k-clique.

- The k-clique cut: a node where some k-clique through the branch vertex has
  a color on none of its colored members and on none of its uncolored
  members' lists is dead.
- The hidden-single probe: a shadow look-ahead that runs propagation plus
  hidden singles (a color with no colored member and a single candidate
  member in a k-clique must go there) to a fixpoint, drops the node if that
  reaches a contradiction, and undoes everything it deduced either way.

The cliques come from a bitmask enumerator run once per graph under a work
bound linear in n + m; any subset of them keeps both cuts sound. Neither is a
propagation rule: propagate() never applies them, and they add no trace step.
A dropped node has no completion and the other nodes keep their depth-first
order, so counts, witnesses and traces are those of the search without cuts.
"""

from __future__ import annotations

import time

from .chromatic import SearchExpired, _fewest_colors, chromatic_number
from .coloring import (
    RULE_ATTRACTIVE,
    RULE_BRANCH,
    RULE_COLOR_DOMINATING,
    RULE_NEAR_COLOR_DOMINATING,
    ExtensionKind,
    ExtensionOutcome,
    PartialColoring,
    PropagationStatus,
    TraceStep,
    is_proper,
)
from .graph import Graph, induced_subgraph

# Above this closed-neighborhood size the attractive rule is skipped; plain
# list propagation stays sound without it.
DEFAULT_ATTRACTIVE_LIMIT = 20

# Work bound of the k-clique enumerator: steps per vertex and per edge end, so
# one graph costs it at most CLIQUE_STEPS * (n + 2m) steps.
CLIQUE_STEPS = 8

_ASSIGN = 0
_REMOVE = 1
# An assignment made from outside the engine (a root color or a support vertex
# placed by a caller): undone like _ASSIGN but never on the deduction path.
_PLACE = 2

# Rule of a probe's hidden-single assignment. The probe undoes it before
# returning, so no trace ever holds it.
_RULE_PROBE = "probe"


def _k_cliques(g: Graph, k: int) -> tuple[list[tuple[int, ...]], int]:
    """k-cliques of g, each once as an ascending tuple, and the steps spent.

    Depth first from each start vertex over its higher neighbors, on bitmasks
    and an explicit stack, cutting a branch once its candidates cannot fill
    the clique. A step is one candidate tried, or k + 1 for a candidate that
    completes a clique, and enumeration stops before the steps would exceed
    CLIQUE_STEPS * (n + 2m). A clique the bound leaves out only weakens the
    cut that uses the cliques, never its soundness.
    """
    nbr = [0] * g.n
    eligible = 0
    for v in range(g.n):
        for u in g.adj[v]:
            nbr[v] |= 1 << u
        if g.degree(v) >= k - 1:
            eligible |= 1 << v
    limit = CLIQUE_STEPS * (g.n + 2 * g.m)
    cliques: list[tuple[int, ...]] = []
    steps = 0
    for v in range(g.n):
        if not eligible >> v & 1:
            continue
        members = [v]
        stack = [nbr[v] & eligible & ~((2 << v) - 1)]
        while stack:
            cand = stack[-1]
            need = k - len(members)
            if cand.bit_count() < need:
                stack.pop()
                members.pop()
                continue
            cost = k + 1 if need == 1 else 1
            if steps + cost > limit:
                return cliques, steps
            steps += cost
            low = cand & -cand
            stack[-1] = cand ^ low
            u = low.bit_length() - 1
            if need == 1:
                cliques.append((*members, u))
                continue
            rest = (cand ^ low) & nbr[u]
            if rest.bit_count() >= need - 1:
                members.append(u)
                stack.append(rest)
    return cliques, steps


class _EngineGraph:
    """The per-graph part of the engine, shared by every search on (g, k)."""

    def __init__(self, g: Graph, k: int):
        self.g = g
        self.n = g.n
        self.k = k
        self.full = (1 << k) - 1
        self.adj = g.adj
        self._chi_memo: dict[int, bool] = {}
        self.cliques: tuple[tuple[int, ...], ...] = ()
        self._cliques_at: tuple[tuple[int, ...], ...] | None = None
        if k <= DEFAULT_ATTRACTIVE_LIMIT:
            self.attr_eligible = tuple(
                w for w in range(g.n) if g.degree(w) + 1 <= DEFAULT_ATTRACTIVE_LIMIT
            )
        else:
            # chi(N[w]) <= |N[w]| <= limit < k, so the rule can never fire.
            self.attr_eligible = ()

    def cliques_at(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, the indices into self.cliques of the k-cliques through it.

        Both are built on first use, as many searches never branch; until then
        self.cliques is empty. None are kept for k <= 2, where the cuts never
        fire (see _Engine.search).
        """
        if self._cliques_at is None:
            at: list[list[int]] = [[] for _ in range(self.n)]
            if self.k >= 3:
                self.cliques = tuple(_k_cliques(self.g, self.k)[0])
                for i, clique in enumerate(self.cliques):
                    for u in clique:
                        at[u].append(i)
            self._cliques_at = tuple(map(tuple, at))
        return self._cliques_at

    def chi_closed_neighborhood_is_k(self, w: int) -> bool:
        cached = self._chi_memo.get(w)
        if cached is None:
            sub, _ = induced_subgraph(self.g, (w,) + self.adj[w])
            cached = chromatic_number(sub)[0] == self.k
            self._chi_memo[w] = cached
        return cached


class _Engine:
    """The per-search part: colors, lists and the undo journal over one _EngineGraph.

    Root assignments are journaled as _PLACE and then forgotten, so undo never
    goes above the root. A caller that reuses one engine for many searches
    starts from an empty root and moves with place() and rewind(). Given a
    deadline (a time.perf_counter() value), propagation checks the clock
    before each attractive step, the search before each branch and the probe
    before it starts; each raises SearchExpired once the deadline has passed.

    The counters add up over the engine's life: nodes (live nodes the search
    branched from or cut), clique_cuts, probes, probe_cuts, search_work
    (neighbor visits of every assignment made outside a probe, root and
    placed colors included) and probe_work (clique-member visits plus
    neighbor visits of the probes' own assignments).
    """

    def __init__(self, eg: _EngineGraph, assignments=None, deadline: float | None = None):
        self.eg = eg
        self.deadline = deadline
        self.full = eg.full
        self.adj = eg.adj
        self.attr_eligible = eg.attr_eligible
        n = eg.n
        self.color = [0] * n
        self.lists = [eg.full] * n
        self.uncolored = n
        self.class_size = [0] * (eg.k + 1)
        self.used_mask = 0
        self.dead = False
        self.journal: list[tuple[int, int, int]] = []
        # (vertex, color, rule) of each deduction. TraceSteps, like witness
        # dicts, are built only for an outcome that reports them.
        self.path: list[tuple[int, int, str]] = []
        self.squeue: list[int] = []
        self.nodes = 0
        self.clique_cuts = 0
        self.probes = 0
        self.probe_cuts = 0
        self.search_work = 0
        self.probe_work = 0
        if assignments:
            for v, col in assignments.items():
                self._assign(v, col, rule=None)
            self.journal.clear()
        # Seed the singleton queue with vertices forced by the root coloring.
        for v in range(n):
            if self.color[v] == 0 and self.lists[v].bit_count() == 1:
                self.squeue.append(v)
        # Search bookkeeping: witnesses are color lists indexed by vertex.
        self.count = 0
        self.witness1: list[int] | None = None
        self.witness2: list[int] | None = None
        self.trace: tuple[tuple[int, int, str], ...] = ()

    def _assign(self, v: int, col: int, rule: str | None) -> None:
        bit = 1 << (col - 1)
        color, lists, journal = self.color, self.lists, self.journal
        nbrs = self.adj[v]
        self.search_work += len(nbrs)
        color[v] = col
        self.uncolored -= 1
        self.class_size[col] += 1
        self.used_mask |= bit
        if rule is None:
            journal.append((_PLACE, v, col))
        else:
            journal.append((_ASSIGN, v, col))
            self.path.append((v, col, rule))
        for u in nbrs:
            if color[u] == 0 and lists[u] & bit:
                rest = lists[u] ^ bit
                lists[u] = rest
                journal.append((_REMOVE, u, bit))
                if rest == 0:
                    self.dead = True
                elif rest & (rest - 1) == 0:
                    self.squeue.append(u)

    def _undo(self, mark: int) -> None:
        journal, lists = self.journal, self.lists
        for _ in range(len(journal) - mark):
            op, v, payload = journal.pop()
            if op == _REMOVE:
                lists[v] |= payload
            else:
                self.color[v] = 0
                self.uncolored += 1
                self.class_size[payload] -= 1
                if self.class_size[payload] == 0:
                    self.used_mask &= ~(1 << (payload - 1))
                if op == _ASSIGN:
                    self.path.pop()
        self.dead = False

    def place(self, v: int, col: int) -> bool:
        """Give uncolored v the color col and propagate. False means dead end.

        col must still be on v's list; the caller rewinds either way.
        """
        self._assign(v, col, rule=None)
        return self._propagate()

    def rewind(self, mark: int) -> None:
        """Undo back to journal length mark, taken at a propagated fixpoint.

        At a fixpoint no uncolored vertex has a singleton list, so whatever a
        dead end left in the singleton queue is dropped with it.
        """
        self._undo(mark)
        self.squeue.clear()

    def _attractive_step(self) -> bool:
        """Apply one attractive deduction; may set self.dead on contradiction."""
        for w in self.attr_eligible:
            if self.color[w] != 0:
                continue
            union = 0
            for u in self.adj[w]:
                cu = self.color[u]
                union |= (1 << (cu - 1)) if cu else self.lists[u]
            cand = self.full & ~union
            if cand == 0 or not self.eg.chi_closed_neighborhood_is_k(w):
                continue
            if cand & (cand - 1):
                # Two colors can only appear at w: no completion exists.
                self.dead = True
                return True
            self._assign(w, cand.bit_length(), RULE_ATTRACTIVE)
            return True
        return False

    def _propagate(self) -> bool:
        """Run forced assignments to a fixpoint. False means dead end."""
        while True:
            if self.dead:
                return False
            if self.squeue:
                v = self.squeue.pop()
                mask = self.lists[v]
                if self.color[v] != 0 or mask & (mask - 1):
                    continue
                col = mask.bit_length()
                if self.used_mask & mask:
                    rule = RULE_NEAR_COLOR_DOMINATING
                else:
                    rule = RULE_COLOR_DOMINATING
                self._assign(v, col, rule)
                continue
            if self.attr_eligible and self.uncolored:
                # One attractive step scans every eligible vertex, and one
                # propagation can take n of them.
                if self.deadline is not None and time.perf_counter() >= self.deadline:
                    raise SearchExpired
                if self._attractive_step():
                    continue
            return True

    def _short_clique(self, w: int) -> bool:
        """True when a k-clique through w misses a color: no completion exists.

        A proper k-coloring puts all k colors on every k-clique, and a color
        absent from the clique's colored members and from its uncolored
        members' lists can no longer reach it.
        """
        color, lists, full = self.color, self.lists, self.full
        at = self.eg.cliques_at()
        cliques = self.eg.cliques
        for i in at[w]:
            seen = 0
            for u in cliques[i]:
                cu = color[u]
                seen |= (1 << (cu - 1)) if cu else lists[u]
            if seen != full:
                return True
        return False

    def _probe(self) -> bool:
        """Shadow look-ahead at a live fixpoint. False means no completion exists.

        Runs hidden singles over the k-cliques, with _propagate after each, to
        a fixpoint or a contradiction. In a k-clique, a color on no colored
        member must go to an uncolored member; with one candidate member it
        must go there, and with none the node is dead. The cliques are swept
        once, then rescanned only from a worklist of the cliques through
        vertices journaled since the last scan. Everything deduced is undone,
        so the state, the path and the singleton queue are as before, and its
        work is moved from search_work to probe_work.
        """
        if self.deadline is not None and time.perf_counter() >= self.deadline:
            raise SearchExpired
        self.probes += 1
        cliques, at = self.eg.cliques, self.eg.cliques_at()
        color, lists, full, journal = self.color, self.lists, self.full, self.journal
        mark = seen = len(journal)
        work = self.search_work
        visits = 0
        queued = bytearray(b"\x01") * len(cliques)
        todo = list(range(len(cliques)))
        alive = True
        while todo:
            i = todo.pop()
            queued[i] = 0
            clique = cliques[i]
            visits += len(clique)
            placed = once = twice = 0
            for u in clique:
                cu = color[u]
                if cu:
                    placed |= 1 << (cu - 1)
                else:
                    lu = lists[u]
                    twice |= once & lu
                    once |= lu
            if placed | once != full:
                alive = False
                break
            single = once & ~twice
            if not single:
                continue
            bit = single & -single
            for u in clique:
                if color[u] == 0 and lists[u] & bit:
                    break
            self._assign(u, bit.bit_length(), _RULE_PROBE)
            if not self._propagate():
                alive = False
                break
            for _, v, _ in journal[seen:]:
                for j in at[v]:
                    if not queued[j]:
                        queued[j] = 1
                        todo.append(j)
            seen = len(journal)
        self._undo(mark)
        self.squeue.clear()
        self.probe_work += self.search_work - work + visits
        self.search_work = work
        return alive

    def _record_witness(self) -> None:
        self.count += 1
        if self.count == 1:
            self.witness1 = self.color[:]
            self.trace = tuple(self.path)
        elif self.count == 2:
            self.witness2 = self.color[:]

    def search(self, cap: int) -> int:
        """Count completions of the current state, saturating at cap.

        Depth-first on an explicit stack of [vertex, untried colors, journal
        mark] frames, one per branching vertex: propagate, then branch on the
        uncolored vertex w with the fewest colors, lowest color first, until
        cap completions are found. The state is restored on return.

        Before branching on w, a node is dropped when a k-clique through w
        misses a color (_short_clique) or when the probe reaches a
        contradiction (_probe). Both are sound: a dropped node's subtree
        holds no completion. The probe keeps nothing it deduced, and a
        dropped node only removes a subtree while the other branches keep
        their depth-first order. So propagation, counts, witnesses and traces
        are those of the search without the cuts. With k <= 2 no cliques are
        kept, as neither cut could fire: at a live fixpoint every uncolored
        list has at least two of the k colors, so it is full, and a colored
        neighbor would have left it a singleton.

        Two fixed rules bound the probe's cost. It starts only after this
        search has met its first dead end, so searches that find their
        completions without one never probe. And a probe starts only while
        the probe work of this search is at most its search work, so the
        probes' work never passes the search's own by more than one probe.
        """
        self.count = 0
        self.witness1 = self.witness2 = None
        self.trace = ()
        if self.dead:
            return 0
        root = len(self.journal)
        deadline = self.deadline
        # Probe work minus search work before this search: the budget.
        slack = self.probe_work - self.search_work
        probing = False
        stack: list[list[int]] = []
        alive = self._propagate()
        while True:
            if alive:
                if self.uncolored == 0:
                    self._record_witness()
                else:
                    self.nodes += 1
                    # At a live fixpoint every uncolored list has two colors or more.
                    w = _fewest_colors(range(self.eg.n), self.color, self.lists, 2)
                    if self._short_clique(w):
                        self.clique_cuts += 1
                        probing = True
                    elif (
                        probing
                        and self.probe_work - self.search_work <= slack
                        and not self._probe()
                    ):
                        self.probe_cuts += 1
                    else:
                        stack.append([w, self.lists[w], len(self.journal)])
            else:
                # Below the root the clique table is built; with no cliques
                # the probe could never fire.
                probing = bool(self.eg.cliques)
            while stack:
                frame = stack[-1]
                w, bits, mark = frame
                self._undo(mark)
                if bits and self.count < cap:
                    if deadline is not None and time.perf_counter() >= deadline:
                        raise SearchExpired
                    bit = bits & (-bits)
                    frame[1] = bits ^ bit
                    self._assign(w, bit.bit_length(), RULE_BRANCH)
                    alive = self._propagate()
                    break
                stack.pop()
            else:
                break
        self._undo(root)
        return self.count


def _check_inputs(g: Graph, c: PartialColoring) -> None:
    if not is_proper(g, c):
        raise ValueError("partial coloring is improper on its domain")


def propagate(
    g: Graph, c: PartialColoring
) -> tuple[PartialColoring, tuple[TraceStep, ...], PropagationStatus]:
    """Extend c by forced assignments only.

    Singleton-list deductions are labeled color-dominating when the forced
    color is new, near-color-dominating when it is already in use; attractive
    deductions need chi(N[w]) = k, tested exactly on the closed neighborhood.
    """
    _check_inputs(g, c)
    eng = _Engine(_EngineGraph(g, c.k), c.assignments)
    alive = eng._propagate()
    extended = dict(c.assignments)
    for v, col, _ in eng.path:
        extended[v] = col
    trace = tuple(TraceStep(*step) for step in eng.path)
    if not alive:
        status = PropagationStatus.DEAD_END
    elif trace:
        status = PropagationStatus.PROGRESS
    else:
        status = PropagationStatus.STUCK
    return PartialColoring(c.k, extended), trace, status


def count_extensions(g: Graph, c: PartialColoring, cap: int = 2) -> ExtensionOutcome:
    """Count completions of c to proper k-colorings of g, saturating at cap.

    cap >= 2 so that unique and multiple outcomes stay distinguishable.
    Each call builds its own engine tables for (g, c.k), the k-clique list
    among them: no table outlives the call, so nothing is kept per graph.
    """
    if cap < 2:
        raise ValueError(f"cap must be >= 2, got {cap}")
    _check_inputs(g, c)
    return _count(_EngineGraph(g, c.k), c, cap)


def _count(eg: _EngineGraph, c: PartialColoring, cap: int) -> ExtensionOutcome:
    """count_extensions of c on the tables eg of (g, c.k), without its input checks.

    The caller has checked that cap >= 2 and that c is proper on eg.g. A
    search changes eg only by filling its lazy tables (the k-cliques and the
    chi(N[w]) memo), pure functions of (g, k). Before its first branch,
    which builds the cliques, it reads them only at a dead end of the root,
    where it stops either way (see search). So one eg shared by many searches
    gives each the outcome fresh tables would.
    """
    eng = _Engine(eg, c.assignments)
    found = eng.search(cap)
    if found == 0:
        return ExtensionOutcome(ExtensionKind.NOT_EXTENDABLE, count=0)
    witness1 = dict(enumerate(eng.witness1))
    if found == 1:
        trace = tuple(TraceStep(*step) for step in eng.trace)
        return ExtensionOutcome(ExtensionKind.UNIQUE, witness1=witness1, trace=trace, count=1)
    return ExtensionOutcome(
        ExtensionKind.MULTIPLE,
        witness1=witness1,
        witness2=dict(enumerate(eng.witness2)),
        count=found,
    )
