"""Forced-assignment propagation and completion counting for partial colorings.

Internally colors 1..k live in bitmasks (bit i-1 is color i). The search
keeps an undo journal so branching never copies state.

The search also drops nodes with no completion by a k-clique cut: a proper
k-coloring uses all k colors on every k-clique, so a node where some k-clique
through the branch vertex has a color on none of its colored members and on
none of its uncolored members' lists is dead. The cliques come from a
bitmask enumerator run once per graph under a work bound linear in n + m;
any subset of them keeps the cut sound. The cut is not a propagation rule:
propagate() never applies it, and it adds no trace step.
"""

from __future__ import annotations

from .chromatic import chromatic_number
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

    def __init__(self, g: Graph, k: int, attractive_limit: int):
        self.g = g
        self.n = g.n
        self.k = k
        self.full = (1 << k) - 1
        self.adj = g.adj
        self._chi_memo: dict[int, bool] = {}
        self._cliques_at: tuple[tuple[tuple[int, ...], ...], ...] | None = None
        if k <= attractive_limit:
            self.attr_eligible = tuple(
                w for w in range(g.n) if g.degree(w) + 1 <= attractive_limit
            )
        else:
            # chi(N[w]) <= |N[w]| <= limit < k, so the rule can never fire.
            self.attr_eligible = ()

    def cliques_at(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per vertex, the k-cliques through it found within the work bound.

        Built on first use, as many searches never branch. None are kept for
        k <= 2, where the cut never fires (see _Engine.search).
        """
        if self._cliques_at is None:
            at: list[list[tuple[int, ...]]] = [[] for _ in range(self.n)]
            if self.k >= 3:
                for clique in _k_cliques(self.g, self.k)[0]:
                    for u in clique:
                        at[u].append(clique)
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
    starts from an empty root and moves with place() and rewind().
    """

    def __init__(self, eg: _EngineGraph, assignments=None):
        self.eg = eg
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
        self.path: list[TraceStep] = []
        self.squeue: list[int] = []
        if assignments:
            for v, col in assignments.items():
                self._assign(v, col, rule=None)
            self.journal.clear()
        # Seed the singleton queue with vertices forced by the root coloring.
        for v in range(n):
            if self.color[v] == 0 and self.lists[v].bit_count() == 1:
                self.squeue.append(v)
        # Search bookkeeping.
        self.count = 0
        self.witness1: dict[int, int] | None = None
        self.witness2: dict[int, int] | None = None
        self.trace: tuple[TraceStep, ...] = ()

    def _assign(self, v: int, col: int, rule: str | None) -> None:
        bit = 1 << (col - 1)
        color, lists, journal = self.color, self.lists, self.journal
        color[v] = col
        self.uncolored -= 1
        self.class_size[col] += 1
        self.used_mask |= bit
        if rule is None:
            journal.append((_PLACE, v, col))
        else:
            journal.append((_ASSIGN, v, col))
            self.path.append(TraceStep(v, col, rule))
        for u in self.adj[v]:
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
            if self.attr_eligible and self.uncolored and self._attractive_step():
                continue
            return True

    def _mrv(self) -> int:
        best, best_size = -1, 1 << 62
        for v in range(self.eg.n):
            if self.color[v] == 0:
                size = self.lists[v].bit_count()
                if size < best_size:
                    best, best_size = v, size
                    if size == 2:
                        break
        return best

    def _short_clique(self, w: int) -> bool:
        """True when a k-clique through w misses a color: no completion exists.

        A proper k-coloring puts all k colors on every k-clique, and a color
        absent from the clique's colored members and from its uncolored
        members' lists can no longer reach it.
        """
        color, lists, full = self.color, self.lists, self.full
        for clique in self.eg.cliques_at()[w]:
            seen = 0
            for u in clique:
                cu = color[u]
                seen |= (1 << (cu - 1)) if cu else lists[u]
            if seen != full:
                return True
        return False

    def _record_witness(self) -> None:
        self.count += 1
        snapshot = {v: self.color[v] for v in range(self.eg.n)}
        if self.count == 1:
            self.witness1 = snapshot
            self.trace = tuple(self.path)
        elif self.count == 2:
            self.witness2 = snapshot

    def search(self, cap: int) -> int:
        """Count completions of the current state, saturating at cap.

        Depth-first on an explicit stack of [vertex, untried colors, journal
        mark] frames, one per branching vertex: propagate, then branch on the
        uncolored vertex w with the fewest colors, lowest color first, until
        cap completions are found. The state is restored on return.

        Before branching on w, a node where a k-clique through w misses a
        color is dropped (_short_clique). Its subtree holds no completion and
        the other branches keep their depth-first order, so counts, witnesses
        and traces are those of the search without the cut. With k <= 2 no
        cliques are kept, as the cut could never fire: at a live fixpoint
        every uncolored list has at least two of the k colors, so it is full,
        and a colored neighbor would have left it a singleton.
        """
        self.count = 0
        self.witness1 = self.witness2 = None
        self.trace = ()
        if self.dead:
            return 0
        root = len(self.journal)
        stack: list[list[int]] = []
        alive = self._propagate()
        while True:
            if alive:
                if self.uncolored == 0:
                    self._record_witness()
                else:
                    w = self._mrv()
                    if not self._short_clique(w):
                        stack.append([w, self.lists[w], len(self.journal)])
            while stack:
                frame = stack[-1]
                w, bits, mark = frame
                self._undo(mark)
                if bits and self.count < cap:
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
    g: Graph, c: PartialColoring, *, attractive_limit: int = DEFAULT_ATTRACTIVE_LIMIT
) -> tuple[PartialColoring, tuple[TraceStep, ...], PropagationStatus]:
    """Extend c by forced assignments only.

    Singleton-list deductions are labeled color-dominating when the forced
    color is new, near-color-dominating when it is already in use; attractive
    deductions need chi(N[w]) = k, tested exactly on the closed neighborhood.
    """
    _check_inputs(g, c)
    eng = _Engine(_EngineGraph(g, c.k, attractive_limit), c.assignments)
    alive = eng._propagate()
    extended = dict(c.assignments)
    for step in eng.path:
        extended[step.vertex] = step.color
    trace = tuple(eng.path)
    if not alive:
        status = PropagationStatus.DEAD_END
    elif trace:
        status = PropagationStatus.PROGRESS
    else:
        status = PropagationStatus.STUCK
    return PartialColoring(c.k, extended), trace, status


def count_extensions(
    g: Graph,
    c: PartialColoring,
    cap: int = 2,
    *,
    attractive_limit: int = DEFAULT_ATTRACTIVE_LIMIT,
) -> ExtensionOutcome:
    """Count completions of c to proper k-colorings of g, saturating at cap.

    cap >= 2 so that unique and multiple outcomes stay distinguishable.
    """
    if cap < 2:
        raise ValueError(f"cap must be >= 2, got {cap}")
    _check_inputs(g, c)
    eng = _Engine(_EngineGraph(g, c.k, attractive_limit), c.assignments)
    found = eng.search(cap)
    if found == 0:
        return ExtensionOutcome(ExtensionKind.NOT_EXTENDABLE, count=0)
    if found == 1:
        return ExtensionOutcome(
            ExtensionKind.UNIQUE, witness1=eng.witness1, trace=eng.trace, count=1
        )
    return ExtensionOutcome(
        ExtensionKind.MULTIPLE, witness1=eng.witness1, witness2=eng.witness2, count=found
    )


def is_extendable(g: Graph, c: PartialColoring) -> bool:
    return count_extensions(g, c).kind is not ExtensionKind.NOT_EXTENDABLE


def is_sudoku_coloring(g: Graph, c: PartialColoring) -> bool:
    return count_extensions(g, c).kind is ExtensionKind.UNIQUE
