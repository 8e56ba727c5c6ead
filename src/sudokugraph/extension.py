"""Forced-assignment propagation and completion counting for partial colorings.

Internally colors 1..k live in bitmasks (bit i-1 is color i). A search's
one record is its undo journal, so branching never copies state: each entry
that colors a vertex carries its reason, and a trace is read off the entries
still in effect.

Two deductions rest on one fact: a proper k-coloring uses all k colors on
every k-clique.

- The k-clique cut: a node where some k-clique through the branch vertex has
  a color on none of its colored members and on none of its uncolored
  members' lists is dead.
- Hidden singles: a color with no colored member and a single candidate
  member in a k-clique must go there, and with no candidate member the node
  is dead.

How a search uses them depends on its tables. On traced tables (propagate,
count_extensions) the cut drops nodes, and hidden singles run only in a
shadow probe, which drops the node if they reach a contradiction and undoes
everything they deduced, so they are no propagation rule there: propagate()
never applies them and they add no trace step. On count-only tables
(sn_exact, the sudoku command, verify_certificate), whose callers read no
trace, a search runs no cut and keeps hidden singles as a propagation rule
from its first dead end on; each is journaled and undone with its branch. A
count of a whole partial coloring on these tables (_count) also sweeps once
at its root, before the search, which decides most 9x9 puzzles without a
branch. Either way a deduction holds in every completion, so the capped
count and a unique completion are those of the search without them.

The cliques come from a bitmask enumerator run once per graph under a work
bound linear in n + m; any subset of them keeps both deductions sound. On
traced tables a dropped node has no completion and the other nodes keep
their depth-first order, so counts, witnesses and traces are those of the
search without cuts.
"""

from __future__ import annotations

from .chromatic import _fewest_colors, chromatic_number
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
from .errors import Clock
from .graph import Graph, induced_subgraph

# Above this closed-neighborhood size the attractive rule is skipped; plain
# list propagation stays sound without it.
DEFAULT_ATTRACTIVE_LIMIT = 20

# Work bound of the k-clique enumerator: steps per vertex and per edge end, so
# one graph costs it at most CLIQUE_STEPS * (n + 2m) steps.
CLIQUE_STEPS = 8

# Journal ops. An entry (_REMOVE, vertex, color bit) takes a color off a list;
# an entry (op, vertex, color) of any other op colors a vertex and says why.
# _PLACE comes from outside the engine (a root color or a vertex a caller
# places) and is on no trace.
_REMOVE, _PLACE, _SINGLE, _ATTRACTIVE, _BRANCH, _HIDDEN_SINGLE = range(6)

# Rule of a hidden-single assignment. The probe undoes it before returning,
# and only count-only tables, which report no trace, keep it.
_RULE_HIDDEN_SINGLE = "hidden-single"
# Trace rule by op, None off the trace; a _SINGLE whose color is already in
# use is near-color-dominating instead (see _Engine._steps).
_RULES = (None, None, RULE_COLOR_DOMINATING, RULE_ATTRACTIVE, RULE_BRANCH, _RULE_HIDDEN_SINGLE)


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
    """The per-graph part of the engine, shared by every search on (g, k).

    traced says whether the searches on these tables report traces, and so
    which rules they run. Traced tables (propagate, count_extensions) apply
    the attractive rule in propagation and run hidden singles only in the
    shadow probe. Count-only tables (sn_exact, the sudoku command,
    verify_certificate), whose callers read only the count or a unique
    completion, never apply the attractive rule, which saves a scan of the
    eligible vertices at each propagation fixpoint, run no k-clique cut, and
    keep hidden singles from a search's first dead end on (see
    _Engine.search); _count also sweeps once at the root. Every deduction
    of either rule holds in every completion, so the capped count and a
    unique completion are the same either way; the witnesses of a MULTIPLE
    outcome can differ.

    free_scan lists, per vertex, the neighbours _Engine.place scans for a
    vertex free to change color: every neighbour until cliques_at builds
    the k-clique tables, and from then on only those in no listed k-clique.
    """

    def __init__(self, g: Graph, k: int, *, traced: bool):
        self.g = g
        self.n = g.n
        self.k = k
        self.full = (1 << k) - 1
        self.adj = g.adj
        self.traced = traced
        self._chi_memo: dict[int, bool] = {}
        self.cliques: tuple[tuple[int, ...], ...] = ()
        self._cliques_at: tuple[tuple[int, ...], ...] | None = None
        self.free_scan = g.adj
        if traced and k <= DEFAULT_ATTRACTIVE_LIMIT:
            self.attr_eligible = tuple(
                w for w in range(g.n) if g.degree(w) + 1 <= DEFAULT_ATTRACTIVE_LIMIT
            )
        else:
            # Off, or chi(N[w]) <= |N[w]| <= limit < k, so it can never fire.
            self.attr_eligible = ()

    def cliques_at(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, the indices into self.cliques of the k-cliques through it.

        Both are built on first use, at a search's first branch or a count's
        root sweep (see _count), as many searches need neither; until then
        self.cliques is empty. None are kept for k <= 2, where the cuts never
        fire (see _Engine.search). The same step narrows free_scan to the
        neighbours in no listed k-clique, or to () when every vertex lies in
        one.
        """
        if self._cliques_at is None:
            at: list[list[int]] = [[] for _ in range(self.n)]
            if self.k >= 3:
                self.cliques = tuple(_k_cliques(self.g, self.k)[0])
                for i, clique in enumerate(self.cliques):
                    for u in clique:
                        at[u].append(i)
            scan = tuple(tuple(w for w in nbrs if not at[w]) for nbrs in self.adj)
            self.free_scan = scan if any(scan) else ()
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

    The journal is the engine's one record. Root assignments stay in it as
    _PLACE entries, below every mark, so undo never goes above the root and
    the trace labels (_steps) see the root colors. A caller that reuses one
    engine for many searches starts from an empty root and moves with place()
    and rewind(). Given a clock, propagation checks it before each attractive
    step (so only on traced tables), the search at its start and before each
    branch, and the hidden-single sweep, probe or kept, before it starts;
    each raises the clock's error once its deadline has passed, and the
    engine must not be used after that.

    The counters add up over the engine's life: nodes (live nodes the search
    branched from or cut), clique_cuts, probes, probe_cuts, sweeps (kept
    hidden-single sweeps), walk_cuts (placements that place() refused
    because they left a vertex outside the support free to change color),
    search_work (neighbor visits of every assignment made outside a probe,
    root and placed colors included, plus the clique-member visits of kept
    sweeps) and probe_work (clique-member visits plus neighbor visits of
    the probes' own assignments).
    """

    def __init__(self, eg: _EngineGraph, assignments=None, clock: Clock | None = None):
        self.eg = eg
        self.clock = clock
        self.deadline = None if clock is None else clock.deadline
        self.full = eg.full
        self.adj = eg.adj
        self.attr_eligible = eg.attr_eligible
        n = eg.n
        self.color = [0] * n
        self.lists = [eg.full] * n
        self.uncolored = n
        self.dead = False
        self.journal: list[tuple[int, int, int]] = []
        self.squeue: list[int] = []
        self.nodes = 0
        self.clique_cuts = 0
        self.probes = 0
        self.probe_cuts = 0
        self.sweeps = 0
        self.walk_cuts = 0
        self.search_work = 0
        self.probe_work = 0
        if assignments:
            for v, col in assignments.items():
                self._assign(v, col, _PLACE)
        # Seed the singleton queue with vertices forced by the root coloring.
        for v in range(n):
            if self.color[v] == 0 and self.lists[v].bit_count() == 1:
                self.squeue.append(v)
        # Search bookkeeping: witnesses are color lists indexed by vertex.
        self.count = 0
        self.witness1: list[int] | None = None
        self.witness2: list[int] | None = None
        self.trace: tuple[tuple[int, int, str], ...] = ()

    def _assign(self, v: int, col: int, op: int) -> None:
        bit = 1 << (col - 1)
        color, lists, journal = self.color, self.lists, self.journal
        nbrs = self.adj[v]
        self.search_work += len(nbrs)
        color[v] = col
        self.uncolored -= 1
        journal.append((op, v, col))
        for u in nbrs:
            if color[u] == 0 and lists[u] & bit:
                rest = lists[u] ^ bit
                lists[u] = rest
                journal.append((_REMOVE, u, bit))
                if rest == 0:
                    self.dead = True
                elif rest & (rest - 1) == 0:
                    self.squeue.append(u)

    def place(self, v: int, col: int, inside: int) -> bool:
        """Give v the color col and propagate: one step of a support's coloring walk.

        inside is the support's vertex bitmask. False means no unique
        completion lies below: v already has another color, col is off v's
        list, propagation dies, or an uncolored vertex outside the support
        has every neighbour colored, so every completion can move it between
        two colors (walk_cuts counts these; see sn._evaluate_subset). Only
        the eg.free_scan neighbours of the vertices this call colored are
        looked at. A v that already has col adds nothing. The caller rewinds
        either way.
        """
        color, journal = self.color, self.journal
        if color[v]:
            return color[v] == col
        if not self.lists[v] >> (col - 1) & 1:
            return False
        mark = len(journal)
        self._assign(v, col, _PLACE)
        if not self._propagate():
            return False
        scan, adj = self.eg.free_scan, self.adj
        if scan:
            for op, x, _ in journal[mark:]:
                if op != _REMOVE and any(
                    not color[w] and not inside >> w & 1 and all(map(color.__getitem__, adj[w]))
                    for w in scan[x]
                ):
                    self.walk_cuts += 1
                    return False
        return True

    def rewind(self, mark: int) -> None:
        """Undo back to journal length mark, at a propagated fixpoint or a search's root.

        At a fixpoint no uncolored vertex has a singleton list, and a search's
        first propagation takes the root's singletons off the queue, so what a
        dead end left in the singleton queue is stale and is dropped.
        """
        journal, lists, color = self.journal, self.lists, self.color
        for _ in range(len(journal) - mark):
            op, v, payload = journal.pop()
            if op == _REMOVE:
                lists[v] |= payload
            else:
                color[v] = 0
                self.uncolored += 1
        self.dead = False
        self.squeue.clear()

    def _steps(self) -> list[tuple[int, int, str]]:
        """(vertex, color, rule) of each deduction in effect, in journal order.

        A single is near-color-dominating when its color is already on a
        vertex colored before it (a root color included), color-dominating
        when it is new.
        """
        used, steps = 0, []
        for op, v, col in self.journal:
            if op == _REMOVE:
                continue
            rule = _RULES[op]
            if op == _SINGLE and used >> col & 1:
                rule = RULE_NEAR_COLOR_DOMINATING
            if rule is not None:
                steps.append((v, col, rule))
            used |= 1 << col
        return steps

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
            self._assign(w, cand.bit_length(), _ATTRACTIVE)
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
                self._assign(v, mask.bit_length(), _SINGLE)
                continue
            if self.attr_eligible and self.uncolored:
                # One attractive step scans every eligible vertex, and one
                # propagation can take n of them.
                if self.deadline is not None and Clock.now() >= self.deadline:
                    self.clock.expire()
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

    def _hidden_singles(self) -> bool:
        """Apply hidden singles, with _propagate after each, to a fixpoint. False means dead end.

        In a k-clique, a color on no colored member must go to an uncolored
        member; with one candidate member it must go there, and with none the
        node is dead. Each single is journaled as an assignment. The worklist
        starts with every clique, and each single adds the cliques through the
        vertices it journaled. Call it at a propagated fixpoint. Its
        clique-member visits are added to search_work.
        """
        if self.deadline is not None and Clock.now() >= self.deadline:
            self.clock.expire()
        cliques, at = self.eg.cliques, self.eg.cliques_at()
        color, lists, full, journal = self.color, self.lists, self.full, self.journal
        queued = bytearray(b"\x01") * len(cliques)
        todo = list(range(len(cliques)))
        since = len(journal)
        visits = 0
        alive = True
        while alive:
            for _, v, _ in journal[since:]:
                for j in at[v]:
                    if not queued[j]:
                        queued[j] = 1
                        todo.append(j)
            since = len(journal)
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
                if single:
                    bit = single & -single
                    for u in clique:
                        if color[u] == 0 and lists[u] & bit:
                            break
                    self._assign(u, bit.bit_length(), _HIDDEN_SINGLE)
                    alive = self._propagate()
                    break
            else:
                break
        self.search_work += visits
        return alive

    def _probe(self) -> bool:
        """Shadow look-ahead at a live fixpoint: mark, sweep, undo. False means no completion exists.

        Everything the sweep (_hidden_singles) deduced is undone, so the
        state and the journal are as before, and its work is moved from
        search_work to probe_work.
        """
        mark, work = len(self.journal), self.search_work
        alive = self._hidden_singles()
        self.probes += 1
        self.rewind(mark)
        self.probe_work += self.search_work - work
        self.search_work = work
        return alive

    def _record_witness(self) -> None:
        self.count += 1
        if self.count == 1:
            self.witness1 = self.color[:]
            if self.eg.traced:
                self.trace = tuple(self._steps())
        elif self.count == 2:
            self.witness2 = self.color[:]

    def search(self, cap: int) -> int:
        """Count completions of the current state, saturating at cap.

        Depth-first on an explicit stack of [vertex, untried colors, journal
        mark] frames, one per branching vertex: propagate, then branch
        on the uncolored vertex w with the fewest colors, lowest color first,
        until cap completions are found. The state is restored on return. On
        count-only tables no trace is recorded.

        The two kinds of tables differ in their cuts:

        - On traced tables, a node is dropped when a k-clique through w
          misses a color (_short_clique), and, from the first dead end or
          such cut on, when the shadow probe reaches a contradiction
          (_probe). A dropped node's subtree holds no completion, the probe
          keeps nothing it deduced, and the other branches keep their
          depth-first order. So propagation, counts, witnesses and traces
          are those of the search without the cuts. A probe starts only
          while the probe work of this search is at most its search work,
          so the probes' work never passes the search's own by more than
          one probe.
        - On count-only tables no node is cut: over 320 sn_exact runs the
          k-clique cut was tried 343,759 times and cut 28 nodes. The tables
          are still built at the first node, which narrows free_scan for
          sn's walk. From the first dead end on, hidden singles become a
          propagation rule: each propagation after a branch is followed by a
          sweep (_hidden_singles) whose deductions are undone with the
          branch. Each sweep starts from every clique; starting only from
          the cliques through the vertices journaled since the branch
          measured no faster on the puzzles workload. Every hidden single
          holds in every completion, so counts and a unique completion are
          those of the search without them.

        Searches that find their completions without a dead end never probe
        or sweep here (_count may sweep once before calling this). With
        k <= 2 no cliques are kept, as neither could fire: at a live
        fixpoint every uncolored list has at least two of the k colors, so
        it is full, and a colored neighbor would have left it a singleton.
        """
        self.count = 0
        self.witness1 = self.witness2 = None
        self.trace = ()
        deadline = self.deadline
        if deadline is not None and Clock.now() >= deadline:
            self.clock.expire()
        if self.dead:
            return 0
        root = len(self.journal)
        sweep = not self.eg.traced
        # Probe work minus search work before this search: the budget.
        slack = self.probe_work - self.search_work
        armed = False
        stack: list[list] = []
        alive = self._propagate()
        if sweep and alive and self.uncolored:
            self.eg.cliques_at()  # at the first node, where a traced search's cut builds them
        while True:
            if alive:
                if self.uncolored == 0:
                    self._record_witness()
                else:
                    self.nodes += 1
                    # At a live fixpoint every uncolored list has two colors or more.
                    w = _fewest_colors(range(self.eg.n), self.color, self.lists, 2)
                    if not sweep and self._short_clique(w):
                        self.clique_cuts += 1
                        armed = True
                    elif (
                        armed
                        and not sweep
                        and self.probe_work - self.search_work <= slack
                        and not self._probe()
                    ):
                        self.probe_cuts += 1
                    else:
                        stack.append([w, self.lists[w], len(self.journal)])
            else:
                # Below the root the clique table is built; with no cliques
                # neither the probe nor the sweep could fire.
                armed = bool(self.eg.cliques)
            while stack:
                frame = stack[-1]
                w, bits, mark = frame
                self.rewind(mark)
                if bits and self.count < cap:
                    if deadline is not None and Clock.now() >= deadline:
                        self.clock.expire()
                    bit = bits & (-bits)
                    frame[1] = bits ^ bit
                    self._assign(w, bit.bit_length(), _BRANCH)
                    alive = self._propagate()
                    if alive and armed and sweep:
                        self.sweeps += 1
                        alive = self._hidden_singles()
                    break
                stack.pop()
            else:
                break
        self.rewind(root)
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
    eng = _Engine(_EngineGraph(g, c.k, traced=True), c.assignments)
    alive = eng._propagate()
    steps = eng._steps()
    extended = dict(c.assignments)
    for v, col, _ in steps:
        extended[v] = col
    trace = tuple(TraceStep(*step) for step in steps)
    if not alive:
        status = PropagationStatus.DEAD_END
    elif trace:
        status = PropagationStatus.PROGRESS
    else:
        status = PropagationStatus.STUCK
    return PartialColoring(c.k, extended), trace, status


def count_extensions(
    g: Graph, c: PartialColoring, cap: int = 2, clock: Clock | None = None
) -> ExtensionOutcome:
    """Count completions of c to proper k-colorings of g, saturating at cap.

    cap >= 2 so that unique and multiple outcomes stay distinguishable.
    Each call builds its own engine tables for (g, c.k), the k-clique list
    among them: no table outlives the call, so nothing is kept per graph.
    Given a clock, the search raises its BudgetExceededError once the
    deadline has passed (see _Engine).
    """
    if cap < 2:
        raise ValueError(f"cap must be >= 2, got {cap}")
    _check_inputs(g, c)
    return _count(_EngineGraph(g, c.k, traced=True), c, cap, clock)


def _count(
    eg: _EngineGraph, c: PartialColoring, cap: int, clock: Clock | None = None
) -> ExtensionOutcome:
    """count_extensions of c on the tables eg of (g, c.k), without its input checks.

    The caller has checked that cap >= 2 and that c is proper on eg.g. A
    count changes eg only by filling its lazy tables (the k-cliques and the
    chi(N[w]) memo), pure functions of (g, k), so one eg shared by many
    counts gives each the outcome fresh tables would. On traced tables the
    search builds the cliques at its first branch and reads them before that
    only at a dead end of the root, where it stops either way (see search).

    On count-only tables the root is propagated first and, whenever that
    leaves uncolored vertices, the cliques are built and one hidden-single
    sweep runs there (counted in sweeps), so many counts end without a
    branch; a failed sweep leaves the root dead. The sweep lives here, not
    in search: sn_exact's leaf searches call search directly and sweep only
    from their first dead end on, as a sweep at each of their roots measured
    slower on the clique cycles. The outcome's trace is always (): the
    search copies no path into it and no TraceStep is built, so no kept
    hidden single can reach it. Their MULTIPLE witnesses are two
    completions, not necessarily the ones traced tables would find.
    """
    eng = _Engine(eg, c.assignments, clock)
    if not eg.traced and eng._propagate() and eng.uncolored:
        eg.cliques_at()
        if eg.cliques:
            eng.sweeps += 1
            if not eng._hidden_singles():
                eng.dead = True
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
