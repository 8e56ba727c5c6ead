import itertools
import random
import sys
import time

import pytest

sys.path.insert(0, "tests")
from oracles import brute_count_extensions, random_connected_graph, random_proper_partial

from sudokugraph import (
    ColorListState,
    ExtensionKind,
    Family,
    FamilySpec,
    PartialColoring,
    PropagationStatus,
    build,
    chromatic_number,
    count_extensions,
    count_list_colorings,
    generate,
    is_proper,
    propagate,
)
from sudokugraph import extension
from sudokugraph.coloring import (
    RULE_ATTRACTIVE,
    RULE_BRANCH,
    RULE_COLOR_DOMINATING,
    RULE_NEAR_COLOR_DOMINATING,
)
from sudokugraph.generators import sudoku_grid

C13 = generate(FamilySpec(Family.CYCLE, {"n": 13}))
# alternate colors 1/2 on the first eleven odd positions, then color 3 once
C13_SUPPORT = PartialColoring(3, {0: 1, 4: 1, 8: 1, 2: 2, 6: 2, 10: 2, 12: 3})


def test_thirteen_cycle_cascade_is_all_near_color_dominating():
    extended, trace, status = propagate(C13, C13_SUPPORT)
    assert status is PropagationStatus.PROGRESS
    assert len(trace) == 6
    assert all(step.rule == RULE_NEAR_COLOR_DOMINATING for step in trace)
    assert frozenset(extended.assignments) == frozenset(range(13))
    # every even vertex gets 3 except the one next to the color-3 vertex
    want = dict(C13_SUPPORT.assignments)
    want.update({1: 3, 3: 3, 5: 3, 7: 3, 9: 3, 11: 1})
    assert dict(extended.assignments) == want


def test_thirteen_cycle_support_is_sudoku():
    out = count_extensions(C13, C13_SUPPORT)
    assert out.kind is ExtensionKind.UNIQUE
    assert out.count == 1
    assert out.witness1[11] == 1 and out.witness1[1] == 3


def test_six_block_ring_worked_example():
    # three 4-cliques glued on a 6-cycle rim; support pins one vertex per color
    g = generate(FamilySpec(Family.CYCLE_OF_CLIQUES, {"n": 3, "m": 4}))
    support = PartialColoring(4, {0: 1, 2: 2, 4: 3, 6: 4, 8: 4, 11: 4})
    out = count_extensions(g, support)
    assert out.kind is ExtensionKind.UNIQUE
    assert all(step.rule == RULE_NEAR_COLOR_DOMINATING for step in out.trace)
    assert len(out.trace) == 6
    want = {
        0: 1, 3: 1, 10: 1,
        2: 2, 5: 2, 7: 2,
        1: 3, 4: 3, 9: 3,
        6: 4, 8: 4, 11: 4,
    }
    assert out.witness1 == want


def test_color_dominating_fires_on_unused_color():
    g = generate(FamilySpec(Family.PATH, {"n": 3}))
    extended, trace, status = propagate(g, PartialColoring(2, {0: 1, 2: 1}))
    assert status is PropagationStatus.PROGRESS
    assert [(s.vertex, s.color, s.rule) for s in trace] == [(1, 2, "color-dominating")]


def test_five_cycle_unique_support():
    g = generate(FamilySpec(Family.CYCLE, {"n": 5}))
    out = count_extensions(g, PartialColoring(3, {0: 1, 2: 2, 3: 3}))
    assert out.kind is ExtensionKind.UNIQUE
    assert out.count == 1
    assert out.witness1 == {0: 1, 1: 3, 2: 2, 3: 3, 4: 2}
    assert out.witness2 is None


def test_five_cycle_single_vertex_multiple():
    g = generate(FamilySpec(Family.CYCLE, {"n": 5}))
    out = count_extensions(g, PartialColoring(3, {0: 1}))
    assert out.kind is ExtensionKind.MULTIPLE
    assert out.witness1 is not None and out.witness2 is not None
    assert out.witness1 != out.witness2
    for w in (out.witness1, out.witness2):
        full = PartialColoring(3, w)
        assert frozenset(full.assignments) == frozenset(range(5))
        assert is_proper(g, full)
        assert w[0] == 1


def test_propagate_stuck_when_nothing_is_forced():
    g = generate(FamilySpec(Family.CYCLE, {"n": 5}))
    extended, trace, status = propagate(g, PartialColoring(3, {0: 1}))
    assert status is PropagationStatus.STUCK
    assert trace == ()
    assert extended == PartialColoring(3, {0: 1})


def test_propagate_dead_end_on_empty_list():
    g = generate(FamilySpec(Family.PATH, {"n": 3}))
    extended, trace, status = propagate(g, PartialColoring(2, {0: 1, 2: 2}))
    assert status is PropagationStatus.DEAD_END


def test_triangle_with_shared_list_is_not_extendable():
    # triangle where every vertex already excludes color 1: no room for 3 colors
    g = build(4, [(1, 2), (1, 3), (2, 3), (0, 1), (0, 2), (0, 3)])
    out = count_extensions(g, PartialColoring(3, {0: 1}))
    assert out.kind is ExtensionKind.NOT_EXTENDABLE
    assert out.count == 0
    assert out.witness1 is None


def _rim_pendant_wheel(rim: int, pendants_per_rim: int):
    """Wheel on a rim cycle plus pendant leaves hanging off each rim vertex."""
    edges = [(i, (i + 1) % rim) for i in range(rim)]
    hub = rim
    edges += [(i, hub) for i in range(rim)]
    nxt = rim + 1
    pendant_of = {}
    for i in range(rim):
        pendant_of[i] = []
        for _ in range(pendants_per_rim):
            edges.append((i, nxt))
            pendant_of[i].append(nxt)
            nxt += 1
    return build(nxt, edges), hub, pendant_of


def test_attractive_rule_forces_hub():
    # every rim list is {1,2} via pendants, so color 3 is only open at the hub
    g, hub, pendant_of = _rim_pendant_wheel(4, 1)
    support = PartialColoring(3, {p: 3 for ps in pendant_of.values() for p in ps})
    extended, trace, status = propagate(g, support)
    assert status is PropagationStatus.PROGRESS
    assert [(s.vertex, s.color, s.rule) for s in trace] == [(hub, 3, RULE_ATTRACTIVE)]
    assert extended.assignments[hub] == 3
    # rim stays open: the two alternations of the 4-cycle both complete
    out = count_extensions(g, support)
    assert out.kind is ExtensionKind.MULTIPLE


def test_attractive_rule_skipped_beyond_neighborhood_limit(monkeypatch):
    g, hub, pendant_of = _rim_pendant_wheel(4, 1)
    support = PartialColoring(3, {p: 3 for ps in pendant_of.values() for p in ps})
    monkeypatch.setattr(extension, "DEFAULT_ATTRACTIVE_LIMIT", 3)
    extended, trace, status = propagate(g, support)
    assert status is PropagationStatus.STUCK
    assert trace == ()
    out = count_extensions(g, support)
    assert out.kind is ExtensionKind.MULTIPLE


def test_two_attractive_colors_is_a_dead_end():
    # odd rim with both colors 3 and 4 blocked everywhere except the hub
    g, hub, pendant_of = _rim_pendant_wheel(5, 2)
    assignments = {}
    for ps in pendant_of.values():
        assignments[ps[0]] = 3
        assignments[ps[1]] = 4
    support = PartialColoring(4, assignments)
    extended, trace, status = propagate(g, support)
    assert status is PropagationStatus.DEAD_END
    out = count_extensions(g, support)
    assert out.kind is ExtensionKind.NOT_EXTENDABLE


def test_attractive_on_off_agree_on_kind(monkeypatch):
    rng = random.Random(99)
    for _ in range(80):
        g = random_connected_graph(rng, rng.randint(2, 7), extra=0.4)
        chi, _ = chromatic_number(g)
        c = random_proper_partial(rng, g, chi)
        with_rule = count_extensions(g, c)
        with monkeypatch.context() as m:
            m.setattr(extension, "DEFAULT_ATTRACTIVE_LIMIT", 0)
            without = count_extensions(g, c)
        assert with_rule.kind is without.kind


def test_complete_support_counts_once():
    g = generate(FamilySpec(Family.PATH, {"n": 4}))
    full = PartialColoring(2, {0: 1, 1: 2, 2: 1, 3: 2})
    out = count_extensions(g, full)
    assert out.kind is ExtensionKind.UNIQUE
    assert out.count == 1
    assert out.trace == ()
    assert out.witness1 == dict(full.assignments)


def test_empty_support_counts_all_colorings():
    g = generate(FamilySpec(Family.CYCLE, {"n": 5}))
    out = count_extensions(g, PartialColoring(3, {}), cap=50)
    assert out.kind is ExtensionKind.MULTIPLE
    assert out.count == 30


def test_cap_saturates_count():
    g = generate(FamilySpec(Family.CYCLE, {"n": 5}))
    out = count_extensions(g, PartialColoring(3, {}), cap=7)
    assert out.count == 7
    assert out.kind is ExtensionKind.MULTIPLE


def test_cap_below_two_rejected():
    g = generate(FamilySpec(Family.PATH, {"n": 3}))
    with pytest.raises(ValueError):
        count_extensions(g, PartialColoring(2, {}), cap=1)


def test_improper_support_rejected():
    g = generate(FamilySpec(Family.PATH, {"n": 3}))
    with pytest.raises(ValueError):
        count_extensions(g, PartialColoring(2, {0: 1, 1: 1}))


def test_trace_deviations_kill_all_completions():
    # unique extension means any flip of a forced vertex closes every branch
    cases = [
        (C13, C13_SUPPORT),
        (generate(FamilySpec(Family.CYCLE, {"n": 5})), PartialColoring(3, {0: 1, 2: 2, 3: 3})),
    ]
    for g, support in cases:
        out = count_extensions(g, support)
        assert out.kind is ExtensionKind.UNIQUE
        for step in out.trace:
            for other in range(1, support.k + 1):
                if other == step.color:
                    continue
                flipped = PartialColoring(support.k, {**support.assignments, step.vertex: other})
                if not is_proper(g, flipped):
                    continue
                assert brute_count_extensions(g, flipped) == 0


def test_matches_brute_force_on_random_instances():
    rng = random.Random(123)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(2, 7), extra=0.4)
        chi, _ = chromatic_number(g)
        k = chi + rng.choice([0, 0, 1])
        c = random_proper_partial(rng, g, k)
        got = count_extensions(g, c, cap=6)
        want = brute_count_extensions(g, c, cap=6)
        assert got.count == want
        if want == 0:
            assert got.kind is ExtensionKind.NOT_EXTENDABLE
        elif want == 1:
            assert got.kind is ExtensionKind.UNIQUE
        else:
            assert got.kind is ExtensionKind.MULTIPLE


def test_witnesses_are_real_completions():
    rng = random.Random(321)
    seen_multiple = 0
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(3, 7), extra=0.3)
        chi, _ = chromatic_number(g)
        c = random_proper_partial(rng, g, chi, coverage=0.3)
        out = count_extensions(g, c)
        for w in (out.witness1, out.witness2):
            if w is None:
                continue
            full = PartialColoring(c.k, w)
            assert frozenset(full.assignments) == frozenset(range(g.n))
            assert is_proper(g, full)
            for v, col in c.assignments.items():
                assert w[v] == col
        if out.kind is ExtensionKind.MULTIPLE:
            seen_multiple += 1
            assert out.witness1 != out.witness2
    assert seen_multiple > 5


def test_count_list_colorings_reference_values():
    p3 = generate(FamilySpec(Family.PATH, {"n": 3}))
    state = ColorListState({v: frozenset({1, 2}) for v in range(3)})
    assert count_list_colorings(p3, state, cap=10) == 2

    c4 = generate(FamilySpec(Family.CYCLE, {"n": 4}))
    state = ColorListState({v: frozenset({1, 2}) for v in range(4)})
    assert count_list_colorings(c4, state, cap=10) == 2

    c5 = generate(FamilySpec(Family.CYCLE, {"n": 5}))
    lists = {
        0: frozenset({1, 2}),
        1: frozenset({1, 2}),
        2: frozenset({1, 2}),
        3: frozenset({1, 3}),
        4: frozenset({2, 3}),
    }
    assert count_list_colorings(c5, ColorListState(lists), cap=10) == 2

    # odd cycle with identical two-color lists has no list coloring at all
    state = ColorListState({v: frozenset({1, 2}) for v in range(5)})
    assert count_list_colorings(c5, state, cap=10) == 0


def test_count_list_colorings_on_long_path():
    p = generate(FamilySpec(Family.PATH, {"n": 3000}))
    state = ColorListState({v: frozenset({1, 2}) for v in range(p.n)})
    assert count_list_colorings(p, state, cap=10) == 2


def test_count_extensions_on_long_path():
    p = generate(FamilySpec(Family.PATH, {"n": 3000}))
    out = count_extensions(p, PartialColoring(3, {0: 1}))
    assert out.kind is ExtensionKind.MULTIPLE
    assert out.count == 2
    assert out.witness1 != out.witness2
    for w in (out.witness1, out.witness2):
        assert len(w) == p.n and w[0] == 1
        assert is_proper(p, PartialColoring(3, w))


def test_count_list_colorings_validation():
    p3 = generate(FamilySpec(Family.PATH, {"n": 3}))
    with pytest.raises(ValueError):
        count_list_colorings(p3, ColorListState({0: frozenset({1})}), cap=2)
    with pytest.raises(ValueError):
        bad = ColorListState({0: frozenset({1}), 1: frozenset(), 2: frozenset({1})})
        count_list_colorings(p3, bad, cap=2)


def _outcome(g, c, cap):
    out = count_extensions(g, c, cap)
    return out.kind, out.count, out.witness1, out.witness2, out.trace


def _count_calls(monkeypatch, name, counter):
    # Wrap _Engine.<name>, counting the calls and the True answers.
    inner = getattr(extension._Engine, name)

    def spy(self, *args):
        got = inner(self, *args)
        counter["calls"] += 1
        counter["true"] += got is True
        return got

    monkeypatch.setattr(extension._Engine, name, spy)


def _no_cliques(monkeypatch):
    monkeypatch.setattr(extension, "_k_cliques", lambda g, k: ([], 0))


def _clique_cut_cases():
    rng = random.Random(2024)
    for b in (2, 3):
        g = sudoku_grid(b)
        for _ in range(25):
            yield g, random_proper_partial(rng, g, b * b, coverage=rng.uniform(0.05, 0.4)), 2
    for n, m in ((2, 4), (3, 4), (3, 5), (4, 3)):
        g = generate(FamilySpec(Family.CYCLE_OF_CLIQUES, {"n": n, "m": m}))
        for _ in range(10):
            yield g, random_proper_partial(rng, g, m, coverage=rng.uniform(0.0, 0.5)), 3
    for _ in range(80):
        g = random_connected_graph(rng, rng.randint(5, 12), extra=rng.choice([0.6, 0.8]))
        chi, _ = chromatic_number(g)
        k = chi + rng.choice([0, 1])
        yield g, random_proper_partial(rng, g, k, coverage=rng.uniform(0.0, 0.5)), rng.choice([2, 3])


def test_clique_cut_keeps_counts_witnesses_and_traces(monkeypatch):
    cases = list(_clique_cut_cases())
    cut = {"calls": 0, "true": 0}
    with monkeypatch.context() as m:
        _count_calls(m, "_short_clique", cut)
        with_table = [_outcome(g, c, cap) for g, c, cap in cases]
    with monkeypatch.context() as m:
        _no_cliques(m)
        without = [_outcome(g, c, cap) for g, c, cap in cases]
    assert with_table == without
    assert cut["true"] > 0
    kinds = {got[0] for got in with_table}
    assert kinds == set(ExtensionKind)


def _seventeen_clue():
    with open("tests/data/puzzle_17clue.txt", encoding="ascii") as fh:
        text = fh.read().strip()
    givens = {v: int(ch) for v, ch in enumerate(text) if ch != "0"}
    assert len(givens) == 17
    return sudoku_grid(3), PartialColoring(9, givens)


def test_clique_cut_branches_less_on_seventeen_clue_puzzle(monkeypatch):
    g, c = _seventeen_clue()
    runs = []
    for empty in (False, True):
        with monkeypatch.context() as m:
            if empty:
                _no_cliques(m)
            # Each node picks one vertex: it branches on it or cuts it.
            runs.append((_outcome(g, c, 2), _engine_search(g, c, 2)[1].nodes))
    (with_table, nodes_with), (without, nodes_without) = runs
    assert with_table == without
    assert with_table[0] is ExtensionKind.UNIQUE
    assert nodes_with < nodes_without


def _all_k_cliques(g, k):
    return [
        q
        for q in itertools.combinations(range(g.n), k)
        if all(b in g.adj[a] for a, b in itertools.combinations(q, 2))
    ]


def test_k_clique_enumerator_is_complete_within_its_bound():
    rng = random.Random(7)
    complete = 0
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(3, 9), extra=rng.choice([0.5, 0.8]))
        k = rng.randint(3, 5)
        cliques, steps = extension._k_cliques(g, k)
        limit = extension.CLIQUE_STEPS * (g.n + 2 * g.m)
        assert steps <= limit
        every = _all_k_cliques(g, k)
        assert len(set(cliques)) == len(cliques) and set(cliques) <= set(every)
        # A stop leaves fewer than k + 1 steps unspent.
        if steps < limit - k:
            assert sorted(cliques) == every
            complete += 1
    assert complete >= 50
    grid = sudoku_grid(3)
    cliques, _ = extension._k_cliques(grid, 9)
    # rows, columns and boxes
    assert len(cliques) == 27


def test_k_clique_enumerator_stops_at_its_bound():
    k3x20 = generate(FamilySpec(Family.COMPLETE_MULTIPARTITE, {"parts": [3] * 20}))
    for g, k in ((k3x20, 20), (generate(FamilySpec(Family.COMPLETE, {"n": 300})), 300)):
        cliques, steps = extension._k_cliques(g, k)
        assert 0 < steps <= extension.CLIQUE_STEPS * (g.n + 2 * g.m)
        for q in cliques:
            assert len(q) == k
            assert all(b in g.adj[a] for a, b in itertools.combinations(q, 2))
    start = time.process_time()
    out = count_extensions(k3x20, PartialColoring(20, {0: 1}))
    assert time.process_time() - start < 1.0
    assert out.kind is ExtensionKind.MULTIPLE


def test_engine_deadline_stops_search_and_propagation():
    g, c = _seventeen_clue()
    eg = extension._EngineGraph(g, 9)
    assert extension._Engine(eg, c.assignments).search(2) == 1
    with pytest.raises(extension.SearchExpired):
        extension._Engine(eg, c.assignments, deadline=time.perf_counter()).search(2)
    # Placing one color starts attractive steps, which check the clock too.
    coc = generate(FamilySpec(Family.CYCLE_OF_CLIQUES, {"n": 3, "m": 4}))
    eg = extension._EngineGraph(coc, 4)
    assert extension._Engine(eg).place(0, 1)
    with pytest.raises(extension.SearchExpired):
        extension._Engine(eg, deadline=time.perf_counter()).place(0, 1)


def _engine_search(g, c, cap):
    eng = extension._Engine(extension._EngineGraph(g, c.k), c.assignments)
    found = eng.search(cap)
    return (found, eng.witness1, eng.witness2, eng.trace), eng


def _grid_cases():
    rng = random.Random(88)
    g, c = _seventeen_clue()
    solution = count_extensions(g, c).witness1
    given = dict(c.assignments)
    for cap in (2, 3, 5):
        yield g, c, cap
        for b in (2, 3):
            grid = sudoku_grid(b)
            for _ in range(8):
                coverage = rng.uniform(0.05, 0.5)
                yield grid, random_proper_partial(rng, grid, b * b, coverage=coverage), cap
        # The 17-clue puzzle less one clue, and plus one clue that is proper
        # but not the solution's: deep searches with two or more and with no
        # completion.
        less = dict(given)
        del less[rng.choice(sorted(less))]
        yield g, PartialColoring(9, less), cap
        while True:
            v = rng.choice([u for u in range(g.n) if u not in given])
            taken = {given[u] for u in g.adj[v] if u in given} | {solution[v]}
            free = [col for col in range(1, 10) if col not in taken]
            if free:
                yield g, PartialColoring(9, {**given, v: rng.choice(free)}), cap
                break


def test_probe_keeps_counts_witnesses_traces_and_propagation(monkeypatch):
    cases = list(_clique_cut_cases()) + list(_grid_cases())
    with_probe, probe_cuts = [], 0
    for g, c, cap in cases:
        got, eng = _engine_search(g, c, cap)
        with_probe.append(got)
        probe_cuts += eng.probe_cuts
    propagated = [propagate(g, c) for g, c, _ in cases]
    with monkeypatch.context() as m:
        m.setattr(extension._Engine, "_probe", lambda self: True)
        without = [_engine_search(g, c, cap)[0] for g, c, cap in cases]
        assert [propagate(g, c) for g, c, _ in cases] == propagated
    assert with_probe == without
    assert probe_cuts > 0
    assert {min(found, 2) for found, *_ in with_probe} == {0, 1, 2}
    for _, _, _, trace in with_probe:
        rules = {RULE_COLOR_DOMINATING, RULE_NEAR_COLOR_DOMINATING, RULE_ATTRACTIVE, RULE_BRANCH}
        assert all(rule in rules for _, _, rule in trace)


def test_probe_cuts_the_seventeen_clue_search():
    g, c = _seventeen_clue()
    (found, *_), eng = _engine_search(g, c, 2)
    assert found == 1
    assert eng.probe_cuts > 0
    # 671 nodes without the probe.
    assert eng.nodes < 100
    assert count_extensions(g, c).kind is ExtensionKind.UNIQUE


def test_probe_waits_for_the_first_dead_end():
    # Empty grids find two completions without meeting a dead end.
    for b in (2, 3):
        (found, *_), eng = _engine_search(sudoku_grid(b), PartialColoring(b * b, {}), 2)
        assert found == 2 and eng.nodes > 0
        assert eng.clique_cuts == eng.probes == 0


def _cost_cases():
    coc = generate(FamilySpec(Family.CYCLE_OF_CLIQUES_MINUS, {"n": 300, "m": 5}))
    grid = sudoku_grid(4)
    for g, k, seed, coverage in (
        (coc, 4, 1, 0.01),
        (coc, 4, 3, 0.02),
        (grid, 16, 0, 0.05),
        (grid, 16, 3, 0.15),
        (grid, 16, 1, 0.35),
        (grid, 16, 3, 0.35),
    ):
        yield g, random_proper_partial(random.Random(seed), g, k, coverage=coverage)


def test_probe_work_stays_within_the_search_work(monkeypatch):
    inner = extension._Engine._probe
    sizes = []

    def spy(self):
        # A probe starts only while the probe work is at most the search work.
        assert self.probe_work - probe0 <= self.search_work - search0
        before = self.probe_work
        got = inner(self)
        sizes.append(self.probe_work - before)
        return got

    monkeypatch.setattr(extension._Engine, "_probe", spy)
    probes = 0
    for g, c in _cost_cases():
        for cap in (2, 5):
            eng = extension._Engine(extension._EngineGraph(g, c.k), c.assignments)
            search0, probe0 = eng.search_work, eng.probe_work
            sizes.clear()
            eng.search(cap)
            largest = max(sizes, default=0)
            assert eng.probe_work - probe0 <= eng.search_work - search0 + largest
            assert eng.probes == len(sizes)
            probes += eng.probes
    assert probes > 0


def test_probe_checks_the_deadline(monkeypatch):
    inner = extension._Engine._probe
    raised = []

    def expire_then_probe(self):
        self.deadline = time.perf_counter() - 1.0
        try:
            return inner(self)
        except extension.SearchExpired:
            raised.append(self.probes)
            raise

    monkeypatch.setattr(extension._Engine, "_probe", expire_then_probe)
    g, c = _seventeen_clue()
    eng = extension._Engine(
        extension._EngineGraph(g, 9),
        c.assignments,
        deadline=time.perf_counter() + 3600.0,
    )
    with pytest.raises(extension.SearchExpired):
        eng.search(2)
    # Raised before the probe counted itself.
    assert raised == [0]
