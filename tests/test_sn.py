import itertools
import math
import random
import sys
import time
from collections import Counter

import pytest

sys.path.insert(0, "tests")
from oracles import (
    brute_automorphisms,
    brute_connected_graphs,
    brute_has_proper_coloring,
    brute_is_least,
    brute_is_sudoku,
    brute_min_vertex_cover,
    brute_sn,
    canonical_colorings,
    group_order,
    prune_subset,
    random_connected_graph,
    random_proper_partial,
    twin_image_is_smaller_by_rescan,
)

from sudokugraph import (
    BudgetExceededError,
    Certificate,
    Clock,
    DisconnectedGraphError,
    Family,
    FamilySpec,
    ExtensionKind,
    PartialColoring,
    build,
    chromatic_number,
    conjecture_scan,
    count_color_partitions,
    count_extensions,
    expected_sn,
    generate,
    induced_subgraph,
    is_connected,
    is_proper,
    relabel,
    sn_exact,
    verify_certificate,
)
import sudokugraph.canon as canon
import sudokugraph.sn as sn_module
from sudokugraph.extension import _Engine, _EngineGraph
from sudokugraph.generators import complete_multipartite
from sudokugraph.graph import twin_classes
from sudokugraph.sn import (
    PRUNE_PENDANT,
    PRUNE_UNCOLORED_EDGE,
    _evaluate_subset,
    _loser_count,
    _suffix_tables,
    _supports,
    connected_graphs_up_to_iso,
    search_lower_bound,
)


def make(family, **params):
    return generate(FamilySpec(family, params))


def test_canonical_colorings_enumerates_partition_representatives():
    g = build(3, [])
    reps = list(canonical_colorings(g, (0, 1, 2), 3))
    assert len(reps) == 4
    for rep in reps:
        assert frozenset(rep.assignments) == frozenset({0, 1, 2})
        assert len(rep.colors_used) >= 2
        first_colored = min(rep.assignments)
        assert rep.assignments[first_colored] == 1


def test_canonical_colorings_respect_inner_edges():
    g = build(3, [(0, 1), (1, 2)])
    reps = list(canonical_colorings(g, (0, 1), 3))
    for rep in reps:
        assert rep.assignments[0] != rep.assignments[1]
    assert all(is_proper(g, rep) for rep in reps)


def test_canonical_colorings_skip_low_color_supports():
    # with k = 3 a support of two adjacent vertices must use two colors
    g = build(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    reps = list(canonical_colorings(g, (0, 2), 3))
    # non-adjacent pair: 1,1 uses one color and is pruned, 1,2 survives
    assert [dict(r.assignments) for r in reps] == [{0: 1, 2: 2}]


def test_prune_subset_five_cycle_pairs():
    # every vertex has degree 2 = k - 1, so any uncolored edge prunes
    g = make(Family.CYCLE, n=5)
    for u in range(5):
        for v in range(u + 1, 5):
            assert prune_subset(g, (u, v), 3) == PRUNE_UNCOLORED_EDGE


def test_prune_subset_pendant():
    g = make(Family.LOLLIPOP, n=4, m=2)
    subset = tuple(v for v in range(g.n) if v != g.n - 1)
    assert prune_subset(g, subset, 4) == PRUNE_PENDANT


def test_prune_subset_none_for_complete_triple():
    g = make(Family.COMPLETE, n=4)
    assert prune_subset(g, (0, 1, 2), 4) is None


def test_prune_subset_needs_three_colors():
    g = make(Family.PATH, n=4)
    with pytest.raises(ValueError):
        prune_subset(g, (0,), 2)


def test_prune_never_discards_a_sudoku_subset():
    rng = random.Random(77)
    import itertools

    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(3, 6), extra=0.4)
        k, _ = chromatic_number(g)
        if k < 3:
            continue
        for size in range(1, g.n):
            for subset in itertools.combinations(range(g.n), size):
                if prune_subset(g, subset, k) is None:
                    continue
                # pruned: no coloring of this support may be a Sudoku coloring
                for rep in canonical_colorings(g, subset, k):
                    assert not brute_is_sudoku(g, rep)


def _path_in_front(rng, core):
    """core relabelled after a path 0..t-1 that joins it from t-1: vertex 0 is a pendant."""
    tail = rng.randint(1, 3)
    edges = [(u + tail, v + tail) for u, v in core.edges]
    edges += [(i, i + 1) for i in range(tail - 1)]
    edges += [(tail - 1, tail + rng.randrange(core.n))]
    edges += [(rng.randrange(1, tail), tail + rng.randrange(core.n))] if tail > 1 else []
    return build(core.n + tail, sorted(set(edges)))


def test_support_generator_matches_prune_filter():
    # The generator must yield exactly the supports prune_subset keeps, in
    # combinations order, and its cut blocks must cover the rest in place:
    # each block is the next run of pruned supports, split by lemma as
    # prune_subset attributes them. Besides random graphs: graphs whose
    # every degree is at least k, where no lemma fires and every support
    # comes from itertools.combinations, and the same with a path in front,
    # where the lemmas fire only on the path.
    rng = random.Random(91)
    graphs = []
    while len(graphs) < 60:
        g = random_connected_graph(rng, rng.randint(4, 9), extra=rng.choice([0.1, 0.25, 0.45]))
        if chromatic_number(g)[0] >= 3:
            graphs.append(g)
    lemma_free = [
        make(Family.SUDOKU_GRID, b=2),
        make(Family.CYCLE_OF_CLIQUES_MINUS, n=2, m=5),
        make(Family.CYCLE_OF_CLIQUES_MINUS, n=3, m=4),
        make(Family.COMPLETE_MULTIPARTITE, parts=[2, 3, 3]),
        make(Family.COMPLETE_MULTIPARTITE, parts=[1, 2, 2, 3]),
    ]
    graphs += lemma_free
    graphs += [_path_in_front(rng, g) for g in lemma_free[3:] for _ in range(6)]
    # Cliques, odd cycles and wheel rims of low-degree vertices, whose
    # cover a greedy matching undercounts (on all but the tadpole and the
    # friendship graph): each size below the root bound is one cut block.
    covered = [
        make(Family.AMALGAM, m=2, n=4, r=1),
        make(Family.AMALGAM, m=2, n=5, r=1),
        make(Family.WHEEL, n=5),
        make(Family.WHEEL, n=7),
        make(Family.CYCLE, n=7),
        make(Family.CYCLE, n=9),
        make(Family.TADPOLE, n=5, m=3),
        make(Family.FRIENDSHIP, m=3),
    ]
    graphs += covered
    frees, whole = [], []
    for g in graphs:
        k, _ = chromatic_number(g)
        tables = _suffix_tables(g, k, True)
        frees.append(tables[-1])
        whole.append(max(0, tables[3][0] - search_lower_bound(k)))
        for size in range(search_lower_bound(k), g.n):
            combos = list(itertools.combinations(range(g.n), size))
            reasons = [prune_subset(g, s, k) for s in combos]
            items = list(_supports(g.n, size, tables))
            if size < tables[3][0]:
                assert len(items) == 1
            survivors = [s for s, _, _ in items if s is not None]
            assert survivors == [s for s, why in zip(combos, reasons) if why is None]
            tallies = {PRUNE_PENDANT: 0, PRUNE_UNCOLORED_EDGE: 0}
            pos = 0
            for support, pendant_cut, edge_cut in items:
                if support is not None:
                    assert combos[pos] == support
                    pos += 1
                    continue
                cut = reasons[pos : pos + pendant_cut + edge_cut]
                assert pendant_cut + edge_cut > 0
                assert cut.count(PRUNE_PENDANT) == pendant_cut
                assert cut.count(PRUNE_UNCOLORED_EDGE) == edge_cut
                tallies[PRUNE_PENDANT] += pendant_cut
                tallies[PRUNE_UNCOLORED_EDGE] += edge_cut
                pos += pendant_cut + edge_cut
            assert pos == len(combos)
            assert tallies == {
                PRUNE_PENDANT: reasons.count(PRUNE_PENDANT),
                PRUNE_UNCOLORED_EDGE: reasons.count(PRUNE_UNCOLORED_EDGE),
            }
            unpruned = [s for s, _, _ in _supports(g.n, size, _suffix_tables(g, k, False))]
            assert unpruned == combos
    assert frees[60:65] == [0] * 5 and all(0 < x < g.n for x, g in zip(frees[65:77], graphs[65:77]))
    assert whole[77:] == [1, 2, 0, 1, 2, 3, 1, 1]


def _planted_low_graph(rng):
    """Up to 10 vertices: disjoint odd cycles (triangles among them) and a few random edges."""
    n = rng.randint(3, 10)
    rest = list(range(n))
    rng.shuffle(rest)
    edges = set()
    while len(rest) >= 3 and rng.random() < 0.7:
        length = rng.choice([t for t in (3, 5, 7, 9) if t <= len(rest)])
        cycle, rest = rest[:length], rest[length:]
        edges |= {tuple(sorted((cycle[i - 1], cycle[i]))) for i in range(length)}
    edges |= {(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.12}
    return build(n, sorted(edges))


def test_suffix_bound_against_brute_force_vertex_cover():
    # bound[x] is the pendants in [x, n) plus a lower bound on the minimum
    # vertex cover of the low-degree edges between non-pendants inside
    # [x, n); at k = 3 those edges form paths and cycles, and it is exact.
    rng = random.Random(26)
    odd = 0
    for i in range(320):
        k = 3 + i % 2
        g = _planted_low_graph(rng)
        _, _, pendants_from, bound, _ = _suffix_tables(g, k, True)
        deg = [g.degree(v) for v in range(g.n)]
        inner = {v for v in range(g.n) if 2 <= deg[v] <= k - 1}
        for x in range(g.n + 1):
            assert pendants_from[x] == sum(deg[v] == 1 for v in range(x, g.n))
            edges = [(u, v) for u, v in g.edges if x <= u and {u, v} <= inner]
            best = pendants_from[x] + brute_min_vertex_cover(edges)
            assert bound[x] <= best
            assert k == 4 or bound[x] == best
            odd += k == 3 and not brute_has_proper_coloring(build(g.n, edges), 2)
    assert odd > 40  # suffixes with an odd cycle, whose cover beats every matching


def test_sn_exact_subset_budget_boundaries_on_cut_blocks():
    # C_11: chi = 3, sn = 6; every support of sizes 2-5 is pruned
    # (55 + 165 + 330 + 462 = 1012), so the budget is charged in blocks.
    g = make(Family.CYCLE, n=11)
    tables = _suffix_tables(g, 3, True)
    # Its cover bound is 6, so each of those sizes is one block.
    for size, total in zip(range(2, 6), (55, 165, 330, 462)):
        assert list(_supports(g.n, size, tables)) == [(None, 0, total)]
    report = sn_exact(g)
    assert report.sn == 6
    with pytest.raises(BudgetExceededError) as err:
        sn_exact(g, max_subsets=100)
    assert err.value.lower_bound == 3
    assert "subset budget 100 exhausted; sn >= 3" in str(err.value)
    with pytest.raises(BudgetExceededError) as err:
        sn_exact(g, max_subsets=report.subsets_examined - 1)
    assert err.value.lower_bound == 6
    again = sn_exact(g, max_subsets=report.subsets_examined)
    assert again.sn == report.sn
    assert again.certificate.partial == report.certificate.partial
    assert again.subsets_examined == report.subsets_examined
    assert again.colorings_examined == report.colorings_examined
    assert again.pruned_by == report.pruned_by


def test_search_lower_bound():
    assert search_lower_bound(1) == 1
    assert search_lower_bound(2) == 1
    assert search_lower_bound(3) == 2
    assert search_lower_bound(6) == 5


def test_sn_exact_small_table():
    table = [
        (make(Family.PATH, n=6), 1),
        (make(Family.CYCLE, n=4), 1),
        (make(Family.CYCLE, n=7), 4),
        (make(Family.COMPLETE, n=4), 3),
        (make(Family.STAR, n=5), 1),
        (make(Family.FRIENDSHIP, m=2), 2),
        (make(Family.WHEEL, n=4), 2),
        (make(Family.TADPOLE, n=3, m=2), 2),
    ]
    for g, want in table:
        report = sn_exact(g)
        assert report.sn == want
        cert = report.certificate
        assert len(cert.partial.assignments) == want
        assert verify_certificate(cert).ok


def test_sn_exact_matches_brute_force():
    rng = random.Random(55)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(2, 6), extra=0.35)
        assert sn_exact(g).sn == brute_sn(g)


def test_sn_exact_prune_equivalence():
    rng = random.Random(56)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(2, 6), extra=0.35)
        a = sn_exact(g, prune=True)
        b = sn_exact(g, prune=False)
        assert a.sn == b.sn
        assert a.certificate.partial == b.certificate.partial


def _canonical_loop(g, k, subset):
    # The search as defined: every canonical coloring, one full count each.
    tried = 0
    for c in canonical_colorings(g, subset, k):
        tried += 1
        if count_extensions(g, c, 2).kind is ExtensionKind.UNIQUE:
            return tried, dict(c.assignments)
    return tried, None


def _support_engine(g, k):
    # An empty engine as sn_exact builds it, count-only (no attractive rule),
    # reused by every support walk.
    return _Engine(_EngineGraph(g, k, traced=False))


def _walk_every_support(g, check=True):
    # One count-only engine walks every support the generator yields, in its
    # order, and must agree on each with the loop, whose count_extensions
    # keeps the attractive rule, unless check is off. Returns (k, the walk's
    # cut prefixes).
    k, _ = chromatic_number(g)
    eng = _support_engine(g, k)
    tables = _suffix_tables(g, k, k >= 3)
    twins = sum(twin_classes(g), [])
    for size in range(search_lower_bound(k), g.n):
        counters = {}  # shared by the supports of one size, as in sn_exact
        for subset, _, _ in _supports(g.n, size, tables):
            if subset is not None:
                got = _evaluate_subset(eng, subset, counters, twins)
                assert not check or got == _canonical_loop(g, k, subset)
    assert not eng.journal and not any(eng.color)
    assert eng.lists == [(1 << k) - 1] * g.n
    return k, eng.walk_cuts


def _cuts_of_other_scans(monkeypatch, g):
    """The walk cuts when every neighbour is scanned, and when the clique table is built first."""
    with monkeypatch.context() as m:
        cliques_at = _EngineGraph.cliques_at

        def scan_every_neighbour(self):
            at = cliques_at(self)
            self.free_scan = self.adj
            return at

        m.setattr(_EngineGraph, "cliques_at", scan_every_neighbour)
        every = _walk_every_support(g, check=False)[1]
    with monkeypatch.context() as m:
        inner = _EngineGraph.__init__

        def init(self, *args, **kwargs):
            inner(self, *args, **kwargs)
            self.cliques_at()

        m.setattr(_EngineGraph, "__init__", init)
        built = _walk_every_support(g, check=False)[1]
    return every, built


def test_support_walk_matches_canonical_coloring_loop(monkeypatch):
    # Each walk cuts the same prefixes as when it scanned every neighbour,
    # whether the clique table is built lazily (as in sn_exact) or first.
    rng = random.Random(94)
    bipartite = cut = 0
    for _ in range(100):
        g = random_connected_graph(rng, rng.randint(3, 9), extra=rng.choice([0.0, 0.15, 0.35, 0.6]))
        k, cuts = _walk_every_support(g)
        assert _cuts_of_other_scans(monkeypatch, g) == (cuts, cuts)
        bipartite += k == 2
        cut += cuts > 0
    assert bipartite >= 5 and cut >= 20
    # Low-degree families, where a vertex outside S is often left free to
    # change color. The even wheels are covered by triangles (k = 3), so a
    # vertex whose neighbours are all colored has one color left on them.
    families = [make(Family.CYCLE, n=n) for n in (5, 7, 9, 11)]
    families += [make(Family.TADPOLE, n=n, m=m) for n, m in ((3, 3), (5, 2), (5, 4), (7, 3))]
    families += [make(Family.WHEEL, n=n) for n in (5, 7, 9)]
    for g in families:
        cuts = _walk_every_support(g)[1]
        assert cuts > 0 and _cuts_of_other_scans(monkeypatch, g) == (cuts, cuts)
    for n in (6, 8):
        assert _walk_every_support(make(Family.WHEEL, n=n))[1] == 0


def _twins_oracle(g):
    # Pairs u < v with N(u) - {v} == N(v) - {u}, split by adjacency.
    closed, opened = set(), set()
    for u, v in itertools.combinations(range(g.n), 2):
        if set(g.adj[u]) - {v} == set(g.adj[v]) - {u}:
            (closed if v in g.adj[u] else opened).add((u, v))
    return closed, opened


def _pairs(classes):
    return {
        (u, v) for c in classes for u, v in itertools.combinations(range(c.bit_length()), 2)
        if c >> u & 1 and c >> v & 1
    }


def test_twin_classes_match_the_pair_definition():
    rng = random.Random(95)
    graphs = [random_connected_graph(rng, rng.randint(2, 9), extra=rng.choice([0.1, 0.4, 0.8]))
              for _ in range(200)]
    graphs += [make(Family.COMPLETE_MULTIPARTITE, parts=[1, 2, 3]), make(Family.FRIENDSHIP, m=3),
               make(Family.CYCLE_OF_CLIQUES, n=3, m=5), make(Family.STAR, n=5)]
    for g in graphs:
        closed, opened = twin_classes(g)
        assert (_pairs(closed), _pairs(opened)) == _twins_oracle(g), g.edges


# Graphs with twin pairs, and whether the twin-swap skip fires on their
# supports. In a complete multipartite graph a prefix that splits a part dies
# before both twins are placed.
TWIN_GRAPHS = [
    (Family.COMPLETE_MULTIPARTITE, {"parts": [1, 3, 3]}, False),
    (Family.COMPLETE_MULTIPARTITE, {"parts": [2, 2, 3]}, False),
    (Family.FRIENDSHIP, {"m": 3}, True),
    (Family.FRIENDSHIP, {"m": 4}, True),
    (Family.CYCLE_OF_CLIQUES, {"n": 2, "m": 4}, True),
    (Family.CYCLE_OF_CLIQUES, {"n": 2, "m": 5}, True),
]


@pytest.mark.parametrize("family, params, fires", TWIN_GRAPHS)
def test_twin_swap_skip_keeps_the_walk_of_every_support(monkeypatch, family, params, fires):
    # Each support holding a twin pair is walked with the skip and must give
    # the plain loop's count and winner. Reversing the comparison, so that a
    # prefix is skipped when its image is larger, skips the lex-first winner
    # of some support: this fails then.
    g = make(family, **params)
    k, _ = chromatic_number(g)
    twins = sum(twin_classes(g), [])
    skips = []
    inner = sn_module._twin_image_is_smaller

    def spy(colors, used, swaps, i):
        smaller = inner(colors, used, swaps, i)
        skips.append(smaller)
        return smaller

    monkeypatch.setattr(sn_module, "_twin_image_is_smaller", spy)
    eng = _support_engine(g, k)
    wins = 0
    for size in range(search_lower_bound(k), g.n):
        counters = {}
        for subset in itertools.combinations(range(g.n), size):
            inside = sum(1 << v for v in subset)
            if not any((c & inside).bit_count() > 1 for c in twins):
                continue
            want = _canonical_loop(g, k, subset)
            assert _evaluate_subset(eng, subset, counters, twins) == want, subset
            wins += want[1] is not None
    assert any(skips) == fires and wins > 0


def test_twin_image_comparison_renames_by_first_use():
    # Positions 0..3 of a prefix, twins at positions a and b.
    smaller = sn_module._twin_image_is_smaller
    used = [0, 1, 2, 2, 3]
    # 1 2 1 3 with (0, 2) swapped reads 1 2 1 3 again: not smaller.
    assert not smaller([1, 2, 1, 3], used, [(2, 0)], 3)
    # 1 2 2 3 with (1, 3) swapped reads 1 3 2 2, renamed 1 2 3 3: larger.
    assert not smaller([1, 2, 2, 3], used, [(3, 1)], 3)
    # 1 2 3 2 with (1, 2) swapped reads 1 3 2 2, renamed 1 2 3 3: larger.
    assert not smaller([1, 2, 3, 2], [0, 1, 2, 3, 3], [(2, 1)], 3)
    # 1 2 3 3 with (1, 2) swapped reads 1 3 2 3, renamed 1 2 3 2: smaller.
    assert smaller([1, 2, 3, 3], [0, 1, 2, 3, 3], [(2, 1)], 3)
    # The same pair on the prefix up to position 2 ties: not smaller yet.
    assert not smaller([1, 2, 3, 3], [0, 1, 2, 3, 3], [(2, 1)], 2)
    # A pair not yet placed at position i is not looked at.
    assert not smaller([1, 2, 3, 3], [0, 1, 2, 3, 3], [(3, 0)], 2)
    # 1 2 1 with (1, 2) swapped reads 1 1 2: smaller.
    assert smaller([1, 2, 1], [0, 1, 2, 2], [(2, 1)], 2)


def test_twin_image_verdict_matches_rescan_on_random_prefixes():
    # The O(1) verdict per swap against the reference that renames and
    # compares the whole swapped prefix, on random canonical prefixes.
    rng = random.Random(28)
    smaller = 0
    for _ in range(20_000):
        t, k = rng.randint(2, 9), rng.randint(2, 5)
        colors, used = [], [0]
        for _ in range(t):
            colors.append(rng.randint(1, min(k, used[-1] + 1)))
            used.append(max(used[-1], colors[-1]))
        i = rng.randrange(t)
        swaps = sorted((b, a) for a, b in itertools.combinations(range(t), 2) if rng.random() < 0.3)
        want = twin_image_is_smaller_by_rescan(colors, used, swaps, i)
        assert sn_module._twin_image_is_smaller(colors, used, swaps, i) == want, (colors, swaps, i)
        smaller += want
    assert 2_000 < smaller < 18_000


def _closed_twin_prefix(rng):
    """A random canonical prefix, its twin positions colored apart, and its last position."""
    while True:
        t, k = rng.randint(2, 9), rng.randint(2, 6)
        at = sorted(rng.sample(range(t), rng.randint(2, min(t, k))))
        colors, used = [], [0]
        for j in range(t):
            free = [c for c in range(1, min(k, used[-1] + 1) + 1)
                    if j not in at or c not in {colors[a] for a in at if a < j}]
            if not free:
                break
            colors.append(rng.choice(free))
            used.append(max(used[-1], colors[-1]))
        else:
            return colors, used, at, rng.randrange(t)


def test_consecutive_closed_twin_swaps_give_the_all_pairs_verdict():
    # Closed twins are adjacent, so a proper prefix colors them apart. On
    # such prefixes the swaps of consecutive class members skip exactly the
    # prefixes that the swaps of all member pairs skip.
    rng = random.Random(29)
    smaller = 0
    for _ in range(20_000):
        colors, used, at, i = _closed_twin_prefix(rng)
        pairs = sorted((b, a) for a, b in itertools.combinations(at, 2))
        consecutive = sorted((b, a) for a, b in zip(at, at[1:]))
        want = sn_module._twin_image_is_smaller(colors, used, pairs, i)
        assert sn_module._twin_image_is_smaller(colors, used, consecutive, i) == want, (colors, at, i)
        smaller += want
    assert 2_000 < smaller < 18_000


def test_twin_swaps_pair_consecutive_class_members():
    # Positions count the support's vertices; a class of t members in the
    # support gives t - 1 swaps, each (later, earlier).
    twins = [0b1111000, 0b110]
    assert sn_module._twin_swaps(twins, 0b1111111) == [(2, 1), (4, 3), (5, 4), (6, 5)]
    assert sn_module._twin_swaps(twins, 0b1101010) == [(2, 1), (3, 2)]
    assert sn_module._twin_swaps(twins, 0b0001111) == [(2, 1)]


def test_sn_of_a_large_complete_graph_within_budget():
    # One support of K_600 is one twin class of 599 vertices. A walk that
    # rescanned the prefix for each swap, or that swapped all 179,101 pairs
    # of the class, ran past 5 s.
    report = sn_exact(make(Family.COMPLETE, n=600), max_seconds=5)
    assert report.sn == 599
    assert verify_certificate(report.certificate).ok


def test_walk_scans_no_free_vertex_where_every_vertex_is_in_a_clique(monkeypatch):
    # Every vertex of the 4x4 grid lies in a 4-clique, so once the clique
    # table is built the walk runs no scan for a vertex free to change color.
    # A placement scans when it is live after propagation and the tables
    # list neighbours to scan: it is then kept or cut.
    scans = []
    inner = _Engine.place

    def spy(self, v, col, inside):
        cuts = self.walk_cuts
        alive = inner(self, v, col, inside)
        if self.eg.free_scan and (alive or self.walk_cuts > cuts):
            scans.append(v)
        return alive

    monkeypatch.setattr(_Engine, "place", spy)
    g = make(Family.SUDOKU_GRID, b=2)
    eng = _support_engine(g, 4)
    eng.eg.cliques_at()
    assert eng.eg.free_scan == ()
    for subset in itertools.combinations(range(g.n), 3):
        _evaluate_subset(eng, subset, {})
    assert not scans and eng.walk_cuts == 0
    # sn_exact scans only until its first search has branched.
    searches = _count_searches(monkeypatch)
    sn_exact(g)
    assert len(scans) < 10 < len(searches)


def _count_searches(monkeypatch):
    searches = []
    inner = _Engine.search

    def spy(self, cap):
        searches.append(self)
        return inner(self, cap)

    monkeypatch.setattr(_Engine, "search", spy)
    return searches


def test_sn_exact_leaf_searches_sweep_only_after_a_dead_end(monkeypatch):
    # The root sweep belongs to a count of a whole partial coloring
    # (extension._count). sn_exact searches its shared engine directly, and
    # a sweep at each leaf search's root slowed these graphs.
    sweeps = []
    inner = _Engine._hidden_singles

    def spy(self):
        sweeps.append(self)
        return inner(self)

    monkeypatch.setattr(_Engine, "_hidden_singles", spy)
    searches = _count_searches(monkeypatch)
    for g in (make(Family.CYCLE_OF_CLIQUES, n=3, m=4), make(Family.SUDOKU_GRID, b=2)):
        before = len(searches)
        sn_exact(g)
        assert len(searches) > before and not sweeps


def test_sn_exact_cuts_the_winning_walk_of_c19(monkeypatch):
    # Every support but the winner is cut by the lemmas, and the winner's
    # walk leaves a rim vertex free to change color on all but one live
    # prefix: 821 live leaves each ran a completion search before the cut.
    searches = _count_searches(monkeypatch)
    report = sn_exact(make(Family.CYCLE, n=19))
    assert len(searches) <= 5
    support = dict.fromkeys((0, 3, 7, 11, 15), 1) | dict.fromkeys((1, 5, 9, 13, 17), 2)
    assert (report.sn, report.certificate.partial.assignments) == (10, support)
    assert report.subsets_examined == 277_646
    assert report.colorings_examined == 821
    assert report.pruned_by == {PRUNE_PENDANT: 0, PRUNE_UNCOLORED_EDGE: 277_645}


def test_sn_exact_cuts_at_a_vertex_freed_by_propagation(monkeypatch):
    # Placing a support vertex can leave a rim vertex that is not its
    # neighbour free to change color, once propagation has colored the rest
    # of that vertex's neighbourhood. Checking only the neighbours of the
    # placed vertex, the walk ran 11 completion searches.
    searches = _count_searches(monkeypatch)
    report = sn_exact(make(Family.WHEEL, n=13))
    assert len(searches) == 1
    assert (report.sn, report.colorings_examined) == (7, 30)


def test_sn_exact_counts_long_cycle_walks_without_stepping():
    # Below each skipped prefix the walk counts the colorings instead of
    # stepping through them: C_101 has about 3 * 10**22 below its winner.
    report = sn_exact(make(Family.CYCLE, n=101), max_seconds=2)
    assert report.sn == 51
    assert verify_certificate(report.certificate).ok


@pytest.mark.slow
def test_sn_exact_counts_a_thousand_position_walk_iteratively():
    # The winning support has 1,001 positions, as deep as the recursion
    # limit, so the counter keeps its own stack.
    assert sys.getrecursionlimit() <= 1000
    assert sn_exact(make(Family.CYCLE, n=2001), max_seconds=30).sn == 1001


def test_loser_count_matches_the_partition_counts():
    # Every canonical coloring of a support is a partition of G[S] into
    # need..k classes, need = max(k - 1, 1), counted as count_color_partitions
    # counts at most k classes.
    rng = random.Random(2113)
    for _ in range(150):
        g = random_connected_graph(rng, rng.randint(2, 9), extra=rng.choice([0.0, 0.2, 0.5, 0.8]))
        for _ in range(4):
            subset = tuple(sorted(rng.sample(range(g.n), rng.randint(1, g.n))))
            sub, _ = induced_subgraph(g, subset)
            for k in (2, 3, 4, 5):
                fewer = search_lower_bound(k) - 1
                want = count_color_partitions(sub, k) - count_color_partitions(sub, fewer)
                assert _loser_count(g, k, subset, {}, None) == want, (g.edges, subset, k)


def test_support_walk_checks_the_clock_at_cut_leaves(monkeypatch):
    # The clock runs out just after the first cut of C_19's winning walk.
    # The walk must stop at its next leaf; without its own check it would
    # walk every cut leaf and stop only at the winner's completion search.
    now = [0.0]
    monkeypatch.setattr(Clock, "now", staticmethod(lambda: now[0]))
    place = _Engine.place

    def place_spy(self, v, col, inside):
        if self.walk_cuts:
            now[0] = 2.0
        return place(self, v, col, inside)

    monkeypatch.setattr(_Engine, "place", place_spy)
    searches = _count_searches(monkeypatch)
    with pytest.raises(BudgetExceededError) as err:
        sn_exact(make(Family.CYCLE, n=19), max_seconds=1.0)
    assert err.value.lower_bound == 10
    assert now[0] == 2.0 and searches == []


def test_sn_exact_shares_a_callers_clock():
    g = make(Family.CYCLE, n=9)
    clock = Clock(3600)
    assert _report_key(sn_exact(g, clock=clock)) == _report_key(sn_exact(g))
    assert clock.lower_bound == 5
    with pytest.raises(BudgetExceededError):
        sn_exact(g, clock=Clock(0))
    with pytest.raises(ValueError, match="not both"):
        sn_exact(g, max_seconds=1, clock=clock)


def _report_key(r):
    return (r.sn, r.certificate, r.subsets_examined, r.colorings_examined, r.pruned_by)


def test_sn_exact_keeps_no_state_between_searches(monkeypatch):
    a = make(Family.CYCLE_OF_CLIQUES_MINUS, n=2, m=5)
    b = make(Family.WHEEL, n=7)
    alone = {g: _report_key(sn_exact(g)) for g in (a, b)}
    # Each search finds the twin classes anew and counts twin-settled
    # supports in a memo of its own that starts empty.
    searches = []
    twins, count = sn_module.twin_classes, sn_module._loser_count

    def twins_spy(g):
        searches.append((g, []))
        return twins(g)

    def count_spy(g, k, subset, memo, clock):
        searches[-1][1].append((memo, len(memo)))
        return count(g, k, subset, memo, clock)

    with monkeypatch.context() as m:
        m.setattr(sn_module, "twin_classes", twins_spy)
        m.setattr(sn_module, "_loser_count", count_spy)
        for g in (a, b, a, b, b, a):
            assert _report_key(sn_exact(g)) == alone[g]
    assert [g for g, _ in searches] == [a, b, a, b, b, a]
    memos = []
    for g, seen in searches:
        assert bool(seen) == (g is a)
        if seen:
            assert seen[0][1] == 0 and all(memo is seen[0][0] for memo, _ in seen)
            memos.append(seen[0][0])
    assert len({id(memo) for memo in memos}) == 3
    # Two engines walked in turn answer as each does alone.
    engines = {g: _support_engine(g, chromatic_number(g)[0]) for g in (a, b)}
    for subset in itertools.combinations(range(7), 4):
        for g in (a, b):
            k = engines[g].eg.k
            assert _evaluate_subset(engines[g], subset, {}) == _canonical_loop(g, k, subset)


def test_sn_exact_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sn_exact(build(1, []))
    with pytest.raises(DisconnectedGraphError):
        sn_exact(build(4, [(0, 1), (2, 3)]))


def test_sn_exact_budget_carries_lower_bound():
    g = make(Family.LOLLIPOP, n=5, m=3)
    with pytest.raises(BudgetExceededError) as err:
        sn_exact(g, max_subsets=2)
    assert err.value.lower_bound == 4


def test_report_counters_track_work():
    g = make(Family.CYCLE, n=5)
    report = sn_exact(g)
    assert report.subsets_examined == 12
    assert report.pruned_by == {PRUNE_PENDANT: 0, PRUNE_UNCOLORED_EDGE: 11}
    assert report.colorings_examined == 3
    assert report.elapsed_seconds >= 0.0
    no_prune = sn_exact(g, prune=False)
    assert no_prune.pruned_by == {PRUNE_PENDANT: 0, PRUNE_UNCOLORED_EDGE: 0}
    assert no_prune.colorings_examined > report.colorings_examined


def test_verify_certificate_catches_defects():
    g = make(Family.CYCLE, n=5)
    good = sn_exact(g).certificate

    wrong_size = Certificate(g, good.partial, 2, "exact-search")
    res = verify_certificate(wrong_size)
    assert not res.ok
    assert any(c["name"] == "support-size" and not c["ok"] for c in res.checks)

    improper = Certificate(g, PartialColoring(3, {0: 1, 1: 1, 2: 2}), 3, "hand")
    res = verify_certificate(improper)
    assert not res.ok
    assert any(c["name"] == "proper" and not c["ok"] for c in res.checks)

    ambiguous = Certificate(g, PartialColoring(3, {0: 1, 1: 2, 2: 1}), 3, "hand")
    res = verify_certificate(ambiguous)
    assert not res.ok
    assert any(c["name"] == "unique-extension" and not c["ok"] for c in res.checks)

    disconnected = Certificate(build(3, [(0, 1)]), PartialColoring(2, {0: 1, 2: 1}), 2, "hand")
    res = verify_certificate(disconnected)
    assert not res.ok


def test_verify_certificate_exact_rejects_oversized_support():
    g = make(Family.CYCLE, n=5)
    oversized = Certificate(g, PartialColoring(3, {0: 1, 1: 2, 2: 1, 3: 3}), 4, "hand")
    assert verify_certificate(oversized).ok
    res = verify_certificate(oversized, exact=True)
    assert not res.ok
    assert any(c["name"] == "minimal" and not c["ok"] for c in res.checks)


def test_verify_certificate_answers_sparse_certificates_within_budget():
    # Only the kind of the completion count is read, so it runs on
    # count-only tables: a traced count ran out of the 5 s budget on both.
    g = make(Family.CYCLE_OF_CLIQUES_MINUS, n=300, m=5)
    for seed, coverage, kind in ((4, 0.01, "multiple"), (0, 0.05, "not-extendable")):
        c = random_proper_partial(random.Random(seed), g, 4, coverage)
        cert = Certificate(g, c, len(c.assignments), "hand")
        start = time.perf_counter()
        res = verify_certificate(cert, clock=Clock(5))
        assert time.perf_counter() - start < 5
        assert not res.ok
        assert {"name": "unique-extension", "ok": False, "detail": f"kind={kind}"} in res.checks


def test_sn_relabeling_invariance():
    rng = random.Random(58)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randint(2, 6), extra=0.4)
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert sn_exact(g).sn == sn_exact(relabel(g, perm)).sn


def test_conjecture_scan_small():
    rep = conjecture_scan(4)
    assert rep.classes_scanned == {2: 1, 3: 2, 4: 6}
    assert rep.counterexamples == []
    assert len(rep.extremal) == 3
    for row in rep.extremal:
        assert row["complete"]
    rep5 = conjecture_scan(5)
    assert rep5.classes_scanned[5] == 21
    assert rep5.counterexamples == []


def test_conjecture_scan_validates_range():
    with pytest.raises(ValueError):
        conjecture_scan(1)
    with pytest.raises(ValueError):
        conjecture_scan(9)


def test_conjecture_scan_to_8():
    # OEIS A001349 counts the classes; K_2 .. K_8 are the only extremal ones.
    report = conjecture_scan(8, max_seconds=60)
    assert report.classes_scanned == {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
    assert [(row["n"], row["complete"]) for row in report.extremal] == [
        (n, True) for n in range(2, 9)
    ]
    assert report.counterexamples == []


def test_conjecture_scan_budget():
    with pytest.raises(BudgetExceededError):
        conjecture_scan(6, max_seconds=0.0)


# (stage, which of its steps, n at that step). The clock passes the deadline
# as the walk yields its first class (K_2), or as a call starts: the first
# (k - 1)-coloring search runs at n = 4, on K_4 - e; the first pair test is
# K_2's, which needs the partition search, and the second is P_3's, which the
# walk's 2-coloring answers without one.
SCAN_STAGES = [
    ("connected_graphs_up_to_iso", 0, 2),
    ("find_k_coloring", 0, 4),
    ("_is_extremal", 0, 2),
    ("_is_extremal", 1, 3),
]


@pytest.mark.parametrize(
    "stage, step, n", SCAN_STAGES,
    ids=["walk", "k-1-coloring", "pair-test-search", "pair-test-answered"],
)
def test_conjecture_scan_budget_stops_inside_a_class(monkeypatch, stage, step, n):
    # Once the deadline has passed, no stage may complete another step: the
    # walk yields no further class, and no coloring search or pair test
    # returns. A check only between classes would let the walk yield the
    # next class, and a pair test that checks the clock only in its search
    # would return for P_3.
    now = 0.0
    monkeypatch.setattr(Clock, "now", staticmethod(lambda: now))
    done = []  # completed steps, in order
    steps = Counter()
    late = None  # len(done) as the deadline passed

    def reach(name):
        nonlocal now, late
        if name == stage and steps[name] == step:
            now, late = 100.0, len(done)
        steps[name] += 1

    real_walk = sn_module.connected_graphs_up_to_iso

    def walk(*args, **kwargs):
        for item in real_walk(*args, **kwargs):
            done.append("connected_graphs_up_to_iso")
            reach("connected_graphs_up_to_iso")
            yield item

    def wrap(name):
        real = getattr(sn_module, name)

        def wrapper(*args, **kwargs):
            reach(name)
            result = real(*args, **kwargs)
            done.append(name)
            return result

        return wrapper

    monkeypatch.setattr(sn_module, "connected_graphs_up_to_iso", walk)
    for name in ("find_k_coloring", "_is_extremal"):
        monkeypatch.setattr(sn_module, name, wrap(name))
    with pytest.raises(BudgetExceededError, match=rf"^time budget 1\.0s exhausted during scan at n={n}$"):
        conjecture_scan(4, max_seconds=1.0)
    assert late is not None
    assert len(done) == late, done[late:]


def _pair_tests(g):
    """The pair test from scratch, and started from chromatic_number's witness."""
    k, witness = chromatic_number(g)
    color = [witness.assignments[v] for v in range(g.n)]
    return sn_module._is_extremal(g, k), sn_module._is_extremal(g, k, color=color)


def test_pair_test_matches_sn_exact_on_every_class_up_to_6():
    classes = extremal = 0
    for n in range(2, 7):
        for g, k, color in connected_graphs_up_to_iso(n):
            expect = sn_exact(g).sn == n - 1
            assert _pair_tests(g) == (expect, expect), g.edges
            # Started from the walk's carried coloring, too.
            assert sn_module._is_extremal(g, k, color=color) == expect, g.edges
            classes += 1
            extremal += expect
    assert (classes, extremal) == (142, 5)  # K_2 .. K_6


def test_pair_test_matches_sn_exact_on_random_graphs():
    rng = random.Random(16)
    extremal = 0
    for _ in range(320):
        n = rng.randint(2, 8)
        g = random_connected_graph(rng, n, extra=rng.choice((0.2, 0.5, 0.9)))
        perm = list(range(n))
        rng.shuffle(perm)
        g = relabel(g, perm)
        expect = sn_exact(g).sn == n - 1
        assert _pair_tests(g) == (expect, expect), g.edges
        extremal += expect
    assert extremal >= 20


def test_walk_carries_chromatic_number_and_a_chi_coloring():
    # chi(P - e) is chi(P) or chi(P) - 1, and the walk decides which; the
    # coloring it carries is proper and uses exactly chi colors.
    for n in range(1, 8):
        for g, k, color in connected_graphs_up_to_iso(n):
            assert k == chromatic_number(g)[0], g.edges
            assert len(color) == n and set(color) == set(range(1, k + 1)), (g.edges, color)
            assert all(color[u] != color[v] for u, v in g.edges), (g.edges, color)


def test_pair_test_counts_adjacent_pairs():
    # The paw: triangle 0-1-2 plus the edge 0-3. Only adjacent pairs leave
    # one completion: with f(2) = 3 and f(3) = 2, the uncolored edge 0-1 must
    # take 1 and 2 in that order.
    paw = build(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    assert sn_exact(paw).sn == 2
    assert _pair_tests(paw) == (False, False)


def test_conjecture_scan_does_not_run_sn_exact(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("conjecture_scan called sn_exact")

    monkeypatch.setattr(sn_module, "sn_exact", refuse)
    report = conjecture_scan(6)
    assert report.classes_scanned == {2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
    assert [row["n"] for row in report.extremal] == [2, 3, 4, 5, 6]


# OEIS A001349: connected graphs on n vertices up to isomorphism.
A001349 = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


def test_orderly_generator_matches_brute_force_enumerator():
    # Same canonical representatives, same labels, same order.
    for n, count in A001349.items():
        orderly = [g for g, _, _ in connected_graphs_up_to_iso(n)]
        assert len(orderly) == count
        assert all(g.n == n for g in orderly)
        assert [g.edges for g in orderly] == [g.edges for g in brute_connected_graphs(n)]


def test_orderly_generator_n7():
    gs = [g for g, _, _ in connected_graphs_up_to_iso(7)]
    pairs = [(u, v) for u in range(7) for v in range(u + 1, 7)]
    assert len(gs) == 853  # OEIS A001349
    assert gs[0].edges == tuple((0, v) for v in range(1, 7))
    assert gs[-1].edges == tuple(pairs)
    masks = [sum(1 << pairs.index(e) for e in g.edges) for g in gs]
    assert all(a < b for a, b in zip(masks, masks[1:]))


def _mask(nbr):
    n = len(nbr)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return sum(1 << i for i, (u, v) in enumerate(pairs) if nbr[u] >> v & 1)


def test_is_least_matches_permutation_oracle_on_orderly_walk(monkeypatch):
    # Every child the walk tests for n <= 6 gets the oracle's verdict, and
    # the walk follows the oracle, so it tests the oracle's children. A
    # child P - e that an automorphism of P, among those the walk holds for
    # P, maps to P - f with f a later pair is rejected untested: each such
    # child must be non-canonical, and every other connected child is tested.
    tested = {}  # (n, mask) -> the automorphisms _is_least handed back, or None
    real = sn_module._is_least

    def spy(nbr):
        gens = real(nbr)
        assert (gens is not None) == brute_is_least(len(nbr), _mask(nbr))
        tested[len(nbr), _mask(nbr)] = gens
        return gens

    monkeypatch.setattr(sn_module, "_is_least", spy)
    rejected = 0
    for n, count in A001349.items():
        classes = [g for g, _, _ in connected_graphs_up_to_iso(n)]
        assert len(classes) == count
        pairs = list(itertools.combinations(range(n), 2))
        swaps = [  # the root K_n's: the adjacent transpositions
            tuple(v + 1 if w == v else v if w == v + 1 else w for w in range(n)) for v in range(n - 1)
        ]
        for g in classes[:-1]:
            # Each class but K_n came from a search that handed back its gens.
            assert tested[n, _mask(_nbr(g))] is not None
        for g in classes:
            mask = _mask(_nbr(g))
            gens = swaps if g.m == len(pairs) else tested[n, mask]
            for b in range((~mask & mask + 1).bit_length() - 1):  # mask's trailing ones
                child = mask ^ 1 << b
                u, v = pairs[b]
                if child.bit_count() < n - 1:
                    continue
                if any(pairs.index(tuple(sorted((s[u], s[v])))) > b for s in gens):
                    assert not brute_is_least(n, child), (g.edges, (u, v))
                    assert (n, child) not in tested
                    rejected += 1
                else:
                    assert ((n, child) in tested) == _connected(n, child)
    verdicts = Counter(gens is not None for gens in tested.values())
    assert verdicts[True] == sum(A001349.values()) - len(A001349)
    assert (verdicts[False], rejected) == (29, 230)


def test_is_least_hands_back_generators_of_the_automorphism_group():
    # Each leaf relabelling and twin transposition _is_least hands back is
    # an automorphism of the class (n <= 7), and together they generate the
    # whole group, of the order brute force counts (n <= 6).
    generated = 0
    for n in range(1, 8):
        for g, _, _ in connected_graphs_up_to_iso(n):
            gens = sn_module._is_least(_nbr(g))
            edges = set(g.edges)
            for gamma in gens:
                assert sorted(gamma) == list(range(n)), (g.edges, gamma)
                image = {tuple(sorted((gamma[u], gamma[v]))) for u, v in edges}
                assert image == edges, (g.edges, gamma)
            if n <= 6:
                assert group_order(n, gens) == len(brute_automorphisms(g)), g.edges
                generated += 1
    assert generated == sum(A001349.values())


def _connected(n, mask):
    pairs = list(itertools.combinations(range(n), 2))
    return is_connected(build(n, [p for i, p in enumerate(pairs) if mask >> i & 1]))


@pytest.mark.slow
def test_is_least_matches_permutation_oracle_on_random_n7():
    rng = random.Random(12)
    verdicts = []
    for t in range(2000):
        g = random_connected_graph(rng, 7, extra=rng.random())
        if t % 2:
            # Higher degree first pushes edges down the mask, near the least one.
            order = sorted(range(7), key=lambda v: -g.degree(v))
            g = relabel(g, [order.index(v) for v in range(7)])
        nbr = _nbr(g)
        verdict = brute_is_least(7, _mask(nbr))
        assert (sn_module._is_least(nbr) is not None) == verdict, g.edges
        verdicts.append(verdict)
    assert 50 < verdicts.count(True) < 1950


def _twin_heavy_graphs(max_n):
    """Complete multipartite graphs (K_n, K_{a,b} and stars among them) on
    2..max_n vertices, and their complements, disjoint unions of cliques."""

    def partitions(n, most):
        if n == 0:
            yield []
        for p in range(min(n, most), 0, -1):
            for rest in partitions(n - p, p):
                yield [p] + rest

    for n in range(2, max_n + 1):
        for parts in partitions(n, n):
            g = complete_multipartite(parts)
            yield g
            edges = set(g.edges)
            yield build(n, [e for e in itertools.combinations(range(n), 2) if e not in edges])


def _least_relabelling(g):
    return min(
        (relabel(g, perm) for perm in itertools.permutations(range(g.n))),
        key=lambda h: _mask(_nbr(h)),
    )


def _nbr(g):
    nbr = [0] * g.n
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return nbr


def test_is_least_twin_skip_matches_permutation_oracle_on_twin_heavy_graphs():
    # Twin classes give the canonicity search mirror-image subtrees, which
    # _is_least skips; the oracle tries every permutation. Each graph is
    # checked at random labellings (mostly not least) and, up to n = 6, at
    # its least labelling.
    rng = random.Random(27)
    verdicts = Counter()
    for g in _twin_heavy_graphs(7):
        labellings = []
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            labellings.append(relabel(g, perm))
        if g.n <= 6:
            labellings.append(_least_relabelling(g))
        for h in labellings:
            nbr = _nbr(h)
            verdict = brute_is_least(h.n, _mask(nbr))
            assert (sn_module._is_least(nbr) is not None) == verdict, h.edges
            verdicts[verdict] += 1
    assert verdicts[True] > 60 and verdicts[False] > 60, verdicts


def test_orderly_generator_is_lazy(monkeypatch):
    first, _, _ = next(connected_graphs_up_to_iso(7))
    assert first.n == 7
    assert first.edges == tuple((0, v) for v in range(1, 7))
    # Listing all of n = 7 takes well under the budget, so this part cannot
    # tell a lazy generator from an eager one; the call count below can.
    # The whole scan to 7 takes about 0.1 s of CPU, so a budget it cannot
    # meet must be far smaller.
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        conjecture_scan(7, max_seconds=0.02)
    assert time.perf_counter() - start < 2.5
    # The first n = 8 class (the star) comes after a small part of the walk.
    calls = 0
    real = sn_module._is_least

    def counting(nbr):
        nonlocal calls
        calls += 1
        return real(nbr)

    monkeypatch.setattr(sn_module, "_is_least", counting)
    first, _, _ = next(connected_graphs_up_to_iso(8))
    assert first.edges == tuple((0, v) for v in range(1, 8))
    assert calls < 100  # of 13,930 for the whole walk


def test_nan_time_budget_is_rejected():
    g = make(Family.CYCLE, n=7)
    with pytest.raises(ValueError, match="nan"):
        sn_exact(g, max_seconds=float("nan"))
    with pytest.raises(ValueError, match="nan"):
        conjecture_scan(4, max_seconds=float("nan"))
    # An infinite budget is a valid bound that never runs out.
    assert sn_exact(g, max_seconds=float("inf")).sn == 4


def _outcome(g, prune, budget):
    try:
        return _report_key(sn_exact(g, prune=prune, max_subsets=budget))
    except BudgetExceededError as err:
        return str(err), err.lower_bound


def _no_generators(m):
    m.setattr(canon, "automorphism_generators", lambda g, clock=None, most=None: ([], 0))


def _reference(monkeypatch, g, prune, off=None):
    """The search with `off` applied: (subsets walked, outcome under a subset budget).

    `off` turns the orbit skip off unless it is given. One full run records
    every subset budget check, so the outcome under a smaller budget is read
    off instead of searched again. sn_exact checks each support and each cut
    block once, as _supports yields it, so a spy on _supports sees every
    check: the subsets spent after it and the support size it proves.
    """
    checks = []
    inner = sn_module._supports

    def spy(n, size, tables):
        for subset, pendant_cut, edge_cut in inner(n, size, tables):
            spent = checks[-1][0] if checks else 0
            checks.append((spent + (1 if subset is not None else pendant_cut + edge_cut), size))
            yield subset, pendant_cut, edge_cut

    with monkeypatch.context() as m:
        (off or _no_generators)(m)
        m.setattr(sn_module, "_supports", spy)
        full = sn_exact(g, prune=prune)

    def outcome(budget):
        if budget is None:
            return _report_key(full)
        proven = next(p for need, p in checks if need > budget)
        return f"subset budget {budget} exhausted; sn >= {proven}", proven

    return full.subsets_examined, outcome


def _table_bytes(g):
    """The bytes _Orbits allows for one generator's image tables."""
    return 4 * g.n * (g.n + 256)


# Module settings under which the orbit skip must not change any output, as
# functions of the graph and its generators: as shipped; room for one
# generator's tables, so the others are dropped; and room for every
# generator's tables but only about a hundred marks per table, so marking
# stops in mid-orbit.
ORBIT_SETTINGS = {
    "default": lambda g, gens: {},
    "few tables": lambda g, gens: {"ORBIT_BYTES": _table_bytes(g)},
    "few marks": lambda g, gens: {"ORBIT_BYTES": len(gens) * _table_bytes(g)},
}


def _orbit(gens, support):
    """The orbit of a support bitmask under the group the permutations gens generate."""
    orbit, frontier = {support}, [support]
    for s in frontier:
        for gamma in gens:
            image = sum(1 << w for v, w in enumerate(gamma) if s >> v & 1)
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


def _spy_cuts(m, gens, cuts):
    """Count in cuts the searches that drop generators and the marks stopped in mid-orbit."""
    inner = sn_module._Orbits.mark

    def spy(self, support, tried):
        first, before = self.tables is None, len(self.counted)
        inner(self, support, tried)
        if first and len(self.tables) < len(gens):
            cuts["dropped"] += 1
        if before < len(self.counted) == self.limit:
            kept = gens[: len(self.tables)]
            cuts["mid-orbit"] += not _orbit(kept, support) <= self.counted.keys()

    m.setattr(sn_module._Orbits, "mark", spy)


def _check_orbit_skip_identity(monkeypatch, g, prune, settings, budgets=True):
    """Outputs under each named setting agree with the search without the skip.

    Returns per setting the count of cuts _spy_cuts saw.
    """
    s, want = _reference(monkeypatch, g, prune)
    gens = canon.automorphism_generators(g)[0]
    points = (None, 0, s // 2, s - 1) if budgets else (None,)
    seen = {}
    for name in settings:
        seen[name] = cuts = Counter()
        with monkeypatch.context() as m:
            for attr, value in ORBIT_SETTINGS[name](g, gens).items():
                m.setattr(sn_module, attr, value)
            _spy_cuts(m, gens, cuts)
            for budget in points:
                assert _outcome(g, prune, budget) == want(budget), (name, budget, g.edges, prune)
    return seen


@pytest.mark.slow
def test_orbit_skip_keeps_output_on_random_graphs(monkeypatch):
    rng = random.Random(2014)
    cuts = {name: Counter() for name in ORBIT_SETTINGS}
    for _ in range(300):
        g = random_connected_graph(rng, rng.randint(3, 9), extra=rng.choice([0.1, 0.3, 0.5, 0.8]))
        for prune in (True, False):
            seen = _check_orbit_skip_identity(monkeypatch, g, prune, ORBIT_SETTINGS)
            for name in ORBIT_SETTINGS:
                cuts[name] += seen[name]
    assert cuts["default"]["dropped"] == cuts["default"]["mid-orbit"] == 0
    assert cuts["few tables"]["dropped"] > 0
    assert cuts["few marks"]["mid-orbit"] > 0 and cuts["few marks"]["dropped"] == 0


# The 13 graphs of the sn benchmark workloads, and whether to search them
# without pruning too: without it, the cycles, tadpoles, W_13 and the
# amalgam take from 9 s to minutes each.
BENCHMARK_GRAPHS = [
    (Family.CYCLE, {"n": 17}, False),
    (Family.CYCLE, {"n": 19}, False),
    (Family.WHEEL, {"n": 11}, True),
    (Family.WHEEL, {"n": 13}, False),
    (Family.TADPOLE, {"n": 9, "m": 6}, False),
    (Family.TADPOLE, {"n": 11, "m": 4}, False),
    (Family.FRIENDSHIP, {"m": 6}, True),
    (Family.AMALGAM, {"m": 4, "n": 4, "r": 1}, False),
    (Family.CYCLE_OF_CLIQUES, {"n": 3, "m": 4}, True),
    (Family.CYCLE_OF_CLIQUES_MINUS, {"n": 3, "m": 4}, True),
    (Family.CYCLE_OF_CLIQUES_MINUS, {"n": 2, "m": 5}, True),
    (Family.CYCLE_OF_CLIQUES_MINUS, {"n": 4, "m": 4}, True),
    (Family.SUDOKU_GRID, {"b": 2}, True),
]


@pytest.mark.slow
def test_orbit_skip_keeps_output_on_benchmark_graphs(monkeypatch):
    mid_orbit = 0
    for family, params, unpruned in BENCHMARK_GRAPHS:
        g = make(family, **params)
        for prune in (True, False) if unpruned else (True,):
            _check_orbit_skip_identity(monkeypatch, g, prune, ["default"])
        # Few marks per size make the search nearly as slow as no skip, so it
        # runs once, without budgets.
        seen = _check_orbit_skip_identity(monkeypatch, g, True, ["few marks"], budgets=False)
        mid_orbit += seen["few marks"]["mid-orbit"]
    assert mid_orbit > 0


def test_orbit_skip_evaluates_fewer_supports(monkeypatch):
    # The 4x4 grid has no closed twins, so every support the orbit skip does
    # not settle goes to the engine.
    g = make(Family.SUDOKU_GRID, b=2)
    assert twin_classes(g) == ([], [])
    evaluated = []
    for skip in (True, False):
        calls = [0]
        inner = sn_module._evaluate_subset

        def spy(eng, subset, counters, twins):
            calls[0] += 1
            return inner(eng, subset, counters, twins)

        with monkeypatch.context() as m:
            m.setattr(sn_module, "_evaluate_subset", spy)
            if not skip:
                _no_generators(m)
            sn_exact(g)
        evaluated.append(calls[0])
    # 625 supports are walked; most are images of earlier losers, marked from
    # the first loss on.
    assert evaluated == [26, 625]


# Supports evaluated on the engine and supports settled as twin losers, per
# search, on graphs where the orbit marks and the twin swaps cut most of the
# work. Both counts depend on the group the generators generate, not on
# which generators the search returns.
ENGINE_WORK = [
    (Family.CYCLE_OF_CLIQUES, {"n": 3, "m": 4}, 16, 0),
    (Family.CYCLE_OF_CLIQUES_MINUS, {"n": 3, "m": 4}, 2, 64),
    (Family.CYCLE_OF_CLIQUES_MINUS, {"n": 2, "m": 5}, 2, 38),
    (Family.CYCLE_OF_CLIQUES_MINUS, {"n": 4, "m": 4}, 2, 336),
    (Family.SUDOKU_GRID, {"b": 2}, 26, 0),
    (Family.CYCLE_OF_CLIQUES, {"n": 3, "m": 5}, 16, 0),
    (Family.COMPLETE_MULTIPARTITE, {"parts": [3] * 5}, 4, 0),
    (Family.COMPLETE_MULTIPARTITE, {"parts": [3] * 7}, 7, 0),
    (Family.COMPLETE_MULTIPARTITE, {"parts": [4] * 5}, 5, 0),
    (Family.AMALGAM, {"m": 4, "n": 4, "r": 2}, 1, 1),
    (Family.FRIENDSHIP, {"m": 8}, 1, 0),
]


@pytest.mark.parametrize("family, params, evaluated, settled", ENGINE_WORK)
def test_engine_work_on_symmetric_graphs(monkeypatch, family, params, evaluated, settled):
    calls = Counter()
    evaluate, settle = sn_module._evaluate_subset, sn_module._loser_count

    def evaluate_spy(*args):
        calls["evaluated"] += 1
        return evaluate(*args)

    def settle_spy(*args):
        calls["settled"] += 1
        return settle(*args)

    monkeypatch.setattr(sn_module, "_evaluate_subset", evaluate_spy)
    monkeypatch.setattr(sn_module, "_loser_count", settle_spy)
    sn_exact(make(family, **params))
    assert (calls["evaluated"], calls["settled"]) == (evaluated, settled)


def test_orbit_tables_map_supports_as_the_generators_do(monkeypatch):
    rng = random.Random(29)
    for family, params, _ in BENCHMARK_GRAPHS:
        g = make(family, **params)
        gens = canon.automorphism_generators(g)[0]
        orbits = sn_module._Orbits(g, None)
        orbits.mark(1, 0)
        assert len(orbits.tables) == len(gens)
        for gamma, tables in zip(gens, orbits.tables):
            for _ in range(20):
                support = rng.sample(range(g.n), rng.randint(1, g.n))
                image = 0
                for table, shift in zip(tables, range(0, g.n, 8)):
                    image |= table[sum(1 << v for v in support) >> shift & 255]
                assert image == sum(1 << gamma[v] for v in support)
    # Tables past ORBIT_BYTES, about 4n(n + 256) bytes per generator, are
    # dropped, and the marks of one size stay within it too.
    g = make(Family.CYCLE_OF_CLIQUES_MINUS, n=4, m=4)
    monkeypatch.setattr(sn_module, "ORBIT_BYTES", 2 * _table_bytes(g))
    orbits = sn_module._Orbits(g, None)
    orbits.mark(1, 0)
    assert len(orbits.tables) == 2 < len(canon.automorphism_generators(g)[0])
    assert orbits.limit == 386  # 34,816 bytes at 88 + 16/7.5 bytes a mark
    for support in itertools.combinations(range(g.n), 8):
        orbits.mark(sum(1 << v for v in support), 0)
    assert len(orbits.counted) == orbits.limit


def test_orbit_marks_cover_every_support_of_a_twenty_vertex_size():
    # The marks of the 167,960 supports of size 9 on 20 vertices fit.
    g = make(Family.CYCLE_OF_CLIQUES_MINUS, n=4, m=5)
    assert g.n == 20
    assert sn_module._Orbits(g, None).limit > math.comb(20, 9)


def test_no_generator_search_when_no_table_fits(monkeypatch):
    inner = canon.automorphism_generators
    calls = []

    def spy(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(canon, "automorphism_generators", spy)
    g = make(Family.SUDOKU_GRID, b=2)
    want = _report_key(sn_exact(g))
    for room, searched in ((_table_bytes(g) - 1, 0), (_table_bytes(g), 1)):
        monkeypatch.setattr(sn_module, "ORBIT_BYTES", room)
        calls.clear()
        assert _report_key(sn_exact(g)) == want
        assert len(calls) == searched
    # At the shipped bound no table fits from 1,924 vertices on.
    monkeypatch.undo()
    monkeypatch.setattr(canon, "automorphism_generators", spy)
    for n, searched in ((1923, 1), (1924, 0)):
        calls.clear()
        orbits = sn_module._Orbits(make(Family.CYCLE, n=n), None)
        orbits.mark(1, 0)
        assert len(calls) == searched and len(orbits.tables) == searched


def test_generators_are_found_right_after_the_first_loss(monkeypatch):
    # The calls of one search in order: "win" or "loss" for each support
    # evaluated or settled, "gens" for each generator search. A search whose
    # first support wins, as on every sn-sparse benchmark graph, finds no
    # generators; any other finds them once, before its second support.
    events = []
    evaluate, settle = sn_module._evaluate_subset, sn_module._loser_count
    generators = canon.automorphism_generators

    def evaluate_spy(*args):
        tried, win = evaluate(*args)
        events.append("loss" if win is None else "win")
        return tried, win

    def settle_spy(*args):
        events.append("loss")
        return settle(*args)

    def generators_spy(*args):
        events.append("gens")
        return generators(*args)

    monkeypatch.setattr(sn_module, "_evaluate_subset", evaluate_spy)
    monkeypatch.setattr(sn_module, "_loser_count", settle_spy)
    monkeypatch.setattr(canon, "automorphism_generators", generators_spy)
    rng = random.Random(31)
    graphs = [make(family, **params) for family, params, _ in BENCHMARK_GRAPHS]
    graphs += [random_connected_graph(rng, rng.randint(3, 8), extra=rng.choice([0.2, 0.5, 0.8]))
               for _ in range(60)]
    firsts = []
    for g in graphs:
        events.clear()
        sn_exact(g)
        assert events[-1] == "win"
        if events[0] == "win":
            assert events == ["win"]
        else:
            assert events[:2] == ["loss", "gens"] and events.count("gens") == 1
        firsts.append(events[0])
    assert firsts[:8] == ["win"] * 8 and firsts[8:13] == ["loss"] * 5
    assert 10 < firsts.count("loss") < len(firsts) - 10


def _no_twins(m):
    m.setattr(sn_module, "twin_classes", lambda g: ([], []))


def _plant_twins(rng, g):
    """g plus one or two new vertices, each a closed twin of a random earlier vertex."""
    adj = [set(nbrs) for nbrs in g.adj]
    for _ in range(rng.randint(1, 2)):
        v = rng.randrange(len(adj))
        w = len(adj)
        adj.append(adj[v] | {v})
        for u in adj[w]:
            adj[u].add(w)
    return build(len(adj), [(u, w) for w in range(len(adj)) for u in adj[w] if u < w])


def _check_twin_shortcut_identity(monkeypatch, g, prune, budgets=True):
    """Outputs with and without the twin shortcut agree; returns the supports it settled.

    A spy walks every settled support on an engine of its own and requires
    the count the shortcut used and no winner.
    """
    s, want = _reference(monkeypatch, g, prune, off=_no_twins)
    eng = _support_engine(g, chromatic_number(g)[0])
    inner = sn_module._loser_count
    settled = []

    def spy(graph, k, subset, memo, clock):
        tried = inner(graph, k, subset, memo, clock)
        assert _evaluate_subset(eng, subset, {}) == (tried, None), (subset, g.edges)
        settled.append(subset)
        return tried

    with monkeypatch.context() as m:
        m.setattr(sn_module, "_loser_count", spy)
        assert _outcome(g, prune, None) == want(None), (g.edges, prune)
    for budget in (0, s // 2, s - 1) if budgets else ():
        assert _outcome(g, prune, budget) == want(budget), (budget, g.edges, prune)
    return len(settled)


@pytest.mark.slow
def test_twin_shortcut_keeps_output_on_random_graphs(monkeypatch):
    rng = random.Random(1307)
    fired = 0
    for i in range(300):
        g = random_connected_graph(rng, rng.randint(3, 9), extra=rng.choice([0.1, 0.3, 0.5, 0.8]))
        if i % 2 and g.n < 9:
            g = _plant_twins(rng, g)
        for prune in (True, False):
            fired += _check_twin_shortcut_identity(monkeypatch, g, prune) > 0
    # The shortcut settles supports in about a third of the 600 searches.
    assert fired >= 150


@pytest.mark.slow
def test_twin_shortcut_keeps_output_on_benchmark_graphs(monkeypatch):
    fired = 0
    for family, params, unpruned in BENCHMARK_GRAPHS:
        g = make(family, **params)
        for prune in (True, False) if unpruned else (True,):
            fired += _check_twin_shortcut_identity(monkeypatch, g, prune) > 0
    # The shortcut settles supports in the three cycle-of-cliques-minus
    # searches with and without pruning, and without pruning on F_6 and the
    # cycle of cliques, where the lemmas otherwise cut those supports.
    assert fired == 8


def test_twin_shortcut_counts_run_under_the_time_budget(monkeypatch):
    g = make(Family.CYCLE_OF_CLIQUES_MINUS, n=4, m=5)
    clocks = set()
    inner = sn_module._colorings_below

    def spy(pattern, k, clock):
        clocks.add(clock)
        return inner(pattern, k, clock)

    monkeypatch.setattr(sn_module, "_colorings_below", spy)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        sn_exact(g, max_seconds=1)
    assert time.perf_counter() - start < 3
    assert len(clocks) == 1 and None not in clocks


@pytest.mark.parametrize("family", [Family.CYCLE_OF_CLIQUES, Family.CYCLE_OF_CLIQUES_MINUS])
def test_sn_exact_on_five_block_clique_cycles(family):
    spec = FamilySpec(family, {"n": 3, "m": 5})
    report = sn_exact(generate(spec))
    assert report.sn == expected_sn(family.value, spec)
    assert verify_certificate(report.certificate).ok


@pytest.mark.parametrize("params", [{"m": 30, "n": 4, "r": 1}, {"m": 8, "n": 5, "r": 1}])
def test_sn_exact_cuts_amalgams_below_their_clique_covers(params):
    # Each K_n - v of low-degree vertices needs n - 2 cover vertices, where a
    # greedy matching finds only (n - 1) // 2, so every size below m(n - 2)
    # is one cut block and no support of those sizes is walked.
    spec = FamilySpec(Family.AMALGAM, params)
    report = sn_exact(generate(spec), max_seconds=10)
    assert report.sn == expected_sn("amalgam", spec) == params["m"] * (params["n"] - 2)
    assert verify_certificate(report.certificate).ok


@pytest.mark.parametrize(
    "case, family, params",
    [
        ("cycle-of-cliques", Family.CYCLE_OF_CLIQUES, {"n": 3, "m": 4}),
        ("wheel", Family.WHEEL, {"n": 11}),
        ("odd-cycle", Family.CYCLE, {"n": 17}),
    ],
    ids=["cycle-of-cliques-3-4", "wheel-11", "cycle-17"],
)
def test_sn_exact_never_runs_the_attractive_rule(monkeypatch, case, family, params):
    # sn_exact reads only capped counts, so its searches run count-only.
    def never(*args):
        raise AssertionError("attractive rule used inside sn_exact")

    monkeypatch.setattr(_Engine, "_attractive_step", never)
    monkeypatch.setattr(_EngineGraph, "chi_closed_neighborhood_is_k", never)
    spec = FamilySpec(family, params)
    assert sn_exact(generate(spec)).sn == expected_sn(case, spec)


def test_no_graph_classes_below_one_vertex():
    assert list(connected_graphs_up_to_iso(0)) == []
    assert [g.edges for g, _, _ in connected_graphs_up_to_iso(1)] == [()]


def test_negative_subset_budget_is_rejected():
    g = make(Family.CYCLE, n=5)
    with pytest.raises(ValueError, match="max_subsets"):
        sn_exact(g, max_subsets=-1)
    # A budget of 0 is a budget: it runs out at the first support.
    with pytest.raises(BudgetExceededError):
        sn_exact(g, max_subsets=0)
