import itertools
import math
import random
import sys
import time
from collections import Counter

import pytest

sys.path.insert(0, "tests")
from oracles import (
    brute_connected_graphs,
    brute_is_least,
    brute_is_sudoku,
    brute_sn,
    canonical_colorings,
    prune_subset,
    random_connected_graph,
)

from sudokugraph import (
    BudgetExceededError,
    Certificate,
    DisconnectedGraphError,
    Family,
    FamilySpec,
    ExtensionKind,
    PartialColoring,
    build,
    chromatic_number,
    conjecture_scan,
    count_extensions,
    expected_sn,
    generate,
    is_proper,
    relabel,
    sn_exact,
    verify_certificate,
)
import sudokugraph.canon as canon
import sudokugraph.sn as sn_module
from sudokugraph.extension import _Engine, _EngineGraph
from sudokugraph.sn import (
    PRUNE_PENDANT,
    PRUNE_UNCOLORED_EDGE,
    _evaluate_subset,
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


def test_support_generator_matches_prune_filter():
    # The generator must yield exactly the supports prune_subset keeps, in
    # combinations order, and its cut blocks must cover the rest in place:
    # each block is the next run of pruned supports, split by lemma as
    # prune_subset attributes them.
    rng = random.Random(91)
    checked = 0
    while checked < 60:
        g = random_connected_graph(rng, rng.randint(4, 9), extra=rng.choice([0.1, 0.25, 0.45]))
        k, _ = chromatic_number(g)
        if k < 3:
            continue
        checked += 1
        for size in range(search_lower_bound(k), g.n):
            combos = list(itertools.combinations(range(g.n), size))
            reasons = [prune_subset(g, s, k) for s in combos]
            items = list(_supports(g.n, size, _suffix_tables(g, k, True)))
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


def test_sn_exact_subset_budget_boundaries_on_cut_blocks():
    # C_11: chi = 3, sn = 6; every support of sizes 2-5 is pruned
    # (55 + 165 + 330 + 462 = 1012), so the budget is charged in blocks.
    g = make(Family.CYCLE, n=11)
    tables = _suffix_tables(g, 3, True)
    for size, total in zip(range(2, 6), (55, 165, 330, 462)):
        items = list(_supports(g.n, size, tables))
        assert all(s is None for s, _, _ in items)
        assert sum(p + e for _, p, e in items) == total
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
    # An empty engine as sn_exact builds it, reused by every support walk.
    return _Engine(_EngineGraph(g, k))


def test_support_walk_matches_canonical_coloring_loop():
    # One engine per graph walks every support the generator yields, in its
    # order, and must agree with the loop on each; bipartite graphs included.
    rng = random.Random(94)
    bipartite = 0
    for _ in range(36):
        g = random_connected_graph(rng, rng.randint(3, 9), extra=rng.choice([0.0, 0.15, 0.35, 0.6]))
        k, _ = chromatic_number(g)
        bipartite += k == 2
        eng = _support_engine(g, k)
        tables = _suffix_tables(g, k, k >= 3)
        for size in range(search_lower_bound(k), g.n):
            for subset, _, _ in _supports(g.n, size, tables):
                if subset is not None:
                    assert _evaluate_subset(eng, subset) == _canonical_loop(g, k, subset)
        assert not eng.journal and not any(eng.color)
        assert eng.lists == [(1 << k) - 1] * g.n
    assert bipartite >= 5


def _report_key(r):
    return (r.sn, r.certificate, r.subsets_examined, r.colorings_examined, r.pruned_by)


def test_sn_exact_keeps_no_state_between_searches(monkeypatch):
    a = make(Family.CYCLE_OF_CLIQUES_MINUS, n=2, m=5)
    b = make(Family.WHEEL, n=7)
    alone = {g: _report_key(sn_exact(g)) for g in (a, b)}
    # Each search finds the twin classes anew and counts twin-settled
    # supports in a memo of its own that starts empty.
    searches = []
    twins, count = sn_module._twin_classes, sn_module._loser_count

    def twins_spy(g):
        searches.append((g, []))
        return twins(g)

    def count_spy(g, k, subset, memo, deadline):
        searches[-1][1].append((memo, len(memo)))
        return count(g, k, subset, memo, deadline)

    with monkeypatch.context() as m:
        m.setattr(sn_module, "_twin_classes", twins_spy)
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
            assert _evaluate_subset(engines[g], subset) == _canonical_loop(g, k, subset)


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
        conjecture_scan(8)


def test_conjecture_scan_budget():
    with pytest.raises(BudgetExceededError):
        conjecture_scan(6, max_seconds=0.0)


# OEIS A001349: connected graphs on n vertices up to isomorphism.
A001349 = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


def test_orderly_generator_matches_brute_force_enumerator():
    # Same canonical representatives, same labels, same order.
    for n, count in A001349.items():
        orderly = list(connected_graphs_up_to_iso(n))
        assert len(orderly) == count
        assert all(g.n == n for g in orderly)
        assert [g.edges for g in orderly] == [g.edges for g in brute_connected_graphs(n)]


def test_orderly_generator_n7():
    gs = list(connected_graphs_up_to_iso(7))
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
    # the walk follows the oracle, so it tests the oracle's children.
    tested = []
    real = sn_module._is_least

    def spy(nbr):
        verdict = brute_is_least(len(nbr), _mask(nbr))
        assert real(nbr) == verdict
        tested.append(verdict)
        return verdict

    monkeypatch.setattr(sn_module, "_is_least", spy)
    for n, count in A001349.items():
        assert len(list(connected_graphs_up_to_iso(n))) == count
    assert tested.count(True) == sum(A001349.values()) - len(A001349)
    assert tested.count(False) > 100


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
        nbr = [0] * 7
        for u, v in g.edges:
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        verdict = brute_is_least(7, _mask(nbr))
        assert sn_module._is_least(nbr) == verdict, g.edges
        verdicts.append(verdict)
    assert 50 < verdicts.count(True) < 1950


def test_orderly_generator_is_lazy(monkeypatch):
    first = next(connected_graphs_up_to_iso(7))
    assert first.n == 7
    assert first.edges == tuple((0, v) for v in range(1, 7))
    # The budget is checked between classes. Listing all of n = 7 takes
    # well under it, so this part cannot tell a lazy generator from an
    # eager one; the call count below can.
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        conjecture_scan(7, max_seconds=0.5)
    assert time.perf_counter() - start < 2.5
    # The first n = 8 class (the star) comes after a small part of the walk.
    calls = 0
    real = sn_module._is_least

    def counting(nbr):
        nonlocal calls
        calls += 1
        return real(nbr)

    monkeypatch.setattr(sn_module, "_is_least", counting)
    first = next(connected_graphs_up_to_iso(8))
    assert first.edges == tuple((0, v) for v in range(1, 8))
    assert calls < 100  # of 19,856 for the whole walk


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
    m.setattr(canon, "automorphism_generators", lambda g, deadline=None: ([], 0))


def _reference(monkeypatch, g, prune, off=None):
    """The search with `off` applied: (subsets walked, outcome under a subset budget).

    `off` turns the orbit skip off unless it is given. One full run records
    every budget check, so the outcome under a smaller budget is read off
    instead of searched again.
    """
    checks = []
    inner = sn_module._Budget.check

    def spy(self, used, proven, count=1):
        checks.append((used + count, proven))
        return inner(self, used, proven, count)

    with monkeypatch.context() as m:
        (off or _no_generators)(m)
        m.setattr(sn_module._Budget, "check", spy)
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
# functions of the graph and its generators: as shipped; marking from the
# first evaluated support; room for one generator's tables, so the others are
# dropped; and room for every generator's tables but only about a hundred
# marks per table, so marking stops in mid-orbit.
ORBIT_SETTINGS = {
    "default": lambda g, gens: {},
    "eager": lambda g, gens: {"ORBIT_START": 1},
    "few tables": lambda g, gens: {"ORBIT_START": 1, "ORBIT_BYTES": _table_bytes(g)},
    "few marks": lambda g, gens: {"ORBIT_START": 1, "ORBIT_BYTES": len(gens) * _table_bytes(g)},
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
        before = len(self.counted)
        inner(self, support, tried)
        if self.tables is None:
            return
        if self.evaluated == sn_module.ORBIT_START and len(self.tables) < len(gens):
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
    assert sn_module._twin_classes(g) == []
    evaluated = []
    for skip in (True, False):
        calls = [0]
        inner = sn_module._evaluate_subset

        def spy(eng, subset):
            calls[0] += 1
            return inner(eng, subset)

        with monkeypatch.context() as m:
            m.setattr(sn_module, "_evaluate_subset", spy)
            if not skip:
                _no_generators(m)
            sn_exact(g)
        evaluated.append(calls[0])
    # 625 supports are walked; most are images of earlier losers.
    assert evaluated[1] == 625
    assert evaluated[0] * 5 < evaluated[1]


def test_orbit_tables_map_supports_as_the_generators_do(monkeypatch):
    rng = random.Random(29)
    for family, params, _ in BENCHMARK_GRAPHS:
        g = make(family, **params)
        gens = canon.automorphism_generators(g)[0]
        orbits = sn_module._Orbits(g, None)
        for _ in range(sn_module.ORBIT_START):
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
    for _ in range(sn_module.ORBIT_START):
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


def _no_twins(m):
    m.setattr(sn_module, "_twin_classes", lambda g: [])


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

    def spy(graph, k, subset, memo, deadline):
        tried = inner(graph, k, subset, memo, deadline)
        assert _evaluate_subset(eng, subset) == (tried, None), (subset, g.edges)
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
    deadlines = set()
    inner = sn_module.count_color_partitions

    def spy(sub, k, *, deadline):
        deadlines.add(deadline)
        return inner(sub, k, deadline=deadline)

    monkeypatch.setattr(sn_module, "count_color_partitions", spy)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        sn_exact(g, max_seconds=1)
    assert time.perf_counter() - start < 3
    assert len(deadlines) == 1 and None not in deadlines


@pytest.mark.parametrize("family", [Family.CYCLE_OF_CLIQUES, Family.CYCLE_OF_CLIQUES_MINUS])
def test_sn_exact_on_five_block_clique_cycles(family):
    spec = FamilySpec(family, {"n": 3, "m": 5})
    report = sn_exact(generate(spec))
    assert report.sn == expected_sn(family.value, spec)
    assert verify_certificate(report.certificate).ok


def test_no_graph_classes_below_one_vertex():
    assert list(connected_graphs_up_to_iso(0)) == []
    assert [g.edges for g in connected_graphs_up_to_iso(1)] == [()]


def test_negative_subset_budget_is_rejected():
    g = make(Family.CYCLE, n=5)
    with pytest.raises(ValueError, match="max_subsets"):
        sn_exact(g, max_subsets=-1)
    # A budget of 0 is a budget: it runs out at the first support.
    with pytest.raises(BudgetExceededError):
        sn_exact(g, max_subsets=0)
