import itertools
import random
import sys

import pytest

sys.path.insert(0, "tests")
from oracles import brute_is_sudoku, brute_sn, random_connected_graph

from sudokugraph import (
    BudgetExceededError,
    Certificate,
    DisconnectedGraphError,
    Family,
    FamilySpec,
    ExtensionKind,
    PartialColoring,
    build,
    canonical_colorings,
    chromatic_number,
    conjecture_scan,
    count_extensions,
    generate,
    is_proper,
    prune_subset,
    relabel,
    sn_exact,
    verify_certificate,
)
from sudokugraph.sn import (
    PRUNE_PENDANT,
    PRUNE_UNCOLORED_EDGE,
    _POOL_BATCH,
    _batches,
    _evaluate_subset,
    _suffix_tables,
    _support_engine,
    _supports,
    search_lower_bound,
)


def make(family, **params):
    return generate(FamilySpec(family, params))


def test_canonical_colorings_enumerates_partition_representatives():
    g = build(3, [])
    reps = list(canonical_colorings(g, (0, 1, 2), 3))
    assert len(reps) == 4
    for rep in reps:
        assert rep.domain == frozenset({0, 1, 2})
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


def test_sn_exact_workers_deterministic():
    g = make(Family.LOLLIPOP, n=5, m=3)
    seq = sn_exact(g, workers=1)
    par = sn_exact(g, workers=4)
    assert seq.sn == par.sn
    assert seq.certificate.partial == par.certificate.partial
    assert seq.subsets_examined == par.subsets_examined
    assert seq.colorings_examined == par.colorings_examined
    assert seq.pruned_by == par.pruned_by


def test_pool_batches_keep_order_and_bound_survivors():
    g = make(Family.SUDOKU_GRID, b=2)
    tables = _suffix_tables(g, 4, True)
    for size in range(3, 6):
        items = list(_supports(g.n, size, tables))
        batches = list(_batches(iter(items), 3))
        assert [item for batch in batches for item in batch] == items
        held = [sum(s is not None for s, _, _ in batch) for batch in batches]
        limits = [min(3 * 2**i, 3 * _POOL_BATCH) for i in range(len(held))]
        assert held[:-1] == limits[:-1] and held[-1] <= limits[-1]
        assert max(held) == 3 * _POOL_BATCH


def test_sn_exact_workers_match_across_batches_and_budget_stops():
    # The 4x4 grid has 560 survivors at size 3 and wins at the 65th of size 4,
    # so with two workers both the winner and the budget stops leave the pool
    # after several batches.
    g = make(Family.SUDOKU_GRID, b=2)
    for budget in (None, 300, 600):
        outcomes = []
        for workers in (1, 2):
            try:
                r = sn_exact(g, workers=workers, max_subsets=budget)
                outcomes.append(
                    (r.sn, r.certificate.partial, r.subsets_examined,
                     r.colorings_examined, r.pruned_by)
                )
            except BudgetExceededError as err:
                outcomes.append(str(err))
        assert outcomes[0] == outcomes[1]
        assert isinstance(outcomes[0], str) == (budget is not None)


def _canonical_loop(g, k, subset):
    # The search as defined: every canonical coloring, one full count each.
    tried = 0
    for c in canonical_colorings(g, subset, k):
        tried += 1
        if count_extensions(g, c, 2).kind is ExtensionKind.UNIQUE:
            return tried, dict(c.assignments)
    return tried, None


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


def test_sn_exact_keeps_no_state_between_searches():
    a = make(Family.CYCLE_OF_CLIQUES_MINUS, n=2, m=5)
    b = make(Family.WHEEL, n=7)
    alone = {g: _report_key(sn_exact(g)) for g in (a, b)}
    for g in (a, b, a, b, b, a):
        assert _report_key(sn_exact(g)) == alone[g]
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
