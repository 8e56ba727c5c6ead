import random
import sys

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
    is_extendable,
    is_proper,
    is_sudoku_coloring,
    propagate,
)
from sudokugraph.coloring import RULE_ATTRACTIVE, RULE_NEAR_COLOR_DOMINATING

C13 = generate(FamilySpec(Family.CYCLE, {"n": 13}))
# alternate colors 1/2 on the first eleven odd positions, then color 3 once
C13_SUPPORT = PartialColoring(3, {0: 1, 4: 1, 8: 1, 2: 2, 6: 2, 10: 2, 12: 3})


def test_thirteen_cycle_cascade_is_all_near_color_dominating():
    extended, trace, status = propagate(C13, C13_SUPPORT)
    assert status is PropagationStatus.PROGRESS
    assert len(trace) == 6
    assert all(step.rule == RULE_NEAR_COLOR_DOMINATING for step in trace)
    assert extended.domain == frozenset(range(13))
    # every even vertex gets 3 except the one next to the color-3 vertex
    want = dict(C13_SUPPORT.assignments)
    want.update({1: 3, 3: 3, 5: 3, 7: 3, 9: 3, 11: 1})
    assert dict(extended.assignments) == want


def test_thirteen_cycle_support_is_sudoku():
    out = count_extensions(C13, C13_SUPPORT)
    assert out.kind is ExtensionKind.UNIQUE
    assert out.count == 1
    assert is_sudoku_coloring(C13, C13_SUPPORT)
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
        assert full.domain == frozenset(range(5))
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
    assert not is_extendable(g, PartialColoring(3, {0: 1}))


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


def test_attractive_rule_skipped_beyond_neighborhood_limit():
    g, hub, pendant_of = _rim_pendant_wheel(4, 1)
    support = PartialColoring(3, {p: 3 for ps in pendant_of.values() for p in ps})
    extended, trace, status = propagate(g, support, attractive_limit=3)
    assert status is PropagationStatus.STUCK
    assert trace == ()
    out = count_extensions(g, support, attractive_limit=3)
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


def test_attractive_on_off_agree_on_kind():
    rng = random.Random(99)
    for _ in range(80):
        g = random_connected_graph(rng, rng.randint(2, 7), extra=0.4)
        chi, _ = chromatic_number(g)
        c = random_proper_partial(rng, g, chi)
        with_rule = count_extensions(g, c)
        without = count_extensions(g, c, attractive_limit=0)
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
                flipped = support.with_assignment(step.vertex, other)
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
            assert full.domain == frozenset(range(g.n))
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
