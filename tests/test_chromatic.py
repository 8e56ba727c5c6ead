import random
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, "tests")
from oracles import brute_chromatic, brute_count_extensions, random_connected_graph

import sudokugraph
import sudokugraph.chromatic as chromatic_module
from sudokugraph import (
    BudgetExceededError,
    Clock,
    ColorListState,
    PartialColoring,
    Family,
    FamilySpec,
    build,
    chromatic_number,
    count_color_partitions,
    count_list_colorings,
    find_k_coloring,
    generate,
    greedy_clique,
    greedy_coloring,
    SudokugraphError,
    is_connected,
    is_proper,
)


def make(family, **params):
    return generate(FamilySpec(family, params))


def labeled_count(g, k, cap=None):
    """Proper colorings from 1..k, each labeling counted: full lists, cap above k^n unless given."""
    full = ColorListState.from_partial(g, PartialColoring(k, {}))
    return count_list_colorings(g, full, k**g.n + 1 if cap is None else cap)


def uniquely_colorable(g):
    """One vertex partition among the chi-colorings."""
    return count_color_partitions(g, chromatic_number(g)[0], 2) == 1


def test_known_chromatic_numbers():
    table = [
        (make(Family.PATH, n=6), 2),
        (make(Family.CYCLE, n=6), 2),
        (make(Family.CYCLE, n=7), 3),
        (make(Family.COMPLETE, n=5), 5),
        (make(Family.COMPLETE_MULTIPARTITE, parts=[2, 2, 2]), 3),
        (make(Family.WHEEL, n=6), 3),
        (make(Family.WHEEL, n=5), 4),
        (make(Family.FRIENDSHIP, m=3), 3),
        (make(Family.LOLLIPOP, n=5, m=2), 5),
        (make(Family.CYCLE_OF_CLIQUES, n=3, m=4), 4),
        (make(Family.CYCLE_OF_CLIQUES_MINUS, n=3, m=5), 4),
        (build(1, []), 1),
        (build(4, []), 1),
        (build(4, [(0, 1), (2, 3)]), 2),
    ]
    for g, want in table:
        chi, witness = chromatic_number(g)
        assert chi == want
        assert witness.k == want
        assert frozenset(witness.assignments) == frozenset(range(g.n))
        assert is_proper(g, witness)


def test_witness_uses_every_color():
    for g in (make(Family.CYCLE, n=9), make(Family.WHEEL, n=7), make(Family.COMPLETE, n=4)):
        chi, witness = chromatic_number(g)
        assert witness.colors_used == frozenset(range(1, chi + 1))


def test_find_k_coloring_boundaries():
    g = make(Family.CYCLE, n=5)
    assert find_k_coloring(g, 2) is None
    c3 = find_k_coloring(g, 3)
    assert c3 is not None and is_proper(g, PartialColoring(3, c3))
    c4 = find_k_coloring(g, 4)
    assert c4 is not None and is_proper(g, PartialColoring(4, c4))


def test_greedy_clique_is_a_clique():
    rng = random.Random(11)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(2, 9), extra=0.5)
        clique = greedy_clique(g)
        assert len(clique) >= 2
        for i, u in enumerate(clique):
            for v in clique[i + 1 :]:
                assert v in g.adj[u]


def test_greedy_coloring_is_proper_upper_bound():
    rng = random.Random(12)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(2, 9), extra=0.4)
        coloring = greedy_coloring(g)
        assert set(coloring) == set(range(g.n))
        ub = max(coloring.values())
        assert is_proper(g, PartialColoring(ub, coloring))
        assert ub >= chromatic_number(g)[0]


def test_chromatic_matches_brute_force():
    rng = random.Random(13)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 7), extra=rng.choice([0.2, 0.5, 0.8]))
        assert chromatic_number(g)[0] == brute_chromatic(g)


def test_greedy_coloring_two_colors_bipartite_graphs():
    # DSATUR is exact on bipartite graphs, connected or not (Brélaz, 1979),
    # so a greedy bound of 3 is chi and chromatic_number returns it unsearched.
    rng = random.Random(26)
    connected = 0
    for _ in range(1200):
        n = rng.randint(2, 14)
        side = [rng.random() < 0.5 for _ in range(n)]
        p = rng.choice([0.1, 0.25, 0.5, 1.0])
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v]]
        g = build(n, [e for e in pairs if rng.random() < p])
        assert max(greedy_coloring(g).values()) <= 2
        connected += is_connected(g)
    assert 300 < connected < 900


GROETZSCH = build(11, [(i, (i + 1) % 5) for i in range(5)]
                  + [(5 + i, (i + d) % 5) for i in range(5) for d in (1, 4)]
                  + [(5 + i, 10) for i in range(5)])


def test_chromatic_number_skips_searches_that_can_only_fail(monkeypatch):
    # A greedy bound of 3 or more rules out 2 colors, so no 2-coloring is
    # searched, and a bound of at most 3 is chi with no clique or search.
    calls = []
    find, clique = chromatic_module.find_k_coloring, chromatic_module.greedy_clique

    def find_spy(g, k, **kw):
        calls.append(k)
        return find(g, k, **kw)

    def clique_spy(g):
        calls.append("clique")
        return clique(g)

    monkeypatch.setattr(chromatic_module, "find_k_coloring", find_spy)
    monkeypatch.setattr(chromatic_module, "greedy_clique", clique_spy)
    rng = random.Random(27)
    graphs = [make(Family.CYCLE, n=5), make(Family.WHEEL, n=6)]
    for _ in range(100):
        extra = rng.choice([0.2, 0.5, 0.8])
        graphs.append(random_connected_graph(rng, rng.randint(2, 8), extra=extra))
    searched = 0
    for g in graphs:
        calls.clear()
        assert chromatic_number(g)[0] == brute_chromatic(g)
        if max(greedy_coloring(g).values()) <= 3:
            assert calls == []
        else:
            assert 2 not in calls
            searched += 1
    assert searched > 10
    # Triangle-free with chi 4: the clique bound alone would start at 2.
    calls.clear()
    assert chromatic_number(GROETZSCH)[0] == 4
    assert calls == ["clique", 3, "clique"]


def test_count_labeled_colorings_cycle():
    # chromatic polynomial of C_n at k: (k-1)^n + (-1)^n (k-1)
    g = make(Family.CYCLE, n=5)
    assert labeled_count(g, 3) == 2**5 - 2
    assert labeled_count(g, 4) == 3**5 - 3
    g6 = make(Family.CYCLE, n=6)
    assert labeled_count(g6, 2) == 2
    assert labeled_count(g6, 3) == 2**6 + 2


def test_count_labeled_colorings_cap_saturates():
    g = make(Family.CYCLE, n=5)
    assert labeled_count(g, 3, cap=7) == 7
    assert labeled_count(g, 3, cap=100) == 30


def test_count_color_partitions():
    g5 = make(Family.CYCLE, n=5)
    assert count_color_partitions(g5, 3) == 5
    k4 = make(Family.COMPLETE, n=4)
    assert count_color_partitions(k4, 4) == 1
    p4 = make(Family.PATH, n=4)
    assert count_color_partitions(p4, 2) == 1
    assert count_color_partitions(g5, 3, clock=Clock(float("inf"))) == 5


@pytest.mark.parametrize(
    "search",
    [
        lambda g, clock: chromatic_number(g, clock=clock),
        lambda g, clock: greedy_coloring(g, clock=clock),
        lambda g, clock: find_k_coloring(g, 3, clock=clock),
        lambda g, clock: count_color_partitions(g, 3, clock=clock),
    ],
    ids=["chromatic_number", "greedy_coloring", "find_k_coloring", "count_color_partitions"],
)
def test_public_searches_stop_on_the_clock_with_a_package_error(search):
    clock = Clock(-1)
    clock.proven = " at the test's bound"
    with pytest.raises(BudgetExceededError) as err:
        search(make(Family.CYCLE, n=9), clock)
    assert isinstance(err.value, SudokugraphError)
    assert str(err.value) == "time budget -1s exhausted at the test's bound"
    assert err.value.lower_bound is None


def test_only_the_clock_reads_the_time():
    # Every time budget is one errors.Clock: no other module reads the time,
    # and none defines an exception of its own to stop a search with.
    stops = []
    for path in sorted(Path(sudokugraph.__file__).parent.glob("*.py")):
        text = path.read_text()
        if path.name != "errors.py":
            assert not re.search(r"\bimport time\b|\bfrom time\b|perf_counter", text), path.name
            for name in re.findall(r"^class (\w+)\(\w*(?:Exception|Error)\)", text, re.M):
                stops.append((path.name, name))
    assert stops == []


def test_is_uniquely_colorable():
    assert uniquely_colorable(make(Family.PATH, n=6))
    assert uniquely_colorable(make(Family.COMPLETE, n=4))
    assert uniquely_colorable(make(Family.COMPLETE_MULTIPARTITE, parts=[2, 3, 2]))
    assert not uniquely_colorable(make(Family.CYCLE, n=5))


def test_labeled_count_is_factorial_times_partitions_at_chi():
    import math

    rng = random.Random(14)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(2, 7), extra=0.4)
        chi, _ = chromatic_number(g)
        parts = count_color_partitions(g, chi)
        labeled = labeled_count(g, chi)
        assert labeled == parts * math.factorial(chi)


def test_budget_raises():
    with pytest.raises(BudgetExceededError):
        find_k_coloring(make(Family.CYCLE, n=9), 2, budget=2)
    with pytest.raises(BudgetExceededError):
        chromatic_number(make(Family.CYCLE_OF_CLIQUES_MINUS, n=3, m=5), budget=5)


def test_count_labeled_colorings_matches_oracle():
    rng = random.Random(15)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(1, 7), extra=rng.choice([0.2, 0.5, 0.8]))
        for k in range(1, 5):
            want = brute_count_extensions(g, PartialColoring(k, {}))
            assert labeled_count(g, k) == want


def test_chromatic_number_of_long_odd_cycle():
    # deeper than the default recursion limit: the search keeps its own stack
    g = make(Family.CYCLE, n=1201)
    chi, witness = chromatic_number(g)
    assert chi == 3
    assert frozenset(witness.assignments) == frozenset(range(g.n))
    assert is_proper(g, witness)


def test_greedy_coloring_is_dsatur():
    # The reference DSATUR: most saturated first, ties to higher degree then
    # lower index, lowest free color.
    rng = random.Random(16)
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(1, 11), extra=rng.choice([0.1, 0.4, 0.85]))
        seen, want = [0] * g.n, {}
        for _ in range(g.n):
            v = max(
                (u for u in range(g.n) if u not in want),
                key=lambda u: (seen[u].bit_count(), g.degree(u), -u),
            )
            bit = ~seen[v] & (seen[v] + 1)
            want[v] = bit.bit_length()
            for u in g.adj[v]:
                seen[u] |= bit
        assert greedy_coloring(g) == want


def test_public_names_resolve_and_wrappers_are_gone():
    for name in sudokugraph.__all__:
        assert hasattr(sudokugraph, name), name
    removed = (
        "count_labeled_colorings",
        "is_uniquely_colorable",
        "is_extendable",
        "is_sudoku_coloring",
    )
    for name in removed:
        assert name not in sudokugraph.__all__
        assert not hasattr(sudokugraph, name)
    # Accessors no library code used; callers read what is behind each.
    accessors = {
        sudokugraph.Graph: ("neighbors", "has_edge"),
        sudokugraph.PartialColoring: ("domain", "color_classes", "with_assignment"),
        sudokugraph.FamilySpec: ("describe",),
        sudokugraph.TheoremCase: ("describe",),
        sudokugraph.coloring: ("TRACE_RULES",),
        sudokugraph.io: ("serialize_coloring",),
        BudgetExceededError("spent"): ("nodes",),
    }
    for owner, names in accessors.items():
        for name in names:
            assert not hasattr(owner, name), name
    assert "serialize_coloring" not in sudokugraph.__all__


def test_input_checks():
    empty, k3 = build(0, []), make(Family.COMPLETE, n=3)
    assert greedy_clique(empty) == []
    assert find_k_coloring(empty, 3) == {}
    assert find_k_coloring(k3, 0) is None
    with pytest.raises(ValueError, match="nonempty"):
        chromatic_number(empty)
    for k, cap in ((-1, None), (3, 0)):
        with pytest.raises(ValueError):
            count_color_partitions(k3, k, cap)
    full = ColorListState({v: {1, 2, 3} for v in range(3)})
    assert count_list_colorings(k3, full, cap=10) == 6
    for state, cap in (
        (full, 0),
        (ColorListState({0: {1}, 1: {2}}), 2),
        (ColorListState({0: {1}, 1: {2}, 2: {0}}), 2),
        (ColorListState({0: {1}, 1: {2}, 2: set()}), 2),
    ):
        with pytest.raises(ValueError):
            count_list_colorings(k3, state, cap)


def test_negative_node_budget_is_rejected():
    # On K_3 no exact search runs, so the budget is checked before any search.
    for g in (make(Family.COMPLETE, n=3), make(Family.CYCLE, n=5)):
        with pytest.raises(ValueError, match="budget"):
            chromatic_number(g, budget=-5)
        with pytest.raises(ValueError, match="budget"):
            find_k_coloring(g, 3, budget=-1)
        with pytest.raises(ValueError, match="budget"):
            count_color_partitions(g, 3, budget=-1)
        assert count_color_partitions(g, 3, budget=100) >= 1
