import math
import random
import sys

sys.path.insert(0, "tests")
from oracles import brute_automorphisms, random_connected_graph

import sudokugraph.canon as canon
from sudokugraph import Clock, Family, FamilySpec, build, generate
from sudokugraph.canon import automorphism_generators
from sudokugraph.graph import twin_classes
from sudokugraph.sn import connected_graphs_up_to_iso


def closure(n, gens):
    """The group the permutations generate, as a set of tuples."""
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for gamma in gens:
                b = tuple(gamma[a[v]] for v in range(n))
                if b not in group:
                    group.add(b)
                    nxt.append(b)
        frontier = nxt
    return group


def closure_orbits(n, gens):
    """The orbits of range(n) under the permutations, as frozensets."""
    orbits = set()
    for v in range(n):
        orbit, frontier = {v}, [v]
        for u in frontier:
            for gamma in gens:
                if gamma[u] not in orbit:
                    orbit.add(gamma[u])
                    frontier.append(gamma[u])
        orbits.add(frozenset(orbit))
    return orbits


def bound(g):
    return canon.AUT_STEPS * (g.n + 2 * g.m)


def test_generators_generate_the_whole_group():
    graphs = [g for n in range(1, 7) for g, _, _ in connected_graphs_up_to_iso(n)]
    rng = random.Random(2014)
    graphs += [
        random_connected_graph(rng, 7, extra=rng.choice([0.1, 0.3, 0.5, 0.8])) for _ in range(200)
    ]
    symmetric = 0
    for g in graphs:
        gens, steps = automorphism_generators(g)
        assert steps <= bound(g)
        assert tuple(range(g.n)) not in gens
        group = brute_automorphisms(g)
        assert closure(g.n, gens) == group
        symmetric += len(group) > 1
    assert symmetric >= 150


def _is_automorphism(g, gamma):
    return {(min(gamma[u], gamma[v]), max(gamma[u], gamma[v])) for u, v in g.edges} == set(g.edges)


def _random_regular_edges(rng, n, d, offset):
    while True:
        ends = [v for v in range(n) for _ in range(d)]
        rng.shuffle(ends)
        edges = {(min(a, b), max(a, b)) for a, b in zip(ends[::2], ends[1::2]) if a != b}
        if len(edges) == n * d // 2:
            return [(a + offset, b + offset) for a, b in edges]


def test_generators_on_disjoint_unions_of_regular_graphs():
    # Components of one degree look alike to the candidate test, so the
    # search must backtrack past first candidates that map one component
    # into another of a different length.
    rng = random.Random(3)
    for _ in range(40):
        lengths = [rng.randint(3, 8) for _ in range(rng.randint(2, 3))]
        edges, start = [], 0
        for k in lengths:
            edges += [(start + i, start + (i + 1) % k) for i in range(k)]
            start += k
        g = build(start, edges)
        want = 1
        for k in set(lengths):
            want *= (2 * k) ** lengths.count(k) * math.factorial(lengths.count(k))
        gens, _ = automorphism_generators(g)
        assert len(closure(g.n, gens)) == want
    for _ in range(40):
        n = rng.choice([8, 10])
        g = build(2 * n, _random_regular_edges(rng, n, 4, 0) + _random_regular_edges(rng, n, 4, n))
        assert all(_is_automorphism(g, gamma) for gamma in automorphism_generators(g)[0])


def _plant_twin(rng, g):
    """g plus a new vertex, an open or a closed twin of a random vertex."""
    v, w = rng.randrange(g.n), g.n
    nbrs = set(g.adj[v]) | ({v} if rng.random() < 0.5 else set())
    return build(g.n + 1, list(g.edges) + [(u, w) for u in nbrs])


def test_generators_generate_the_brute_force_group_on_random_graphs():
    rng = random.Random(29)
    twins = symmetric = 0
    for _ in range(600):
        n = rng.randint(2, 8)
        planted = rng.randint(0, min(2, n - 2))
        g = random_connected_graph(rng, n - planted, extra=rng.choice([0.1, 0.3, 0.5, 0.8]))
        for _ in range(planted):
            g = _plant_twin(rng, g)
        gens, steps = automorphism_generators(g)
        assert steps <= bound(g)
        assert all(_is_automorphism(g, gamma) and gamma != tuple(range(g.n)) for gamma in gens)
        group = brute_automorphisms(g)
        assert closure(g.n, gens) == group, g.edges
        twins += any(twin_classes(g))
        symmetric += len(group) > 1
    assert twins >= 300 and symmetric >= 350


def test_generators_stay_within_the_work_bound(monkeypatch):
    # The 9x9 grid is vertex-transitive: without refinement a search that
    # must fail runs deep, and the bound stops it.
    grid = generate(FamilySpec(Family.SUDOKU_GRID, {"b": 3}))
    gens, steps = automorphism_generators(grid)
    assert 0 < steps <= bound(grid)
    assert all(_is_automorphism(grid, gamma) for gamma in gens)
    # A bound that bites, a cap on the generators held, and a clock already
    # past its deadline: fewer generators, all automorphisms, and running
    # out of time raises nothing.
    g = generate(FamilySpec(Family.CYCLE_OF_CLIQUES, {"n": 20, "m": 5}))
    gens, steps = automorphism_generators(g)
    assert steps <= bound(g) and len(closure_orbits(g.n, gens)) == 2
    capped, _ = automorphism_generators(g, most=3)
    assert capped == gens[:3]
    monkeypatch.setattr(canon, "AUT_STEPS", 4)
    few, steps = automorphism_generators(g)
    assert steps <= bound(g) and 0 < len(few) < len(gens)
    assert all(_is_automorphism(g, gamma) for gamma in few)
    monkeypatch.undo()
    for h in (grid, g):
        assert automorphism_generators(h, Clock(0)) == ([], 0)


def test_generators_of_a_long_cycle_without_recursion():
    # The search keeps its own stack, so 1,901 levels need no recursion. The
    # group holds the reflection that fixes vertex 0 and moves 0 anywhere,
    # so its order is at least 2n, the order of Aut(C_n).
    n = 1901
    g = generate(FamilySpec(Family.CYCLE, {"n": n}))
    gens, steps = automorphism_generators(g)
    assert len(gens) == 2 and steps <= bound(g)
    assert all(_is_automorphism(g, gamma) for gamma in gens)
    assert closure_orbits(n, gens) == {frozenset(range(n))}
    assert [gamma[0] == 0 and gamma[1] == n - 1 for gamma in gens] == [True, False]
