import math
import random
import sys

sys.path.insert(0, "tests")
from oracles import brute_automorphisms, random_connected_graph

import sudokugraph.canon as canon
from sudokugraph import Clock, Family, FamilySpec, build, generate
from sudokugraph.canon import automorphism_generators
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


def bound(g):
    return canon.AUT_STEPS * (g.n + 2 * g.m)


def test_generators_generate_the_whole_group():
    graphs = [g for n in range(1, 7) for g in connected_graphs_up_to_iso(n)]
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
    # Refinement cannot tell the components apart, so the search must
    # backtrack past first candidates and reject leaves whose traces match.
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


def test_generators_stay_within_the_work_bound(monkeypatch):
    g = generate(FamilySpec(Family.SUDOKU_GRID, {"b": 3}))

    def automorphisms(gens):
        return all(_is_automorphism(g, gamma) for gamma in gens)

    gens, steps = automorphism_generators(g)
    assert gens and 0 < steps <= bound(g)
    assert automorphisms(gens)
    # A bound that bites, and a clock already past its deadline: a valid subset
    # either way, and running out of time raises nothing.
    monkeypatch.setattr(canon, "AUT_STEPS", 4)
    few, steps = automorphism_generators(g)
    assert steps <= bound(g) and len(few) < len(gens) and automorphisms(few)
    monkeypatch.undo()
    assert automorphism_generators(g, Clock(0)) == ([], 0)
