import itertools
import random

import pytest

from sudokugraph import (
    Graph,
    SelfLoopError,
    VertexOutOfRangeError,
    build,
    induced_subgraph,
    is_connected,
    relabel,
)
import sudokugraph.graph as graph_module
from sudokugraph.graph import MAX_VERTICES, bipartition


def test_build_normalizes_and_dedups():
    g = build(4, [(1, 0), (0, 1), (2, 3), (3, 2), (0, 3)])
    assert g.n == 4
    assert g.edges == ((0, 1), (0, 3), (2, 3))
    assert g.m == 3


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        build(3, [(0, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(VertexOutOfRangeError):
        build(3, [(0, 3)])
    with pytest.raises(VertexOutOfRangeError):
        build(3, [(-1, 2)])


def test_build_stops_reading_edges_past_max_edges(monkeypatch):
    monkeypatch.setattr(graph_module, "MAX_EDGES", 10)
    read = []

    def edges():
        for e in itertools.combinations(range(100), 2):
            read.append(e)
            yield e

    with pytest.raises(ValueError, match="10 edges"):
        build(100, edges())
    assert len(read) == 11
    # The bound counts distinct edges, and a graph at the bound is built.
    assert build(3, [(0, 1), (1, 0)] * 20).m == 1
    assert build(5, itertools.combinations(range(5), 2)).m == 10


def test_build_rejects_too_many_vertices():
    with pytest.raises(ValueError):
        build(MAX_VERTICES + 1, [])
    with pytest.raises(ValueError):
        build(-1, [])


def test_adjacency_and_degree():
    g = build(4, [(0, 1), (0, 2), (0, 3)])
    assert g.degree(0) == 3
    assert g.degree(2) == 1
    assert g.adj[0] == (1, 2, 3)
    assert 2 in g.adj[0] and 0 in g.adj[2]
    assert 2 not in g.adj[1]


def test_graph_equality_and_hash():
    a = build(3, [(0, 1), (1, 2)])
    b = build(3, [(1, 2), (0, 1)])
    c = build(3, [(0, 1), (0, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_is_connected():
    assert is_connected(build(1, []))
    assert is_connected(build(3, [(0, 1), (1, 2)]))
    assert not is_connected(build(3, [(0, 1)]))
    assert not is_connected(build(2, []))


def test_bipartition_on_even_cycle():
    g = build(6, [(i, (i + 1) % 6) for i in range(6)])
    sides = bipartition(g)
    assert sides is not None
    a, b = sides
    assert a | b == set(range(6)) and not a & b
    for u, v in g.edges:
        assert (u in a) != (v in a)


def test_bipartition_rejects_odd_cycle():
    g = build(5, [(i, (i + 1) % 5) for i in range(5)])
    assert bipartition(g) is None


def test_induced_subgraph_keeps_inner_edges():
    g = build(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    sub, labels = induced_subgraph(g, [1, 2, 3])
    assert sub.n == 3
    assert labels == [1, 2, 3]
    assert sub.edges == ((0, 1), (0, 2), (1, 2))


def test_relabel_is_isomorphism():
    rng = random.Random(42)
    for _ in range(50):
        n = rng.randint(2, 9)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [e for e in pool if rng.random() < 0.4]
        g = build(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert h.n == g.n and h.m == g.m
        for u, v in g.edges:
            assert perm[v] in h.adj[perm[u]]


def test_relabel_identity():
    g = build(4, [(0, 1), (2, 3)])
    assert relabel(g, [0, 1, 2, 3]) == g


def test_relabel_rejects_non_permutation():
    g = build(3, [(0, 1)])
    with pytest.raises(ValueError):
        relabel(g, [0, 0, 1])
    with pytest.raises(ValueError):
        relabel(g, [0, 1])
