import pytest

from sudokugraph import Family, FamilySpec, InvalidFamilyParamsError, generate, is_connected
from sudokugraph.graph import bipartition


def make(family, **params):
    return generate(FamilySpec(family, params))


def test_path_shape():
    g = make(Family.PATH, n=5)
    assert g.n == 5 and g.m == 4
    assert g.degree(0) == g.degree(4) == 1
    assert all(g.degree(v) == 2 for v in (1, 2, 3))


def test_cycle_shape():
    g = make(Family.CYCLE, n=6)
    assert g.n == 6 and g.m == 6
    assert all(g.degree(v) == 2 for v in range(6))
    assert is_connected(g)


def test_complete_shape():
    g = make(Family.COMPLETE, n=5)
    assert g.n == 5 and g.m == 10


def test_complete_multipartite_parts_are_blocks():
    g = make(Family.COMPLETE_MULTIPARTITE, parts=[2, 3, 1])
    assert g.n == 6
    # consecutive blocks: {0,1}, {2,3,4}, {5}
    assert 1 not in g.adj[0]
    assert 4 not in g.adj[2]
    assert 2 in g.adj[0] and 5 in g.adj[1] and 5 in g.adj[4]
    assert g.m == 2 * 3 + 2 * 1 + 3 * 1


def test_star_and_tree():
    g = make(Family.STAR, n=6)
    assert g.n == 7 and g.m == 6 and g.degree(0) == 6
    t1 = make(Family.TREE, n=9, seed=5)
    t2 = make(Family.TREE, n=9, seed=5)
    t3 = make(Family.TREE, n=9, seed=6)
    assert t1 == t2
    assert t1 != t3
    assert t1.m == 8 and is_connected(t1)
    assert make(Family.TREE, n=1).edges == ()
    assert make(Family.TREE, n=2, seed=3).edges == ((0, 1),)


def test_friendship_is_triangle_bouquet():
    g = make(Family.FRIENDSHIP, m=3)
    assert g.n == 7 and g.m == 9
    assert g.degree(0) == 6
    assert all(g.degree(v) == 2 for v in range(1, 7))


def test_amalgam_order_and_core():
    g = make(Family.AMALGAM, m=3, n=4, r=2)
    assert g.n == 2 + 3 * 2
    core = [0, 1]
    assert 1 in g.adj[0]
    for block in ([2, 3], [4, 5], [6, 7]):
        for v in block:
            for u in core + block:
                if u != v:
                    assert v in g.adj[u]
    assert 4 not in g.adj[2] and 6 not in g.adj[3]


def test_tadpole_shape():
    g = make(Family.TADPOLE, n=5, m=3)
    assert g.n == 5 + 3 - 1
    assert g.m == 5 + 3 - 1
    # one vertex of degree 3 where the path is glued, one pendant end
    degs = sorted(g.degree(v) for v in range(g.n))
    assert degs == [1, 2, 2, 2, 2, 2, 3]


def test_lollipop_shape():
    g = make(Family.LOLLIPOP, n=4, m=2)
    assert g.n == 4 + 2 - 1
    assert g.m == 6 + 1
    assert g.degree(g.n - 1) == 1


def test_cycle_of_cliques_shape():
    for n, m in [(2, 3), (3, 4), (4, 5)]:
        g = make(Family.CYCLE_OF_CLIQUES, n=n, m=m)
        assert g.n == 2 * n + n * (m - 2)
        # rim vertices 0..2n-1 form a cycle, consecutive pairs share a clique
        for i in range(2 * n):
            assert (i + 1) % (2 * n) in g.adj[i]


def test_cycle_of_cliques_minus_is_regular():
    for n, m in [(2, 4), (3, 4), (3, 5), (4, 6)]:
        g = make(Family.CYCLE_OF_CLIQUES_MINUS, n=n, m=m)
        assert g.n == 2 * n + n * (m - 2)
        assert all(g.degree(v) == m - 1 for v in range(g.n))
        for i in range(n):
            assert 2 * i + 1 not in g.adj[2 * i]


def test_stacked_triangulation_growth():
    g = make(Family.STACKED_TRIANGULATION, attachments=[(0, 1), (0, 3)])
    assert g.n == 5 and g.m == 3 + 2 + 2
    assert 0 in g.adj[3] and 1 in g.adj[3]
    assert 0 in g.adj[4] and 3 in g.adj[4]


def test_stacked_triangulation_rejects_non_edge():
    # a non-edge, a non-pair and a triple
    for bad in ([(1, 2), (0, 3)], [5], [(0, 1, 2)]):
        with pytest.raises(InvalidFamilyParamsError):
            make(Family.STACKED_TRIANGULATION, attachments=bad)


def test_fan_and_wheel_hubs():
    f = make(Family.FAN, n=5)
    assert f.n == 6 and f.degree(5) == 5 and f.m == 4 + 5
    w = make(Family.WHEEL, n=5)
    assert w.n == 6 and w.degree(5) == 5 and w.m == 5 + 5


def test_sudoku_grid_structure():
    g = make(Family.SUDOKU_GRID, b=2)
    assert g.n == 16
    assert all(g.degree(v) == 2 * 3 + 1 for v in range(16))
    g3 = make(Family.SUDOKU_GRID, b=3)
    assert g3.n == 81
    assert all(g3.degree(v) == 20 for v in range(81))
    # same row, same column, same box, and none of the three
    assert 8 in g3.adj[0]
    assert 72 in g3.adj[0]
    assert 10 in g3.adj[0]
    assert 13 not in g3.adj[0]


def test_even_families_are_bipartite():
    assert bipartition(make(Family.PATH, n=7)) is not None
    assert bipartition(make(Family.CYCLE, n=8)) is not None
    assert bipartition(make(Family.TREE, n=10, seed=3)) is not None
    assert bipartition(make(Family.TADPOLE, n=4, m=3)) is not None


def test_param_validation():
    with pytest.raises(InvalidFamilyParamsError):
        make(Family.PATH, n=1)
    with pytest.raises(InvalidFamilyParamsError):
        make(Family.CYCLE, n=2)
    with pytest.raises(InvalidFamilyParamsError):
        make(Family.COMPLETE_MULTIPARTITE, parts=[])
    with pytest.raises(InvalidFamilyParamsError):
        make(Family.COMPLETE_MULTIPARTITE, parts=[0, 2])
    with pytest.raises(InvalidFamilyParamsError):
        make(Family.AMALGAM, m=1, n=3, r=1)
    with pytest.raises(InvalidFamilyParamsError):
        make(Family.AMALGAM, m=2, n=3, r=3)
    with pytest.raises(InvalidFamilyParamsError):
        make(Family.TADPOLE, n=2, m=2)
    with pytest.raises(InvalidFamilyParamsError):
        make(Family.TADPOLE, n=3, m=1)
    with pytest.raises(InvalidFamilyParamsError):
        make(Family.LOLLIPOP, n=2, m=2)
    with pytest.raises(InvalidFamilyParamsError):
        make(Family.CYCLE_OF_CLIQUES, n=1, m=3)
    with pytest.raises(InvalidFamilyParamsError):
        make(Family.CYCLE_OF_CLIQUES, n=2, m=2)
    with pytest.raises(InvalidFamilyParamsError):
        make(Family.CYCLE_OF_CLIQUES_MINUS, n=2, m=3)
    with pytest.raises(InvalidFamilyParamsError):
        make(Family.WHEEL, n=2)
    with pytest.raises(InvalidFamilyParamsError):
        make(Family.SUDOKU_GRID, b=1)
    with pytest.raises(InvalidFamilyParamsError):
        make(Family.PATH)
    with pytest.raises(InvalidFamilyParamsError):
        make(Family.PATH, n="5")


def test_family_values_are_kebab_case():
    for fam in Family:
        assert fam.value == fam.value.lower()
        assert " " not in fam.value and "_" not in fam.value
