import random
import sys

import pytest

sys.path.insert(0, "tests")
from oracles import random_connected_graph, random_proper_partial

from sudokugraph import (
    ColorListState,
    ExtensionKind,
    ExtensionOutcome,
    PartialColoring,
    TraceStep,
    build,
    is_proper,
)
from sudokugraph.coloring import (
    RULE_ATTRACTIVE,
    RULE_BRANCH,
    RULE_COLOR_DOMINATING,
    RULE_NEAR_COLOR_DOMINATING,
)
from sudokugraph.graph import MAX_VERTICES


def test_partial_coloring_validation():
    c = PartialColoring(3, {0: 1, 5: 3})
    assert c.k == 3
    assert c.assignments[5] == 3
    with pytest.raises(ValueError):
        PartialColoring(0, {})
    with pytest.raises(ValueError):
        PartialColoring(3, {0: 0})
    with pytest.raises(ValueError):
        PartialColoring(3, {0: 4})
    with pytest.raises(ValueError):
        PartialColoring(3, {-1: 2})
    assert PartialColoring(MAX_VERTICES, {0: MAX_VERTICES}).k == MAX_VERTICES
    for k in (MAX_VERTICES + 1, 4 * 10**6):
        with pytest.raises(ValueError, match="exceeds the configured budget"):
            PartialColoring(k, {})


def test_partial_coloring_is_immutable():
    c = PartialColoring(3, {0: 1})
    with pytest.raises(TypeError):
        c.assignments[1] = 2
    source = {0: 1}
    c2 = PartialColoring(3, source)
    source[1] = 2
    assert 1 not in c2.assignments


def test_partial_coloring_views():
    c = PartialColoring(4, {0: 2, 3: 2, 1: 4})
    assert frozenset(c.assignments) == frozenset({0, 1, 3})
    assert c.colors_used == frozenset({2, 4})


def test_partial_coloring_equality():
    a = PartialColoring(3, {0: 1, 2: 2})
    b = PartialColoring(3, {2: 2, 0: 1})
    c = PartialColoring(4, {0: 1, 2: 2})
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_is_proper():
    g = build(3, [(0, 1), (1, 2)])
    assert is_proper(g, PartialColoring(2, {0: 1, 1: 2, 2: 1}))
    assert not is_proper(g, PartialColoring(2, {0: 1, 1: 1}))
    assert is_proper(g, PartialColoring(2, {0: 1, 2: 1}))
    assert is_proper(g, PartialColoring(2, {}))
    with pytest.raises(ValueError):
        is_proper(g, PartialColoring(2, {7: 1}))


def _edge_loop_is_proper(g, c):
    a = c.assignments
    return all(a.get(u) is None or a.get(u) != a.get(v) for u, v in g.edges)


def test_is_proper_matches_an_edge_loop_on_random_partials():
    rng = random.Random(31)
    seen = set()
    for _ in range(400):
        g = random_connected_graph(rng, rng.randint(2, 12), extra=rng.choice([0.1, 0.5]))
        k = rng.randint(1, 5)
        coverage = rng.choice([0.0, 0.3, 0.7, 1.0])
        if rng.random() < 0.5:
            c = random_proper_partial(rng, g, k, coverage)
        else:
            picks = {v: rng.randint(1, k) for v in range(g.n) if rng.random() < coverage}
            c = PartialColoring(k, picks)
        got = is_proper(g, c)
        assert got == _edge_loop_is_proper(g, c)
        seen.add((got, len(c.assignments) == g.n))
    # Proper and improper, partial and full colorings all occur.
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    # The range check comes first, also when an edge is improper.
    g = build(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        is_proper(g, PartialColoring(2, {0: 1, 1: 1, 3: 2}))


def test_color_list_state_from_partial():
    g = build(4, [(0, 1), (1, 2), (2, 3)])
    c = PartialColoring(3, {0: 1, 2: 3})
    state = ColorListState.from_partial(g, c)
    assert set(state.lists) == {1, 3}
    assert state.lists[1] == frozenset({2})
    assert state.lists[3] == frozenset({1, 2})


def test_trace_rule_labels():
    assert [RULE_COLOR_DOMINATING, RULE_NEAR_COLOR_DOMINATING, RULE_ATTRACTIVE, RULE_BRANCH] == [
        "color-dominating",
        "near-color-dominating",
        "attractive",
        "branch",
    ]
    step = TraceStep(4, 2, RULE_COLOR_DOMINATING)
    assert step.vertex == 4 and step.color == 2
    assert step.rule == "color-dominating"


def test_extension_outcome_defaults():
    out = ExtensionOutcome(ExtensionKind.NOT_EXTENDABLE)
    assert out.witness1 is None and out.witness2 is None
    assert out.trace == () and out.count == 0
    assert ExtensionKind.UNIQUE.value == "unique"
    assert ExtensionKind.MULTIPLE.value == "multiple"
    assert ExtensionKind.NOT_EXTENDABLE.value == "not-extendable"
