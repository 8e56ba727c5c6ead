import pytest

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
