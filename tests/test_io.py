import json
import random

import pytest

from sudokugraph import (
    Family,
    FamilySpec,
    GraphFormat,
    ParseError,
    PartialColoring,
    build,
    coloring_from_object,
    coloring_to_object,
    emit_dot,
    generate,
    graph_from_object,
    graph_to_object,
    parse_coloring,
    parse_graph,
    serialize_graph,
)
from sudokugraph.graph import MAX_VERTICES
from sudokugraph.io import certificate_from_object


def test_edgelist_round_trip():
    g = generate(FamilySpec(Family.WHEEL, {"n": 5}))
    data = serialize_graph(g, GraphFormat.EDGELIST)
    assert data.endswith(b"\n")
    assert data.splitlines()[0] == b"6 10"
    assert parse_graph(data, GraphFormat.EDGELIST) == g


def test_json_round_trip():
    g = generate(FamilySpec(Family.LOLLIPOP, {"n": 4, "m": 3}))
    data = serialize_graph(g, GraphFormat.JSON)
    obj = json.loads(data)
    assert obj["n"] == g.n
    assert all(u < v for u, v in obj["edges"])
    assert parse_graph(data, GraphFormat.JSON) == g


def test_round_trip_many_random_graphs():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(1, 9)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = build(n, [e for e in pool if rng.random() < 0.4])
        for fmt in GraphFormat:
            assert parse_graph(serialize_graph(g, fmt), fmt) == g


def test_edgelist_whitespace_tolerance():
    g = parse_graph(b"3   2\n0\t 1\n1   2\n", GraphFormat.EDGELIST)
    assert g.edges == ((0, 1), (1, 2))


def test_edgelist_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_graph(b"2 1\n0 2\n", GraphFormat.EDGELIST)
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError):
        parse_graph(b"", GraphFormat.EDGELIST)
    with pytest.raises(ParseError):
        parse_graph(b"2\n", GraphFormat.EDGELIST)
    with pytest.raises(ParseError):
        parse_graph(b"2 2\n0 1\n", GraphFormat.EDGELIST)
    with pytest.raises(ParseError):
        parse_graph(b"2 0\n0 1\n", GraphFormat.EDGELIST)
    with pytest.raises(ParseError):
        parse_graph(b"x y\n", GraphFormat.EDGELIST)
    with pytest.raises(ParseError):
        parse_graph(b"2 1\n0 0\n", GraphFormat.EDGELIST)


def test_json_graph_errors():
    with pytest.raises(ParseError):
        parse_graph(b"{", GraphFormat.JSON)
    with pytest.raises(ParseError):
        parse_graph(b"[]", GraphFormat.JSON)
    with pytest.raises(ParseError):
        parse_graph(b'{"n": 2}', GraphFormat.JSON)
    with pytest.raises(ParseError):
        parse_graph(b'{"n": 2, "edges": [[0, 2]]}', GraphFormat.JSON)
    with pytest.raises(ParseError):
        parse_graph(b'{"n": 2, "edges": [[0]]}', GraphFormat.JSON)
    with pytest.raises(ParseError):
        parse_graph(b'{"n": "2", "edges": []}', GraphFormat.JSON)
    with pytest.raises(ParseError):
        parse_graph(b'{"n": 2, "edges": [[0, 0]]}', GraphFormat.JSON)


def test_non_ascii_rejected():
    with pytest.raises(ParseError):
        parse_graph("3 1\n0 é\n".encode("utf-8"), GraphFormat.EDGELIST)


def test_graph_object_round_trip():
    g = generate(FamilySpec(Family.FAN, {"n": 4}))
    assert graph_from_object(graph_to_object(g)) == g


def test_coloring_round_trip():
    c = PartialColoring(4, {0: 1, 7: 4, 3: 2})
    data = (json.dumps(coloring_to_object(c)) + "\n").encode("ascii")
    back = parse_coloring(data)
    assert back == c
    obj = json.loads(data)
    assert obj["k"] == 4
    assert list(obj["colors"]) == ["0", "3", "7"]


def test_coloring_object_validation():
    assert coloring_from_object({"k": 2, "colors": {"0": 1}}).assignments[0] == 1
    with pytest.raises(ParseError):
        coloring_from_object({"colors": {}})
    with pytest.raises(ParseError):
        coloring_from_object({"k": 2, "colors": {"0": 3}})
    with pytest.raises(ParseError):
        coloring_from_object({"k": 2, "colors": {"a": 1}})
    with pytest.raises(ParseError):
        coloring_from_object({"k": 0, "colors": {}})
    with pytest.raises(ParseError):
        coloring_from_object({"k": 2, "colors": [1, 2]})
    roundtrip = coloring_to_object(PartialColoring(2, {1: 2}))
    assert roundtrip == {"k": 2, "colors": {"1": 2}}


def test_certificate_object_validation():
    obj = {
        "graph": {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]},
        "k": 3,
        "colors": {"0": 1, "1": 2},
        "claimed_sn": 2,
        "provenance": "exact-search",
    }
    cert = certificate_from_object(obj)
    assert cert.graph.m == 3
    assert cert.partial == PartialColoring(3, {0: 1, 1: 2})
    assert (cert.claimed_sn, cert.provenance) == (2, "exact-search")
    for bad in (
        [],
        {key: val for key, val in obj.items() if key != "provenance"},
        {**obj, "claimed_sn": -1},
        {**obj, "claimed_sn": True},
        {**obj, "provenance": 7},
        {**obj, "colors": {"0": 4}},
    ):
        with pytest.raises(ParseError):
            certificate_from_object(bad)


def test_dot_output_plain():
    g = build(3, [(0, 1), (1, 2)])
    dot = emit_dot(g).decode("ascii")
    assert dot.startswith("graph G {")
    assert "0 -- 1;" in dot and "1 -- 2;" in dot
    assert "fillcolor" not in dot


def test_dot_output_colored():
    g = build(3, [(0, 1), (1, 2)])
    dot = emit_dot(g, PartialColoring(2, {0: 1, 2: 2})).decode("ascii")
    assert "style=filled" in dot
    assert 'label="0:1"' in dot and 'label="2:2"' in dot
    # vertex 1 is uncolored: plain node, no fill
    lines = [ln for ln in dot.splitlines() if ln.strip().startswith("1 ")]
    assert not any("fillcolor" in ln for ln in lines)


def test_dot_rejects_foreign_vertices():
    g = build(2, [(0, 1)])
    with pytest.raises(ValueError):
        emit_dot(g, PartialColoring(2, {5: 1}))


def test_parse_graph_takes_str_and_bytes():
    text = "3 2\n0 1\n1 2\n"
    assert parse_graph(text) == parse_graph(text.encode("ascii")) == build(3, [(0, 1), (1, 2)])


def test_coloring_palette_is_bounded_by_max_vertices():
    assert coloring_from_object({"k": MAX_VERTICES, "colors": {"0": MAX_VERTICES}}).k == MAX_VERTICES
    for k in (MAX_VERTICES + 1, 10**6, 4 * 10**6):
        with pytest.raises(ParseError, match="exceeds"):
            coloring_from_object({"k": k, "colors": {}})
