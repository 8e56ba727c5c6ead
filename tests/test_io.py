import itertools
import json
import random

import pytest

from sudokugraph import (
    Family,
    FamilySpec,
    GraphFormat,
    MalformedPuzzleError,
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
import sudokugraph.graph as graph_module
import sudokugraph.io as io_module
from sudokugraph.graph import MAX_VERTICES
from sudokugraph.io import certificate_from_object, certificate_to_object, parse_certificate
from sudokugraph.sn import sn_exact


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
    for data, line in (
        (b"-1 0\n", 1),
        (b"\n3 -2\n", 2),
        (b"3 1\n0 1 2\n", 2),
        (b"3 2\n0 1\n2\n", 3),
        (b"3 1\n0 x\n", 2),
        (b"3 2\n0 1\n\n1 2.5\n", 4),
    ):
        with pytest.raises(ParseError) as err:
            parse_graph(data, GraphFormat.EDGELIST)
        assert err.value.line == line, data
        assert f"(line {line})" in str(err.value)


# Every line boundary of str.splitlines; the last three are not ASCII, so only str input has them.
LINE_BREAKS = ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@pytest.mark.parametrize("block", [1, 2, 3, 1 << 16])
@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_edgelist_lines_break_where_splitlines_does(monkeypatch, block, brk):
    # Small blocks put a block's end next to, and inside, every boundary.
    monkeypatch.setattr(io_module, "_BLOCK", block)
    good = brk.join(["3 2", "0 1", "", " ", "1 2"]) + brk
    inputs = [good, good.encode("ascii")] if brk.isascii() else [good]
    for data in inputs:
        assert parse_graph(data, GraphFormat.EDGELIST) == build(3, [(0, 1), (1, 2)])
    bad = brk.join(["3 2", "0 1", "", "1 x", ""])
    with pytest.raises(ParseError, match="integers") as err:
        parse_graph(bad, GraphFormat.EDGELIST)
    assert err.value.line == bad.splitlines().index("1 x") + 1


@pytest.mark.parametrize("block", [1, 2, 3, 5])
def test_edgelist_lines_match_splitlines_on_mixed_breaks(monkeypatch, block):
    monkeypatch.setattr(io_module, "_BLOCK", block)
    rng = random.Random(block)
    pieces = LINE_BREAKS + ("\r\r", "\n\r", "", " ", "0", "1 2")
    for _ in range(2000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
        assert list(io_module._lines(text)) == text.splitlines(), repr(text)


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
    for edges in ("5", '{"0": 1}', '"01"', "null"):
        with pytest.raises(ParseError, match="'edges' must be a list"):
            parse_graph(f'{{"n": 2, "edges": {edges}}}'.encode("ascii"), GraphFormat.JSON)


def test_non_ascii_rejected():
    with pytest.raises(ParseError):
        parse_graph("3 1\n0 é\n".encode("utf-8"), GraphFormat.EDGELIST)


def test_graph_object_round_trip():
    g = generate(FamilySpec(Family.FAN, {"n": 4}))
    assert graph_from_object(graph_to_object(g)) == g


@pytest.mark.parametrize(
    "parse, obj",
    [
        (graph_from_object, {"n": 2, "edges": [[True, False]]}),
        (graph_from_object, {"n": 2, "edges": [[0, True]]}),
        *((coloring_from_object, {"k": 2, "colors": {key: 1}})
          for key in ("01", " 1", "1 ", "+1", "1_0", "\u0663", "-0")),
        # Two spellings of vertex 1 would overwrite each other.
        (coloring_from_object, {"k": 2, "colors": {"1": 1, "01": 2, "1_0": 2, "10": 1}}),
    ],
)
def test_json_inputs_name_each_vertex_one_way(parse, obj):
    with pytest.raises(ParseError):
        parse(obj)


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
    for data in (b"{", b'{"k": 2, "colors": {"0": 1}', b"", "é".encode("utf-8")):
        with pytest.raises(ParseError):
            parse_coloring(data)
    with pytest.raises(ParseError) as err:
        parse_coloring(b'{"k": 2 "colors": {}}')
    assert err.value.pos == 8


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


@pytest.mark.parametrize(
    "convert",
    [lambda: parse_graph("2 1\n0 1\n", "dot"), lambda: serialize_graph(build(2, [(0, 1)]), "dot")],
    ids=["parse_graph", "serialize_graph"],
)
def test_graph_formats_outside_the_enum_are_rejected(convert):
    with pytest.raises(ValueError, match="unknown format 'dot'"):
        convert()


def test_parse_graph_takes_str_and_bytes():
    text = "3 2\n0 1\n1 2\n"
    assert parse_graph(text) == parse_graph(text.encode("ascii")) == build(3, [(0, 1), (1, 2)])


def test_coloring_palette_is_bounded_by_max_vertices():
    assert coloring_from_object({"k": MAX_VERTICES, "colors": {"0": MAX_VERTICES}}).k == MAX_VERTICES
    for k in (MAX_VERTICES + 1, 10**6, 4 * 10**6):
        with pytest.raises(ParseError, match="exceeds"):
            coloring_from_object({"k": k, "colors": {}})


def test_graph_bounds_are_build_s_with_the_place_they_were_read():
    for data, line, message in (
        (b"3 1\n0 3\n", 2, r"outside range\(0, 3\)"),
        (b"3 2\n0 1\n\n-1 2\n", 4, r"outside range\(0, 3\)"),
        (b"3 2\n0 1\n2 2\n", 3, "self-loop at vertex 2"),
        (f"{MAX_VERTICES + 1} 0\n".encode("ascii"), 1, "exceeds the configured budget"),
    ):
        with pytest.raises(ParseError, match=message) as err:
            parse_graph(data, GraphFormat.EDGELIST)
        assert err.value.line == line, data
    for obj, message in (
        ({"n": 3, "edges": [[0, 1], [1, 3]]}, "edge (1, 3) outside range(0, 3) (edge 1)"),
        ({"n": 3, "edges": [[0, 1], [1, 2], [2, 2]]}, "self-loop at vertex 2 (edge 2)"),
        ({"n": -1, "edges": []}, "vertex count must be nonnegative, got -1"),
        (
            {"n": MAX_VERTICES + 1, "edges": []},
            f"graph order {MAX_VERTICES + 1} exceeds the configured budget of {MAX_VERTICES}",
        ),
    ):
        with pytest.raises(ParseError) as err:
            graph_from_object(obj)
        assert str(err.value) == message


def test_edges_are_read_one_at_a_time(monkeypatch):
    monkeypatch.setattr(graph_module, "MAX_EDGES", 10)
    pairs = list(itertools.combinations(range(11), 2))[:50]
    text = "11 50\n" + "".join(f"{u} {v}\n" for u, v in pairs)
    with pytest.raises(ParseError, match="10 edges") as err:
        parse_graph(text, GraphFormat.EDGELIST)
    # The header is line 1, so the eleventh distinct edge is on line 12.
    assert err.value.line == 12
    # A repeated edge line is not a new edge.
    text = "11 50\n" + "0 1\n" * 40 + "".join(f"{u} {v}\n" for u, v in pairs[1:11])
    with pytest.raises(ParseError) as err:
        parse_graph(text, GraphFormat.EDGELIST)
    assert err.value.line == 51
    with pytest.raises(ParseError, match=r"10 edges \(edge 10\)$"):
        graph_from_object({"n": 11, "edges": [list(e) for e in pairs]})


def test_an_edge_line_is_checked_before_the_edge_count():
    with pytest.raises(ParseError, match="edge line must be") as err:
        parse_graph(b"3 5\n0 1\n1 2 0\n", GraphFormat.EDGELIST)
    assert err.value.line == 3
    with pytest.raises(ParseError, match="expected 5 edge lines, found 2") as err:
        parse_graph(b"3 5\n0 1\n1 2\n\n", GraphFormat.EDGELIST)
    assert err.value.line == 3


def test_coloring_bounds_are_partial_coloring_s():
    for obj, message in (
        ({"k": 0, "colors": {}}, "k must be >= 1"),
        ({"k": 2, "colors": {"0": 3}}, "outside 1..2"),
        ({"k": 2, "colors": {"-1": 1}}, "nonnegative"),
        ({"k": 2, "colors": {"0": True}}, "outside 1..2"),
        ({"k": True, "colors": {}}, "positive integer"),
    ):
        with pytest.raises(ParseError, match=message):
            coloring_from_object(obj)


def test_certificate_round_trip():
    cert = sn_exact(generate(FamilySpec(Family.WHEEL, {"n": 5}))).certificate
    obj = certificate_to_object(cert)
    assert list(obj) == ["graph", "k", "colors", "claimed_sn", "provenance"]
    assert certificate_from_object(obj) == cert
    assert parse_certificate(json.dumps(obj).encode("ascii")) == cert
    for data in (b"{", b"", "\u00e9".encode("utf-8")):
        with pytest.raises(ParseError):
            parse_certificate(data)


def test_parse_puzzle_reads_81_cells_and_rejects_the_rest():
    assert io_module.parse_puzzle("1." + "0" * 70 + "\n" + "0" * 8 + "9") == {0: 1, 80: 9}
    for bad in ("1" * 80, "x" + "0" * 80):
        with pytest.raises(MalformedPuzzleError):
            io_module.parse_puzzle(bad)
