"""Wire formats: edge lists, JSON graphs, colorings, certificates, puzzles, DOT."""

from __future__ import annotations

import json
import re
from enum import Enum

from .coloring import PartialColoring, is_proper
from .errors import MalformedPuzzleError, ParseError, SelfLoopError, VertexOutOfRangeError
from .graph import Graph, build
from .sn import Certificate


class GraphFormat(Enum):
    EDGELIST = "edgelist"
    JSON = "json"


def _as_text(data) -> str:
    if isinstance(data, (bytes, bytearray)):
        try:
            return data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not ASCII: {exc}", pos=exc.start)
    return data


def _load_json(text):
    try:
        return json.loads(_as_text(text))
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc.msg}", pos=exc.pos)


def parse_graph(text, fmt: GraphFormat = GraphFormat.EDGELIST) -> Graph:
    """Parse a graph from bytes or str in the given format."""
    if fmt is GraphFormat.EDGELIST:
        return _parse_edgelist(_as_text(text))
    if fmt is GraphFormat.JSON:
        return graph_from_object(_load_json(text))
    raise ValueError(f"unknown format {fmt!r}")


# A line boundary of str.splitlines, "\r\n" whole; and the characters per block of _lines.
_BREAK = re.compile("\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")
_BLOCK = 1 << 16


def _lines(raw: str):
    """The lines of raw.splitlines(), a block at a time, so no list of all of them is built.

    Each block ends just after the first line boundary at least _BLOCK
    characters in, or at the end of raw, so the blocks' lines are raw's.
    """
    start = 0
    while start < len(raw):
        cut = _BREAK.search(raw, start + _BLOCK)
        end = cut.end() if cut else len(raw)
        yield from raw[start:end].splitlines()
        start = end


def _parse_edgelist(raw: str) -> Graph:
    rows = ((i, line.split()) for i, line in enumerate(_lines(raw), start=1) if line.strip())
    first = next(rows, None)
    if first is None:
        raise ParseError("empty edge list input", line=1)
    lineno, header = first
    if len(header) != 2:
        raise ParseError("header must be 'n m'", line=lineno)
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError("header must hold two integers", line=lineno)
    if n < 0 or m < 0:
        raise ParseError("header counts must be nonnegative", line=lineno)

    def edges():
        nonlocal lineno
        found = 0
        for lineno, parts in rows:
            found += 1
            if len(parts) != 2:
                raise ParseError("edge line must be 'u v'", line=lineno)
            try:
                edge = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError("edge endpoints must be integers", line=lineno)
            yield edge
        if found != m:
            raise ParseError(f"expected {m} edge lines, found {found}", line=lineno)

    # build reads one edge line at a time, so it stops the read past MAX_EDGES edges;
    # its rejections (a self-loop, a vertex or count out of bounds) get the line last read.
    try:
        return build(n, edges())
    except (SelfLoopError, VertexOutOfRangeError, ValueError) as exc:
        raise ParseError(str(exc), line=lineno)


def graph_from_object(obj) -> Graph:
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ParseError("graph object needs keys 'n' and 'edges'")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError(f"'n' must be a nonnegative integer, got {n!r}")
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise ParseError("'edges' must be a list of pairs")
    where = ""

    def pairs():
        nonlocal where
        for i, e in enumerate(edges):
            where = f" (edge {i})"
            if not isinstance(e, list) or len(e) != 2 or not all(type(x) is int for x in e):
                raise ParseError(f"edge {i} must be a pair of integers, got {e!r}")
            yield e

    try:
        return build(n, pairs())
    except (SelfLoopError, VertexOutOfRangeError, ValueError) as exc:
        raise ParseError(f"{exc}{where}")


def graph_to_object(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges]}


def serialize_graph(g: Graph, fmt: GraphFormat = GraphFormat.EDGELIST) -> bytes:
    if fmt is GraphFormat.EDGELIST:
        lines = [f"{g.n} {g.m}"]
        lines += [f"{u} {v}" for u, v in g.edges]
        return ("\n".join(lines) + "\n").encode("ascii")
    if fmt is GraphFormat.JSON:
        return (json.dumps(graph_to_object(g)) + "\n").encode("ascii")
    raise ValueError(f"unknown format {fmt!r}")


def coloring_from_object(obj) -> PartialColoring:
    if not isinstance(obj, dict) or "k" not in obj or "colors" not in obj:
        raise ParseError("coloring object needs keys 'k' and 'colors'")
    k = obj["k"]
    if not isinstance(k, int) or isinstance(k, bool):
        raise ParseError(f"'k' must be a positive integer, got {k!r}")
    colors = obj["colors"]
    if not isinstance(colors, dict):
        raise ParseError("'colors' must map vertex names to colors")
    assignments = {}
    for key, col in colors.items():
        try:
            v = int(key)
        except (TypeError, ValueError):
            v = None
        if str(v) != key:  # one spelling per vertex: no "01", " 1", "+1", "1_0"
            raise ParseError(f"vertex key {key!r} is not a plain integer")
        if not isinstance(col, int) or isinstance(col, bool):
            raise ParseError(f"vertex {v} has color {col!r} outside 1..{k}")
        assignments[v] = col
    try:
        return PartialColoring(k, assignments)
    except ValueError as exc:
        raise ParseError(str(exc))


def parse_coloring(text) -> PartialColoring:
    return coloring_from_object(_load_json(text))


def coloring_to_object(c: PartialColoring) -> dict:
    return {"k": c.k, "colors": {str(v): c.assignments[v] for v in sorted(c.assignments)}}


def certificate_from_object(obj) -> Certificate:
    if not isinstance(obj, dict):
        raise ParseError("certificate must be a JSON object")
    for key in ("graph", "k", "colors", "claimed_sn", "provenance"):
        if key not in obj:
            raise ParseError(f"certificate is missing key {key!r}")
    g = graph_from_object(obj["graph"])
    partial = coloring_from_object({"k": obj["k"], "colors": obj["colors"]})
    claimed = obj["claimed_sn"]
    if not isinstance(claimed, int) or isinstance(claimed, bool) or claimed < 0:
        raise ParseError(f"claimed_sn must be a nonnegative integer, got {claimed!r}")
    provenance = obj["provenance"]
    if not isinstance(provenance, str):
        raise ParseError("provenance must be a string")
    return Certificate(g, partial, claimed, provenance)


def parse_certificate(text) -> Certificate:
    return certificate_from_object(_load_json(text))


def certificate_to_object(cert: Certificate) -> dict:
    return {
        "graph": graph_to_object(cert.graph),
        **coloring_to_object(cert.partial),
        "claimed_sn": cert.claimed_sn,
        "provenance": cert.provenance,
    }


PUZZLE_CELLS = 81
PUZZLE_EMPTY = {"0", "."}


def parse_puzzle(text: str) -> dict[int, int]:
    """81 row-major cells over 1-9 with 0 or . for blanks."""
    cells = [ch for ch in text if not ch.isspace()]
    if len(cells) != PUZZLE_CELLS:
        raise MalformedPuzzleError(f"puzzle needs exactly {PUZZLE_CELLS} cells, got {len(cells)}")
    givens = {}
    for i, ch in enumerate(cells):
        if ch in PUZZLE_EMPTY:
            continue
        if ch < "1" or ch > "9":
            raise MalformedPuzzleError(f"bad cell {ch!r} at position {i}")
        givens[i] = int(ch)
    return givens


def emit_dot(g: Graph, coloring: PartialColoring | None = None) -> bytes:
    """Graphviz source; colored vertices get a fill keyed by their color index."""
    if coloring is not None:
        is_proper(g, coloring)  # for its ValueError on a colored vertex outside range(n)
    lines = ["graph G {", "  node [shape=circle];"]
    assignments = coloring.assignments if coloring is not None else {}
    k = coloring.k if coloring is not None else 1
    for v in range(g.n):
        col = assignments.get(v)
        if col is None:
            lines.append(f"  {v};")
        else:
            hue = (col - 1) / max(k, 1)
            lines.append(
                f'  {v} [style=filled, fillcolor="{hue:.3f} 0.350 1.000", '
                f'label="{v}:{col}"];'
            )
    for u, v in g.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("ascii")
