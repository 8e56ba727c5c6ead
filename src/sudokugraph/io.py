"""Wire formats: edge lists, JSON graphs, colorings, certificates, DOT."""

from __future__ import annotations

import json
from enum import Enum

from .coloring import PartialColoring
from .errors import ParseError
from .graph import MAX_VERTICES, Graph, build
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


def parse_graph(text, fmt: GraphFormat = GraphFormat.EDGELIST) -> Graph:
    """Parse a graph from bytes or str in the given format."""
    raw = _as_text(text)
    if fmt is GraphFormat.EDGELIST:
        return _parse_edgelist(raw)
    if fmt is GraphFormat.JSON:
        return _parse_json_graph(raw)
    raise ValueError(f"unknown format {fmt!r}")


def _parse_edgelist(raw: str) -> Graph:
    lines = raw.splitlines()
    rows: list[tuple[int, list[str]]] = []
    for i, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped:
            rows.append((i, stripped.split()))
    if not rows:
        raise ParseError("empty edge list input", line=1)
    header_line, header = rows[0]
    if len(header) != 2:
        raise ParseError("header must be 'n m'", line=header_line)
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError("header must hold two integers", line=header_line)
    if n < 0 or m < 0:
        raise ParseError("header counts must be nonnegative", line=header_line)
    body = rows[1:]
    if len(body) != m:
        raise ParseError(
            f"expected {m} edge lines, found {len(body)}",
            line=body[-1][0] if body else header_line,
        )
    edges = []
    for lineno, parts in body:
        if len(parts) != 2:
            raise ParseError("edge line must be 'u v'", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("edge endpoints must be integers", line=lineno)
        if not (0 <= u < n) or not (0 <= v < n):
            raise ParseError(f"edge ({u}, {v}) outside range(0, {n})", line=lineno)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", line=lineno)
        edges.append((u, v))
    return build(n, edges)


def _parse_json_graph(raw: str) -> Graph:
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc.msg}", pos=exc.pos)
    return graph_from_object(obj)


def graph_from_object(obj) -> Graph:
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ParseError("graph object needs keys 'n' and 'edges'")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ParseError(f"'n' must be a nonnegative integer, got {n!r}")
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise ParseError("'edges' must be a list of pairs")
    pairs = []
    for i, e in enumerate(edges):
        if not isinstance(e, list) or len(e) != 2 or not all(isinstance(x, int) for x in e):
            raise ParseError(f"edge {i} must be a pair of integers, got {e!r}")
        u, v = e
        if not (0 <= u < n) or not (0 <= v < n):
            raise ParseError(f"edge {i} = ({u}, {v}) outside range(0, {n})")
        if u == v:
            raise ParseError(f"edge {i} is a self-loop at {u}")
        pairs.append((u, v))
    return build(n, pairs)


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
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ParseError(f"'k' must be a positive integer, got {k!r}")
    if k > MAX_VERTICES:
        # No graph needs more colors than vertices, and the engine holds a list of k + 1 entries.
        raise ParseError(f"'k' = {k} exceeds the configured budget of {MAX_VERTICES} colors")
    colors = obj["colors"]
    if not isinstance(colors, dict):
        raise ParseError("'colors' must map vertex names to colors")
    assignments = {}
    for key, col in colors.items():
        try:
            v = int(key)
        except (TypeError, ValueError):
            raise ParseError(f"vertex key {key!r} is not an integer")
        if not isinstance(col, int) or isinstance(col, bool) or not (1 <= col <= k):
            raise ParseError(f"vertex {v} has color {col!r} outside 1..{k}")
        assignments[v] = col
    return PartialColoring(k, assignments)


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


def parse_coloring(text) -> PartialColoring:
    raw = _as_text(text)
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc.msg}", pos=exc.pos)
    return coloring_from_object(obj)


def coloring_to_object(c: PartialColoring) -> dict:
    return {"k": c.k, "colors": {str(v): c.assignments[v] for v in sorted(c.assignments)}}


def emit_dot(g: Graph, coloring: PartialColoring | None = None) -> bytes:
    """Graphviz source; colored vertices get a fill keyed by their color index."""
    if coloring is not None:
        for v in coloring.assignments:
            if not (0 <= v < g.n):
                raise ValueError(f"colored vertex {v} outside range(0, {g.n})")
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
