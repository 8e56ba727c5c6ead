"""Command-line interface. JSON on stdout by default; --pretty for humans.

Exit codes: 0 success, 1 computational failure or exhausted budget,
2 bad usage or malformed input, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .chromatic import DEFAULT_NODE_BUDGET, chromatic_number
from .coloring import ExtensionKind, PartialColoring
from .errors import (
    BudgetExceededError,
    DisconnectedGraphError,
    ImproperGivensError,
    InvalidFamilyParamsError,
    MalformedPuzzleError,
    ParseError,
    SudokugraphError,
)
from .extension import count_extensions
from .generators import Family, FamilySpec, generate, sudoku_grid
from .graph import Graph
from .io import (
    GraphFormat,
    certificate_from_object,
    coloring_to_object,
    emit_dot,
    graph_to_object,
    parse_coloring,
    parse_graph,
    serialize_graph,
)
from .sn import Certificate, conjecture_scan, sn_exact, verify_certificate
from .theorems import THEOREM_CASES, construct, expected_sn, verify_theorem
from .coloring import is_proper

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3


def _write(args, payload: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _emit_json(args, obj) -> None:
    _write(args, json.dumps(obj, indent=2 if args.pretty else None) + "\n")


def _read_graph(args) -> Graph:
    fmt = GraphFormat(args.format)
    if args.infile and args.infile != "-":
        with open(args.infile, "rb") as fh:
            data = fh.read()
    else:
        data = sys.stdin.buffer.read()
    return parse_graph(data, fmt)


def _read_coloring(args) -> PartialColoring:
    with open(args.coloring, "rb") as fh:
        return parse_coloring(fh.read())


def _family_spec_from_args(args) -> FamilySpec:
    family = Family(args.family)
    params: dict = {}
    if args.parts is not None:
        try:
            params["parts"] = [int(x) for x in args.parts.split(",")]
        except ValueError:
            raise InvalidFamilyParamsError(f"bad --parts value {args.parts!r}")
    if args.attach:
        attachments = []
        for item in args.attach:
            bits = item.split(",")
            if len(bits) != 2:
                raise InvalidFamilyParamsError(f"bad --attach value {item!r}, expected 'u,v'")
            try:
                attachments.append((int(bits[0]), int(bits[1])))
            except ValueError:
                raise InvalidFamilyParamsError(f"bad --attach value {item!r}")
        params["attachments"] = attachments
    for key in ("n", "m", "r", "b"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    if family is Family.TREE:
        params["seed"] = args.seed
    if family is Family.STACKED_TRIANGULATION and "attachments" not in params:
        params["attachments"] = []
    return FamilySpec(family, params)


def cmd_gen(args) -> int:
    spec = _family_spec_from_args(args)
    g = generate(spec)
    if args.dot:
        _write(args, emit_dot(g).decode("ascii"))
        return EXIT_OK
    _write(args, serialize_graph(g, GraphFormat(args.format)).decode("ascii"))
    return EXIT_OK


def cmd_chroma(args) -> int:
    g = _read_graph(args)
    budget = args.budget_nodes if args.budget_nodes else DEFAULT_NODE_BUDGET
    chi, witness = chromatic_number(g, budget=budget)
    _emit_json(args, {"chi": chi, "coloring": coloring_to_object(witness)["colors"]})
    return EXIT_OK


def cmd_extend_count(args) -> int:
    g = _read_graph(args)
    c = _read_coloring(args)
    outcome = count_extensions(g, c, args.cap)
    obj = {
        "kind": outcome.kind.value,
        "count": outcome.count,
        "witness1": _witness_obj(outcome.witness1),
        "witness2": _witness_obj(outcome.witness2),
    }
    _emit_json(args, obj)
    return EXIT_OK


def _witness_obj(witness: dict | None):
    if witness is None:
        return None
    return {str(v): c for v, c in sorted(witness.items())}


def _certificate_obj(cert: Certificate) -> dict:
    return {
        "graph": graph_to_object(cert.graph),
        "k": cert.partial.k,
        "colors": coloring_to_object(cert.partial)["colors"],
        "claimed_sn": cert.claimed_sn,
        "provenance": cert.provenance,
    }


def cmd_sn(args) -> int:
    g = _read_graph(args)
    report = sn_exact(
        g,
        prune=not args.no_prune,
        workers=args.workers,
        max_subsets=args.budget_nodes,
        max_seconds=args.budget_seconds,
    )
    # elapsed time is deliberately left out: output must not vary across runs
    # or worker counts.
    _emit_json(
        args,
        {
            "sn": report.sn,
            "certificate": _certificate_obj(report.certificate),
            "subsets_examined": report.subsets_examined,
            "colorings_examined": report.colorings_examined,
            "pruned_by": report.pruned_by,
        },
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.cert:
        with open(args.cert, "rb") as fh:
            try:
                obj = json.loads(fh.read().decode("ascii"))
            except json.JSONDecodeError as exc:
                raise ParseError(f"bad JSON: {exc.msg}", pos=exc.pos)
        cert = certificate_from_object(obj)
        result = verify_certificate(cert, exact=args.exact)
        _emit_json(args, {"ok": result.ok, "checks": result.checks})
        return EXIT_OK if result.ok else EXIT_VERIFY
    if not args.family:
        raise InvalidFamilyParamsError("verify needs --family CASE or --cert FILE")
    case = args.family
    if case not in THEOREM_CASES:
        raise InvalidFamilyParamsError(
            f"unknown case {case!r}; choose from {', '.join(THEOREM_CASES)}"
        )
    spec = _verify_spec(case, args)
    result = verify_theorem(case, spec, exact=args.exact)
    _emit_json(
        args,
        {
            "case": case,
            "params": dict(spec.params),
            "expected_sn": expected_sn(case, spec),
            "ok": result.ok,
            "checks": result.checks,
        },
    )
    return EXIT_OK if result.ok else EXIT_VERIFY


def _verify_spec(case: str, args) -> FamilySpec:
    if case == "bipartite":
        under = args.graph_family or "path"
        stash = args.family
        args.family = under
        try:
            return _family_spec_from_args(args)
        finally:
            args.family = stash
    mapping = {
        "odd-cycle": "cycle",
        "complete-multipartite": "complete-multipartite",
        "friendship": "friendship",
        "amalgam": "amalgam",
        "tadpole": "tadpole",
        "lollipop": "lollipop",
        "cycle-of-cliques": "cycle-of-cliques",
        "cycle-of-cliques-minus": "cycle-of-cliques-minus",
        "stacked-triangulation": "stacked-triangulation",
        "fan": "fan",
        "wheel": "wheel",
    }
    if case == "complete-multipartite" and args.parts is None and args.n is not None:
        return FamilySpec(Family.COMPLETE, {"n": args.n})
    stash = args.family
    args.family = mapping[case]
    try:
        return _family_spec_from_args(args)
    finally:
        args.family = stash


def cmd_solve(args) -> int:
    g = _read_graph(args)
    c = _read_coloring(args)
    outcome = count_extensions(g, c, 2)
    trace = [
        {"vertex": step.vertex, "color": step.color, "rule": step.rule}
        for step in outcome.trace
    ]
    if args.pretty:
        lines = [f"{t['vertex']} {t['color']} {t['rule']}" for t in trace]
        lines.append(f"kind: {outcome.kind.value}")
        if outcome.witness1 and outcome.kind is ExtensionKind.UNIQUE:
            ordered = " ".join(str(outcome.witness1[v]) for v in sorted(outcome.witness1))
            lines.append(f"colors: {ordered}")
        _write(args, "\n".join(lines) + "\n")
    else:
        _emit_json(
            args,
            {
                "kind": outcome.kind.value,
                "witness": _witness_obj(
                    outcome.witness1 if outcome.kind is ExtensionKind.UNIQUE else None
                ),
                "trace": trace,
            },
        )
    return EXIT_OK


PUZZLE_CELLS = 81
PUZZLE_EMPTY = {"0", "."}


def parse_puzzle(text: str) -> dict[int, int]:
    """81 row-major cells over 1-9 with 0 or . for blanks."""
    cells = [ch for ch in text if not ch.isspace()]
    if len(cells) != PUZZLE_CELLS:
        raise MalformedPuzzleError(
            f"puzzle needs exactly {PUZZLE_CELLS} cells, got {len(cells)}"
        )
    givens = {}
    for i, ch in enumerate(cells):
        if ch in PUZZLE_EMPTY:
            continue
        if ch < "1" or ch > "9":
            raise MalformedPuzzleError(f"bad cell {ch!r} at position {i}")
        givens[i] = int(ch)
    return givens


def cmd_sudoku(args) -> int:
    if args.puzzle:
        text = args.puzzle
    elif args.infile:
        with open(args.infile, "r", encoding="ascii") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    givens = parse_puzzle(text)
    g = sudoku_grid(3)
    c = PartialColoring(9, givens)
    if not is_proper(g, c):
        raise ImproperGivensError("two equal givens share a row, column, or box")
    outcome = count_extensions(g, c, 2)
    if outcome.kind is ExtensionKind.UNIQUE:
        solutions = "1"
        grid = "".join(str(outcome.witness1[v]) for v in range(g.n))
    elif outcome.kind is ExtensionKind.MULTIPLE:
        solutions = "2+"
        grid = None
    else:
        solutions = "0"
        grid = None
    if args.pretty:
        lines = [f"solutions: {solutions}"]
        if grid:
            for r in range(9):
                lines.append(" ".join(grid[9 * r : 9 * r + 9]))
        _write(args, "\n".join(lines) + "\n")
    else:
        _emit_json(args, {"solutions": solutions, "grid": grid})
    return EXIT_OK


def cmd_conjecture_scan(args) -> int:
    report = conjecture_scan(args.max_n, max_seconds=args.budget_seconds)
    _emit_json(
        args,
        {
            "max_n": report.max_n,
            "classes_scanned": {str(n): c for n, c in report.classes_scanned.items()},
            "extremal": report.extremal,
            "counterexamples": report.counterexamples,
        },
    )
    return EXIT_OK


def _add_io_flags(sub, coloring: bool = False) -> None:
    sub.add_argument("--in", dest="infile", default=None, help="input graph file (default stdin)")
    sub.add_argument(
        "--format", choices=["edgelist", "json"], default="edgelist", help="graph format"
    )
    if coloring:
        sub.add_argument("--coloring", required=True, help="coloring JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sudokugraph",
        description="Sudoku colorings of graphs: chromatic numbers, extension counts, "
        "Sudoku numbers, and certificate verification.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="human-readable output")
    common.add_argument("--out", default=None, help="write output to a file instead of stdout")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    def add_parser(name, **kw):
        return subs.add_parser(name, parents=[common], **kw)

    p = add_parser("gen", help="generate a named family instance")
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--parts", help="comma-separated part sizes")
    p.add_argument("--attach", action="append", help="attachment edge 'u,v' (repeatable)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["edgelist", "json"], default="edgelist")
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT instead")
    p.set_defaults(func=cmd_gen)

    p = add_parser("chroma", help="exact chromatic number with witness")
    _add_io_flags(p)
    p.add_argument("--budget-nodes", type=int, default=None)
    p.set_defaults(func=cmd_chroma)

    p = add_parser("extend-count", help="count completions of a partial coloring")
    _add_io_flags(p, coloring=True)
    p.add_argument("--cap", type=int, default=2, help="saturating count cap (>= 2)")
    p.set_defaults(func=cmd_extend_count)

    p = add_parser("sn", help="exact Sudoku number with certificate")
    _add_io_flags(p)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--no-prune", action="store_true", help="disable subset pruning")
    p.add_argument("--budget-nodes", type=int, default=None, help="max subsets examined")
    p.add_argument("--budget-seconds", type=float, default=None)
    p.set_defaults(func=cmd_sn)

    p = add_parser("verify", help="verify a theorem case or a certificate file")
    p.add_argument("--family", default=None, help="theorem case name")
    p.add_argument("--graph-family", default=None, help="underlying family for the bipartite case")
    p.add_argument("--cert", default=None, help="certificate JSON file to verify")
    p.add_argument("--exact", action="store_true", help="re-prove minimality by full search")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--parts")
    p.add_argument("--attach", action="append")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = add_parser("solve", help="propagation trace plus unique extension")
    _add_io_flags(p, coloring=True)
    p.set_defaults(func=cmd_solve)

    p = add_parser("sudoku", help="classify a 9x9 puzzle: 0, 1, or 2+ solutions")
    p.add_argument("--puzzle", default=None, help="81-character puzzle string")
    p.add_argument("--in", dest="infile", default=None, help="puzzle file")
    p.set_defaults(func=cmd_sudoku)

    p = add_parser("conjecture-scan", help="scan all small connected graphs for sn = n-1")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--budget-seconds", type=float, default=None)
    p.set_defaults(func=cmd_conjecture_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        payload = {"error": "budget-exceeded", "detail": str(exc)}
        if exc.lower_bound is not None:
            payload["lower_bound"] = exc.lower_bound
        sys.stdout.write(json.dumps(payload) + "\n")
        return EXIT_COMPUTE
    except (
        ParseError,
        InvalidFamilyParamsError,
        MalformedPuzzleError,
        ImproperGivensError,
        DisconnectedGraphError,
        ValueError,
        OSError,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except SudokugraphError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
