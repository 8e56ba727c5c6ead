"""Sudoku colorings of graphs.

A Sudoku coloring is a proper partial coloring with exactly one completion
to a proper coloring using the full palette. This package computes exact
chromatic numbers, counts completions of partial colorings, finds minimum
Sudoku colorings by exhaustive search, and verifies closed-form results
for named graph families.
"""

from .chromatic import (
    chromatic_number,
    count_color_partitions,
    count_list_colorings,
    find_k_coloring,
    greedy_clique,
    greedy_coloring,
)
from .coloring import (
    ColorListState,
    ExtensionKind,
    ExtensionOutcome,
    PartialColoring,
    PropagationStatus,
    TraceStep,
    is_proper,
)
from .errors import (
    BudgetExceededError,
    DisconnectedGraphError,
    ImproperGivensError,
    InvalidFamilyParamsError,
    MalformedPuzzleError,
    ParseError,
    SelfLoopError,
    SudokugraphError,
    VertexOutOfRangeError,
)
from .extension import (
    count_extensions,
    propagate,
)
from .generators import Family, FamilySpec, generate
from .graph import Graph, build, induced_subgraph, is_connected, relabel
from .io import (
    GraphFormat,
    coloring_from_object,
    coloring_to_object,
    emit_dot,
    graph_from_object,
    graph_to_object,
    parse_coloring,
    parse_graph,
    serialize_graph,
)
from .sn import (
    Certificate,
    ScanReport,
    SearchReport,
    VerificationResult,
    conjecture_scan,
    sn_exact,
    verify_certificate,
)
from .theorems import (
    THEOREM_CASES,
    SuiteReport,
    SuiteScale,
    TheoremCase,
    construct,
    expected_sn,
    theorem_suite,
    verify_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "Certificate",
    "ColorListState",
    "DisconnectedGraphError",
    "ExtensionKind",
    "ExtensionOutcome",
    "Family",
    "FamilySpec",
    "Graph",
    "GraphFormat",
    "ImproperGivensError",
    "InvalidFamilyParamsError",
    "MalformedPuzzleError",
    "ParseError",
    "PartialColoring",
    "PropagationStatus",
    "ScanReport",
    "SearchReport",
    "SelfLoopError",
    "SudokugraphError",
    "SuiteReport",
    "SuiteScale",
    "THEOREM_CASES",
    "TheoremCase",
    "TraceStep",
    "VerificationResult",
    "VertexOutOfRangeError",
    "build",
    "chromatic_number",
    "coloring_from_object",
    "coloring_to_object",
    "conjecture_scan",
    "construct",
    "count_color_partitions",
    "count_extensions",
    "count_list_colorings",
    "emit_dot",
    "expected_sn",
    "find_k_coloring",
    "generate",
    "graph_from_object",
    "graph_to_object",
    "greedy_clique",
    "greedy_coloring",
    "induced_subgraph",
    "is_connected",
    "is_proper",
    "parse_coloring",
    "parse_graph",
    "relabel",
    "serialize_graph",
    "sn_exact",
    "theorem_suite",
    "verify_certificate",
    "verify_theorem",
]
