"""Closed-form Sudoku colorings for named graph families, with verification.

CASES describes each theorem case once: the families it applies to, the
published support coloring in our 0-based labeling, and the claimed Sudoku
number as a function of the family parameters. construct builds the graph
and wraps the coloring in a Certificate whose uniqueness the engine
re-proves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .chromatic import chromatic_number
from .coloring import PartialColoring
from .errors import InvalidFamilyParamsError
from .generators import Family, FamilySpec, family_args, generate
from .graph import Graph, is_connected, bipartition
from .sn import Certificate, VerificationResult, verify_certificate


@dataclass(frozen=True)
class TheoremCase:
    """One verifiable instance: a case name plus concrete family parameters."""

    name: str
    spec: FamilySpec


class SuiteScale(Enum):
    FAST = "fast"
    EXACT = "exact"


@dataclass(frozen=True)
class Case:
    """One family result of the paper.

    families: the families the case applies to (None: any), the first being
    the one `sudokugraph verify` builds. build(g, spec) gives (k, support
    colors) on the graph generate(spec) built. sn(spec) is the closed-form
    Sudoku number; it reads only the parameters and never builds the graph.
    """

    families: tuple[Family, ...] | None
    build: Callable[[Graph, FamilySpec], tuple[int, dict[int, int]]]
    sn: Callable[[FamilySpec], int]


def _bipartite(g: Graph, spec: FamilySpec):
    if g.n < 2 or not is_connected(g):
        raise InvalidFamilyParamsError("bipartite case needs a connected graph on >= 2 vertices")
    if bipartition(g) is None or g.m == 0:
        raise InvalidFamilyParamsError("bipartite case needs a bipartite graph with an edge")
    return 2, {0: 1}


def _parts_of(spec: FamilySpec) -> list[int]:
    if spec.family is Family.COMPLETE:
        return [1] * spec.params["n"]
    parts = spec.params.get("parts")
    if not isinstance(parts, (list, tuple)) or len(parts) < 2:
        raise InvalidFamilyParamsError("complete-multipartite case needs >= 2 parts")
    return list(parts)


def _complete_multipartite(g: Graph, spec: FamilySpec):
    parts = _parts_of(spec)
    colors = {}
    offset = 0
    for i, size in enumerate(parts[:-1]):
        colors[offset] = i + 1
        offset += size
    return len(parts), colors


def _odd_cycle(g: Graph, spec: FamilySpec):
    n = spec.params["n"]
    if n % 2 == 0:
        raise InvalidFamilyParamsError(f"odd-cycle case needs odd n, got {n}")
    if n == 3:
        return 3, {0: 1, 1: 2}
    colors = {}
    for j in range(1, n - 1, 2):
        colors[j - 1] = 1 if j % 4 == 1 else 2
    colors[n - 2] = 3
    return 3, colors


def _amalgam(m: int, n: int, r: int) -> tuple[int, dict[int, int]]:
    colors = {}
    if r == n - 1:
        # Each copy contributes a single vertex adjacent to the whole core,
        # so the graph is complete n-partite with one part of size m and the
        # copy vertices are all forced to the same color. Coloring all but
        # one core vertex leaves a two-way swap, so the whole core goes in.
        for v in range(r):
            colors[v] = v + 1
        return n, colors
    for v in range(1, r):
        colors[v] = v
    first_interior = list(range(r + 1, r + (n - r)))
    for offset, v in enumerate(first_interior):
        colors[v] = r + 1 + offset
    for i in range(2, m + 1):
        x_i = r + (i - 1) * (n - r)
        for offset, v in enumerate(range(x_i + 1, x_i + (n - r))):
            colors[v] = r + 2 + offset
    return n, colors


def _amalgam_sn(spec: FamilySpec) -> int:
    m, n, r = spec.params["m"], spec.params["n"], spec.params["r"]
    if r == n - 1:
        # Degenerate shape: complete n-partite with one part of size m,
        # so the uniquely-colorable value n-1 applies, not the general
        # amalgam formula (which undercounts by one here).
        return n - 1
    return m * (n - r - 1) + r - 1


def _tadpole(g: Graph, spec: FamilySpec):
    n, m = spec.params["n"], spec.params["m"]
    if n % 2 == 0:
        if bipartition(g) is None:
            raise AssertionError("even tadpole must be bipartite")
        return 2, {0: 1}
    colors = {}
    for i in range(2, n, 2):
        colors[i - 1] = 3 if i % 4 == 2 else 2
    if m % 2 == 0:
        for j in range(2, m + 1, 2):
            colors[n + j - 2] = 2 if j % 4 == 2 else 3
    else:
        for j in range(1, m + 1, 2):
            vertex = 0 if j == 1 else n + j - 2
            colors[vertex] = 1 if j % 4 == 1 else 3
    return 3, colors


def _lollipop(g: Graph, spec: FamilySpec):
    n, m = spec.params["n"], spec.params["m"]
    if n < 4:
        raise InvalidFamilyParamsError(
            f"lollipop case needs clique order n >= 4 (n = 3 is the tadpole), got {n}"
        )
    colors = {}
    for i in range(3, n + 1):
        colors[i - 1] = i
    for j in range(2, m + 1):
        colors[n + j - 2] = 2 if j % 2 == 0 else 1
    return n, colors


def _cycle_of_cliques(g: Graph, spec: FamilySpec):
    n, m = spec.params["n"], spec.params["m"]
    colors = {}
    rim = 2 * n
    for i in range(1, n + 1):
        base = rim + (i - 1) * (m - 2)
        for j in range(1, m - 2):
            colors[base + j - 1] = j + 3
    half = (n - 2) // 2 if n % 2 == 0 else (n - 3) // 2
    for j in range(half + 1):
        colors[4 * j] = 1
        colors[4 * j + 2] = 2
    if n % 2 == 1:
        colors[2 * n - 2] = 3
    return m, colors


def _cycle_of_cliques_minus(g: Graph, spec: FamilySpec):
    n, m = spec.params["n"], spec.params["m"]
    rim = 2 * n

    def y(i: int, j: int) -> int:
        return rim + (i - 1) * (m - 2) + (j - 1)

    colors = {}
    last = n if n % 2 == 0 else n - 1
    for i in range(1, last + 1):
        for j in range(2, m - 1):
            colors[y(i, j)] = j + 1
    colors[y(1, 1)] = 2
    if n % 2 == 1:
        for j in range(3, m - 1):
            colors[y(n, j)] = j + 1
        colors[y(n, 2)] = 1
    return m - 1, colors


def _wheel(g: Graph, spec: FamilySpec):
    n = spec.params["n"]
    if n == 3:
        return 4, {0: 1, 1: 2, 2: 3}
    if n % 2 == 0:
        return 3, {n: 1, 0: 2}
    colors = {n - 1: 4}
    for i in range(1, n, 2):
        colors[i - 1] = 2 if i % 4 == 1 else 3
    return 4, colors


def _wheel_sn(spec: FamilySpec) -> int:
    n = spec.params["n"]
    if n == 3:
        return 3
    return 2 if n % 2 == 0 else (n + 1) // 2


CASES: dict[str, Case] = {
    "bipartite": Case(None, _bipartite, lambda s: 1),
    "odd-cycle": Case((Family.CYCLE,), _odd_cycle, lambda s: (s.params["n"] + 1) // 2),
    "complete-multipartite": Case(
        (Family.COMPLETE_MULTIPARTITE, Family.COMPLETE),
        _complete_multipartite,
        lambda s: len(_parts_of(s)) - 1,
    ),
    "friendship": Case(
        (Family.FRIENDSHIP,),
        lambda g, s: _amalgam(s.params["m"], 3, 1),
        lambda s: s.params["m"],
    ),
    "amalgam": Case(
        (Family.AMALGAM,),
        lambda g, s: _amalgam(s.params["m"], s.params["n"], s.params["r"]),
        _amalgam_sn,
    ),
    "tadpole": Case(
        (Family.TADPOLE,),
        _tadpole,
        lambda s: 1 if s.params["n"] % 2 == 0 else (s.params["n"] + s.params["m"]) // 2,
    ),
    "lollipop": Case((Family.LOLLIPOP,), _lollipop, lambda s: s.params["n"] + s.params["m"] - 3),
    "cycle-of-cliques": Case(
        (Family.CYCLE_OF_CLIQUES,),
        _cycle_of_cliques,
        lambda s: s.params["n"] * (s.params["m"] - 2),
    ),
    "cycle-of-cliques-minus": Case(
        (Family.CYCLE_OF_CLIQUES_MINUS,),
        _cycle_of_cliques_minus,
        lambda s: (s.params["m"] - 3) * s.params["n"] + 1,
    ),
    "stacked-triangulation": Case(
        (Family.STACKED_TRIANGULATION,), lambda g, s: (3, {0: 1, 1: 2}), lambda s: 2
    ),
    # Hub and first path vertex span an edge of the initial triangle.
    "fan": Case((Family.FAN,), lambda g, s: (3, {s.params["n"]: 1, 0: 2}), lambda s: 2),
    "wheel": Case((Family.WHEEL,), _wheel, _wheel_sn),
}

THEOREM_CASES = tuple(CASES)


def _case(name: str, spec: FamilySpec) -> Case:
    case = CASES.get(name)
    if case is None:
        raise InvalidFamilyParamsError(f"unknown theorem case {name!r}")
    if case.families is not None and spec.family not in case.families:
        raise InvalidFamilyParamsError(
            f"case {name!r} does not apply to family {spec.family.value!r}"
        )
    return case


def expected_sn(name: str, spec: FamilySpec) -> int:
    """The closed-form Sudoku number each case claims, from parameters checked as generate does."""
    case = _case(name, spec)
    family_args(spec)
    return case.sn(spec)


def construct(name: str, spec: FamilySpec) -> Certificate:
    """Build the published support coloring for one family instance.

    generate(spec) checks the family parameters before the case reads them.
    """
    case = _case(name, spec)
    g = generate(spec)
    k, colors = case.build(g, spec)
    return Certificate(g, PartialColoring(k, colors), len(colors), f"family:{name}")


def verify_theorem(name: str, spec: FamilySpec, *, exact: bool = False) -> VerificationResult:
    """Construct a case and re-prove it: chromatic number, formula, uniqueness.

    With exact=True the full search additionally confirms minimality.
    """
    cert = construct(name, spec)
    result = verify_certificate(cert, exact=exact)
    chi, _ = chromatic_number(cert.graph)
    result.add(
        "chromatic",
        chi == cert.partial.k,
        f"chi={chi}, certificate k={cert.partial.k}",
    )
    claimed = expected_sn(name, spec)
    result.add(
        "formula",
        cert.claimed_sn == claimed,
        f"|S|={cert.claimed_sn}, formula gives {claimed}",
    )
    return result


def _fast_cases() -> list[TheoremCase]:
    cases: list[TheoremCase] = []

    def add(name: str, family: Family, **params):
        cases.append(TheoremCase(name, FamilySpec(family, params)))

    for n in range(2, 9):
        add("bipartite", Family.PATH, n=n)
    for n in (4, 6, 8):
        add("bipartite", Family.CYCLE, n=n)
    for n in range(2, 6):
        add("bipartite", Family.STAR, n=n)
    for seed in range(3):
        add("bipartite", Family.TREE, n=7, seed=seed)
    for parts in ([1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1, 1], [2, 2, 2], [1, 2, 3], [2, 3, 4], [3, 3]):
        add("complete-multipartite", Family.COMPLETE_MULTIPARTITE, parts=parts)
    for n in range(5, 102, 2):
        add("odd-cycle", Family.CYCLE, n=n)
    for m in range(2, 5):
        for n in range(3, 6):
            for r in range(1, n):
                add("amalgam", Family.AMALGAM, m=m, n=n, r=r)
    for m in range(2, 7):
        add("friendship", Family.FRIENDSHIP, m=m)
    for n in (3, 5, 7, 9):
        for m in range(2, 7):
            add("tadpole", Family.TADPOLE, n=n, m=m)
    for n in (4, 6):
        for m in (2, 3):
            add("tadpole", Family.TADPOLE, n=n, m=m)
    for n in range(4, 8):
        for m in range(2, 6):
            add("lollipop", Family.LOLLIPOP, n=n, m=m)
    for n in range(2, 7):
        for m in range(3, 7):
            add("cycle-of-cliques", Family.CYCLE_OF_CLIQUES, n=n, m=m)
    for n in range(2, 7):
        for m in range(4, 7):
            add("cycle-of-cliques-minus", Family.CYCLE_OF_CLIQUES_MINUS, n=n, m=m)
    for att in ([], [(1, 2)], [(1, 2), (1, 3)], [(1, 2), (2, 3), (3, 4)], [(0, 1), (1, 3), (3, 4), (4, 5)]):
        add("stacked-triangulation", Family.STACKED_TRIANGULATION, attachments=att)
    for n in range(2, 9):
        add("fan", Family.FAN, n=n)
    for n in range(3, 13):
        add("wheel", Family.WHEEL, n=n)
    return cases


def _exact_cases() -> list[TheoremCase]:
    cases: list[TheoremCase] = []

    def add(name: str, family: Family, **params):
        cases.append(TheoremCase(name, FamilySpec(family, params)))

    add("bipartite", Family.PATH, n=4)
    add("bipartite", Family.CYCLE, n=6)
    add("complete-multipartite", Family.COMPLETE_MULTIPARTITE, parts=[1, 1, 1])
    add("complete-multipartite", Family.COMPLETE_MULTIPARTITE, parts=[2, 2, 2])
    add("odd-cycle", Family.CYCLE, n=5)
    add("odd-cycle", Family.CYCLE, n=7)
    add("amalgam", Family.AMALGAM, m=2, n=3, r=1)
    add("amalgam", Family.AMALGAM, m=2, n=3, r=2)
    add("amalgam", Family.AMALGAM, m=2, n=4, r=2)
    add("friendship", Family.FRIENDSHIP, m=2)
    add("tadpole", Family.TADPOLE, n=3, m=2)
    add("tadpole", Family.TADPOLE, n=5, m=2)
    add("tadpole", Family.TADPOLE, n=5, m=3)
    add("lollipop", Family.LOLLIPOP, n=4, m=2)
    add("lollipop", Family.LOLLIPOP, n=4, m=3)
    add("cycle-of-cliques", Family.CYCLE_OF_CLIQUES, n=2, m=3)
    add("cycle-of-cliques", Family.CYCLE_OF_CLIQUES, n=2, m=4)
    add("cycle-of-cliques-minus", Family.CYCLE_OF_CLIQUES_MINUS, n=2, m=4)
    add("stacked-triangulation", Family.STACKED_TRIANGULATION, attachments=[])
    add("stacked-triangulation", Family.STACKED_TRIANGULATION, attachments=[(1, 2), (2, 3), (3, 4)])
    add("fan", Family.FAN, n=2)
    add("fan", Family.FAN, n=4)
    add("wheel", Family.WHEEL, n=3)
    add("wheel", Family.WHEEL, n=4)
    add("wheel", Family.WHEEL, n=5)
    add("wheel", Family.WHEEL, n=6)
    return cases


@dataclass
class SuiteReport:
    scale: SuiteScale
    rows: list[dict]

    @property
    def ok(self) -> bool:
        return all(row["ok"] for row in self.rows)


def theorem_suite(scale: SuiteScale = SuiteScale.FAST) -> SuiteReport:
    """Verify a grid of instances for every theorem case.

    FAST re-proves uniqueness and formulas across wide parameter ranges;
    EXACT runs the full search on minimum legal parameters as well.
    """
    cases = _fast_cases() if scale is SuiteScale.FAST else _exact_cases()
    rows = []
    for case in cases:
        started = time.perf_counter()
        result = verify_theorem(case.name, case.spec, exact=scale is SuiteScale.EXACT)
        rows.append(
            {
                "case": case.name,
                "params": dict(case.spec.params),
                "ok": result.ok,
                "claimed_sn": expected_sn(case.name, case.spec),
                "elapsed_seconds": time.perf_counter() - started,
                "failed_checks": [c["name"] for c in result.checks if not c["ok"]],
            }
        )
    return SuiteReport(scale=scale, rows=rows)
