"""Pinned workload item sets, their independent reference answers, and the
seeded puzzle generator.

Every item is called through a module attribute looked up at call time
(``sn.sn_exact``, ``sn.conjecture_scan``, ``cli.main``), so the tracer in
``tracing.py`` sees the same calls a user makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

# Generous per-item limit: the largest item takes about 5 s, so a
# pathological regression shows up as a failed item, not a hung run.
ITEM_LIMIT_S = 30.0

PUZZLE_FILE = "tests/data/puzzle_17clue.txt"
# Solution of PUZZLE_FILE, checked at set-up against the Sudoku rules and the
# givens without calling the program.
PUZZLE_SOLUTION = (
    "693784512487512936125963874932651487568247391741398625"
    "319475268856129743274836159"
)
PUZZLES_PER_KIND = 30
# Seed of the pinned puzzle set. Every random choice of a puzzle changes
# the engine's work on it, so the set stays fixed across --seed values,
# which only reorder it (see make_puzzles).
PUZZLE_SET_SEED = 2206

# (theorem case for expected_sn, family, params); case None means the
# 4x4 Sudoku grid, whose Sudoku number 4 is taken from the literature.
SN_SPARSE = [
    ("odd-cycle", "cycle", {"n": 17}),
    ("odd-cycle", "cycle", {"n": 19}),
    ("wheel", "wheel", {"n": 11}),
    ("wheel", "wheel", {"n": 13}),
    ("tadpole", "tadpole", {"n": 9, "m": 6}),
    ("tadpole", "tadpole", {"n": 11, "m": 4}),
    ("friendship", "friendship", {"m": 6}),
    ("amalgam", "amalgam", {"m": 4, "n": 4, "r": 1}),
]
SN_DENSE = [
    ("cycle-of-cliques", "cycle-of-cliques", {"n": 3, "m": 4}),
    ("cycle-of-cliques-minus", "cycle-of-cliques-minus", {"n": 3, "m": 4}),
    ("cycle-of-cliques-minus", "cycle-of-cliques-minus", {"n": 2, "m": 5}),
    ("cycle-of-cliques-minus", "cycle-of-cliques-minus", {"n": 4, "m": 4}),
    (None, "sudoku-grid", {"b": 2}),
]
SUDOKU_GRID_4X4_SN = 4

# The scan at bounds 4, 5 and 6: the bound-6 scan is the workload's point,
# and the two smaller ones give its per-item metrics a distribution (a
# single item's 90th percentile would only describe timer noise).
SCAN_BOUNDS = (4, 5, 6)
# Connected graphs on n vertices up to isomorphism, OEIS A001349.
A001349 = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


@dataclass
class Item:
    """One timed call and the check of its output, which runs untimed.

    ``check`` returns None when the output is right, else a reason.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


def _certificate_bytes(sg, cert) -> bytes:
    obj = {
        "graph": sg.io.graph_to_object(cert.graph),
        "coloring": sg.io.coloring_to_object(cert.partial),
        "claimed_sn": cert.claimed_sn,
        "provenance": cert.provenance,
    }
    return json.dumps(obj, sort_keys=True).encode("ascii")


def _sn_item(sg, case, family, params) -> Item:
    spec = sg.generators.FamilySpec(sg.generators.Family(family), params)
    g = sg.generators.generate(spec)
    expected = SUDOKU_GRID_4X4_SN if case is None else sg.theorems.expected_sn(case, spec)
    first: list[bytes] = []

    def call():
        return sg.sn.sn_exact(g, max_seconds=ITEM_LIMIT_S)

    def check(report) -> str | None:
        if report.sn != expected:
            return f"sn={report.sn}, expected {expected}"
        blob = _certificate_bytes(sg, report.certificate)
        if not first:
            verdict = sg.sn.verify_certificate(report.certificate)
            if not verdict.ok:
                return f"certificate rejected: {verdict.checks}"
            first.append(blob)
        elif blob != first[0]:
            return "certificate differs from the first pass"
        return None

    label = ",".join(f"{k}={v}" for k, v in params.items())
    return Item(f"{family}({label})", call, check)


def _scan_item(sg, max_n: int) -> Item:
    expected_counts = {n: A001349[n] for n in range(2, max_n + 1)}
    expected_rows = []
    for n in range(2, max_n + 1):
        kn = sg.generators.generate(
            sg.generators.FamilySpec(sg.generators.Family.COMPLETE, {"n": n})
        )
        expected_rows.append(
            {
                "n": n,
                "edges": [list(e) for e in kn.edges],
                "sn": n - 1,
                "complete": True,
                "degenerate": n == 2,
            }
        )

    def call():
        return sg.sn.conjecture_scan(max_n, max_seconds=ITEM_LIMIT_S)

    def check(report) -> str | None:
        if report.classes_scanned != expected_counts:
            return f"class counts {report.classes_scanned}, OEIS A001349 gives {expected_counts}"
        if report.counterexamples:
            return f"counterexamples {report.counterexamples}"
        if report.extremal != expected_rows:
            return f"extremal rows {report.extremal} are not exactly K_2..K_{max_n}"
        return None

    return Item(f"conjecture_scan({max_n})", call, check)


# ---------------------------------------------------------------- puzzles


def _peers(cell: int) -> set[int]:
    r, c = divmod(cell, 9)
    br, bc = r - r % 3, c - c % 3
    out = {r * 9 + x for x in range(9)} | {x * 9 + c for x in range(9)}
    out |= {(br + a) * 9 + bc + b for a in range(3) for b in range(3)}
    out.discard(cell)
    return out


def check_solution(puzzle: str, solution: str) -> None:
    """Raise ValueError unless solution obeys the Sudoku rules and the givens."""
    if len(solution) != 81 or set(solution) != set("123456789"):
        raise ValueError("solution must be 81 digits 1-9")
    for cell in range(81):
        if any(solution[p] == solution[cell] for p in _peers(cell)):
            raise ValueError(f"solution repeats a digit among the peers of cell {cell}")
        if puzzle[cell] not in "0." and puzzle[cell] != solution[cell]:
            raise ValueError(f"solution disagrees with the given at cell {cell}")


def _geometry(rng: random.Random) -> Callable[[str], str]:
    """A random validity-preserving cell permutation of a 9x9 board.

    Rows within bands, columns within stacks, bands, stacks, and an optional
    transpose; these map Sudoku grids to Sudoku grids, so a puzzle with a
    unique solution keeps a unique solution.
    """
    rows = [3 * b + r for b in rng.sample(range(3), 3) for r in rng.sample(range(3), 3)]
    cols = [3 * s + c for s in rng.sample(range(3), 3) for c in rng.sample(range(3), 3)]
    transpose = rng.random() < 0.5

    def apply(board: str) -> str:
        out = []
        for r in range(9):
            for c in range(9):
                rr, cc = (c, r) if transpose else (r, c)
                out.append(board[rows[rr] * 9 + cols[cc]])
        return "".join(out)

    return apply


def _relabel(rng: random.Random) -> dict[str, str]:
    digits = list("123456789")
    rng.shuffle(digits)
    table = dict(zip("123456789", digits))
    table["0"] = "0"
    return table


def make_puzzles(seed: int, base: str, solution: str) -> list[tuple[str, str, str | None]]:
    """(kind, puzzle, expected grid or None) for 30 items of each kind.

    Kind "1" is a transformed copy of the 17-clue base puzzle, whose expected
    grid is the transformed solution. Kind "2+" drops one clue: by McGuire,
    Tugemann and Civario (arXiv:1201.0749) no 16-clue puzzle is unique.
    Kind "0" adds a given that clashes with no other given but differs from
    the unique solution, so no completion exists.

    The benchmark passes PUZZLE_SET_SEED. Even a digit relabeling changes
    the work: a "2+" search stops at the second solution, so its node count
    depends on the digit order, and in an exhaustive "1" or "0" search,
    where the node count stays the same, the propagation order and so the
    time per node still change (one item's time moved by a third).
    """
    rng = random.Random(seed)
    items = []
    for i in range(3 * PUZZLES_PER_KIND):
        kind = ("1", "2+", "0")[i % 3]
        move = _geometry(rng)
        board = list(move(base))
        grid = move(solution)
        if kind == "2+":
            givens = [j for j, ch in enumerate(board) if ch != "0"]
            board[rng.choice(givens)] = "0"
        elif kind == "0":
            options = []
            for j, ch in enumerate(board):
                if ch == "0":
                    taken = {board[p] for p in _peers(j)}
                    options += [(j, d) for d in "123456789" if d not in taken and d != grid[j]]
            j, d = rng.choice(options)
            board[j] = d
        digits = _relabel(rng)
        puzzle = "".join(digits[ch] for ch in board)
        items.append((kind, puzzle, "".join(digits[ch] for ch in grid) if kind == "1" else None))
    return items


def _puzzle_item(sg, index: int, kind: str, puzzle: str, grid: str | None) -> Item:
    expected = json.dumps({"solutions": kind, "grid": grid}) + "\n"

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = sg.cli.main(["sudoku", "--puzzle", puzzle])
        return code, out.getvalue()

    def check(result) -> str | None:
        code, text = result
        if code != 0 or text != expected:
            return f"exit {code}, output {text!r}, expected {expected!r}"
        return None

    return Item(f"puzzle{index}[{kind}]", call, check)


# ---------------------------------------------------------------- workloads


def _sn_items(table):
    return lambda sg: [_sn_item(sg, *row) for row in table]


def _puzzle_items(sg) -> list[Item]:
    with open(PUZZLE_FILE, encoding="ascii") as fh:
        base = "".join(fh.read().split())
    check_solution(base, PUZZLE_SOLUTION)
    return [
        _puzzle_item(sg, i, *row)
        for i, row in enumerate(make_puzzles(PUZZLE_SET_SEED, base, PUZZLE_SOLUTION))
    ]


# Each workload function takes the imported package namespace. The item
# sets are pinned, because the search work of every item depends on its
# exact input (even on vertex labels and digit names); --seed sets the
# order in which the items run (see run.py).
WORKLOADS = {
    "sn-sparse": _sn_items(SN_SPARSE),
    "sn-dense": _sn_items(SN_DENSE),
    "scan": lambda sg: [_scan_item(sg, n) for n in SCAN_BOUNDS],
    "puzzles": _puzzle_items,
}
