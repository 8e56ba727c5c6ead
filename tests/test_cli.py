import io
import json
import random
import sys
import time

import pytest

sys.path.insert(0, "tests")
from oracles import brute_sudoku_solutions

from sudokugraph import cli, extension
from sudokugraph.cli import main
from sudokugraph.coloring import ExtensionKind, PartialColoring
from sudokugraph.extension import count_extensions
from sudokugraph.generators import Family, FamilySpec, generate, sudoku_grid
from sudokugraph.io import serialize_graph

SOLUTION = "693784512487512936125963874932651487568247391741398625319475268856129743274836159"
EASY_PUZZLE = "093784512407512936125963874932651487568207391741398625319475268856129743274836150"
# the 17-clue puzzle from tests/data with one given changed (cell 9: 4 -> 5),
# still proper but no longer completable
UNSOLVABLE_PUZZLE = "000000010500000000020000000000050407008000300001090000300400200050100000000806000"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def feed_stdin(monkeypatch, data: bytes):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="ascii"))


def write_graph(capsys, tmp_path, name, argv):
    path = tmp_path / name
    code, out, err = run(capsys, ["gen", "--out", str(path)] + argv)
    assert code == 0, err
    return str(path)


def write_coloring(tmp_path, name, k, colors):
    path = tmp_path / name
    path.write_text(json.dumps({"k": k, "colors": {str(v): c for v, c in colors.items()}}))
    return str(path)


def test_gen_edgelist_to_stdout(capsys):
    code, out, err = run(capsys, ["gen", "--family", "path", "--n", "5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "5 4"
    assert lines[1:] == ["0 1", "1 2", "2 3", "3 4"]


def test_gen_json_format(capsys):
    obj = run_json(capsys, ["gen", "--family", "cycle", "--n", "4", "--format", "json"])
    assert obj["n"] == 4
    assert sorted(map(tuple, obj["edges"])) == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_gen_dot_output(capsys):
    code, out, err = run(capsys, ["gen", "--family", "complete", "--n", "3", "--dot"])
    assert code == 0
    assert out.startswith("graph")
    assert "0 -- 1" in out


def test_gen_parts_and_attachments(capsys):
    obj = run_json(
        capsys, ["gen", "--family", "complete-multipartite", "--parts", "2,2,2", "--format", "json"]
    )
    assert obj["n"] == 6
    assert len(obj["edges"]) == 12
    obj = run_json(
        capsys,
        [
            "gen", "--family", "stacked-triangulation",
            "--attach", "1,2", "--attach", "1,3", "--format", "json",
        ],
    )
    assert obj["n"] == 5


def test_gen_out_file_keeps_stdout_quiet(capsys, tmp_path):
    path = tmp_path / "g.txt"
    code, out, err = run(capsys, ["gen", "--family", "star", "--n", "3", "--out", str(path)])
    assert code == 0
    assert out == ""
    assert path.read_text().splitlines()[0] == "4 3"


def test_gen_rejects_bad_params(capsys):
    code, out, err = run(capsys, ["gen", "--family", "path", "--n", "1"])
    assert code == 2
    assert "error:" in err
    code, out, err = run(capsys, ["gen", "--family", "wheel"])
    assert code == 2
    code, out, err = run(capsys, ["gen", "--family", "stacked-triangulation", "--attach", "1;2"])
    assert code == 2


def test_unknown_family_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--family", "hypercube", "--n", "3"])
    assert exc.value.code == 2


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_chroma_from_file(capsys, tmp_path):
    gpath = write_graph(capsys, tmp_path, "c5.txt", ["--family", "cycle", "--n", "5"])
    obj = run_json(capsys, ["chroma", "--in", gpath])
    assert obj["chi"] == 3
    colors = {int(v): c for v, c in obj["coloring"].items()}
    assert len(colors) == 5
    assert set(colors.values()) == {1, 2, 3}


def test_chroma_from_stdin(capsys, monkeypatch):
    feed_stdin(monkeypatch, b"3 3\n0 1\n1 2\n0 2\n")
    obj = run_json(capsys, ["chroma"])
    assert obj["chi"] == 3


def test_chroma_budget_exhaustion_exits_1(capsys, tmp_path):
    gpath = write_graph(
        capsys, tmp_path, "cocm.txt",
        ["--family", "cycle-of-cliques-minus", "--n", "3", "--m", "5"],
    )
    # A budget of 0 is a budget, not a request for the default one.
    for budget in ("5", "0"):
        code, out, err = run(capsys, ["chroma", "--in", gpath, "--budget-nodes", budget])
        assert code == 1
        assert json.loads(out)["error"] == "budget-exceeded"


def test_negative_node_budgets_exit_2(capsys, tmp_path):
    k3 = write_graph(capsys, tmp_path, "k3.txt", ["--family", "complete", "--n", "3"])
    c5 = write_graph(capsys, tmp_path, "c5.txt", ["--family", "cycle", "--n", "5"])
    for argv in (
        ["chroma", "--in", k3, "--budget-nodes", "-5"],
        ["chroma", "--in", c5, "--budget-nodes", "-5"],
        ["sn", "--in", c5, "--budget-nodes", "-1"],
    ):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert "must be >= 0" in err


def test_chroma_on_long_odd_cycle(capsys, tmp_path):
    gpath = write_graph(capsys, tmp_path, "c1201.txt", ["--family", "cycle", "--n", "1201"])
    obj = run_json(capsys, ["chroma", "--in", gpath])
    assert obj["chi"] == 3
    colors = [obj["coloring"][str(v)] for v in range(1201)]
    assert all(colors[v] != colors[v - 1] for v in range(1201))


def test_chroma_missing_file_exits_2(capsys):
    code, out, err = run(capsys, ["chroma", "--in", "/nonexistent/graph.txt"])
    assert code == 2
    assert "error:" in err


def test_chroma_malformed_input_exits_2(capsys, monkeypatch):
    feed_stdin(monkeypatch, b"2 1\n0 5\n")
    code, out, err = run(capsys, ["chroma"])
    assert code == 2


def test_extend_count_multiple_and_exact_cap(capsys, tmp_path):
    gpath = write_graph(capsys, tmp_path, "c5.txt", ["--family", "cycle", "--n", "5"])
    cpath = write_coloring(tmp_path, "empty.json", 3, {})
    obj = run_json(capsys, ["extend-count", "--in", gpath, "--coloring", cpath])
    assert obj["kind"] == "multiple"
    assert obj["count"] == 2
    obj = run_json(capsys, ["extend-count", "--in", gpath, "--coloring", cpath, "--cap", "40"])
    assert obj["count"] == 30


def test_extend_count_on_long_path(capsys, tmp_path):
    # Three thousand branch levels: the completion search keeps its own stack.
    gpath = write_graph(capsys, tmp_path, "p3000.txt", ["--family", "path", "--n", "3000"])
    cpath = write_coloring(tmp_path, "one.json", 3, {0: 1})
    obj = run_json(capsys, ["extend-count", "--in", gpath, "--coloring", cpath])
    assert obj["kind"] == "multiple"
    assert obj["count"] == 2


def test_extend_count_unique_reports_witness(capsys, tmp_path):
    gpath = write_graph(capsys, tmp_path, "c5.txt", ["--family", "cycle", "--n", "5"])
    cpath = write_coloring(tmp_path, "support.json", 3, {0: 1, 2: 2, 3: 3})
    obj = run_json(capsys, ["extend-count", "--in", gpath, "--coloring", cpath])
    assert obj["kind"] == "unique"
    assert obj["count"] == 1
    assert obj["witness1"] == {"0": 1, "1": 3, "2": 2, "3": 3, "4": 2}
    assert obj["witness2"] is None


def test_sn_reports_certificate(capsys, tmp_path):
    gpath = write_graph(capsys, tmp_path, "c5.txt", ["--family", "cycle", "--n", "5"])
    obj = run_json(capsys, ["sn", "--in", gpath])
    assert obj["sn"] == 3
    cert = obj["certificate"]
    assert cert["k"] == 3
    assert cert["claimed_sn"] == 3
    assert len(cert["colors"]) == 3
    assert cert["graph"]["n"] == 5
    assert obj["pruned_by"]["uncolored-edge"] > 0
    assert "elapsed_seconds" not in obj


@pytest.mark.parametrize(
    "gen_argv, golden",
    [
        (["--family", "cycle", "--n", "13"], "tests/data/sn_cycle13.json"),
        (["--family", "tadpole", "--n", "9", "--m", "6"], "tests/data/sn_tadpole_9_6.json"),
    ],
)
def test_sn_output_matches_golden_file(capsys, tmp_path, gen_argv, golden):
    # subsets_examined and pruned_by are part of the pinned stdout, so this
    # also pins the counting of pruned supports.
    gpath = write_graph(capsys, tmp_path, "g.txt", gen_argv)
    with open(golden, encoding="ascii") as fh:
        want = fh.read()
    code, out, err = run(capsys, ["sn", "--in", gpath])
    assert code == 0, err
    assert out == want


def test_sn_no_prune_agrees(capsys, tmp_path):
    gpath = write_graph(capsys, tmp_path, "tp.txt", ["--family", "tadpole", "--n", "5", "--m", "2"])
    a = run_json(capsys, ["sn", "--in", gpath])
    b = run_json(capsys, ["sn", "--in", gpath, "--no-prune"])
    assert a["sn"] == b["sn"] == 3
    assert b["colorings_examined"] >= a["colorings_examined"]


def test_sn_budget_exhaustion_reports_lower_bound(capsys, tmp_path):
    gpath = write_graph(capsys, tmp_path, "lp.txt", ["--family", "lollipop", "--n", "5", "--m", "3"])
    code, out, err = run(capsys, ["sn", "--in", gpath, "--budget-nodes", "2"])
    assert code == 1
    obj = json.loads(out)
    assert obj["error"] == "budget-exceeded"
    assert obj["lower_bound"] == 4


@pytest.mark.slow
def test_sn_time_budget_holds_inside_one_support(capsys, tmp_path):
    # 6,000 vertices: one support's propagation and completion search run far
    # past the budget unless the engine itself watches the clock.
    gpath = write_graph(
        capsys, tmp_path, "coc.txt", ["--family", "cycle-of-cliques", "--n", "1500", "--m", "4"]
    )
    start = time.perf_counter()
    code, out, err = run(capsys, ["sn", "--in", gpath, "--budget-seconds", "5"])
    assert time.perf_counter() - start < 15
    assert code == 1
    obj = json.loads(out)
    assert obj["error"] == "budget-exceeded"
    assert obj["lower_bound"] >= 3


def test_sn_time_budget_covers_the_chromatic_number(capsys, tmp_path):
    # chi(C_9999) alone takes several seconds; the clock starts before it.
    gpath = write_graph(capsys, tmp_path, "c9999.txt", ["--family", "cycle", "--n", "9999"])
    start = time.perf_counter()
    code, out, err = run(capsys, ["sn", "--in", gpath, "--budget-seconds", "1"])
    assert time.perf_counter() - start < 4
    assert code == 1
    obj = json.loads(out)
    assert obj["error"] == "budget-exceeded"
    assert obj["lower_bound"] == 1


def test_sn_disconnected_graph_exits_2(capsys, monkeypatch):
    feed_stdin(monkeypatch, b"4 2\n0 1\n2 3\n")
    code, out, err = run(capsys, ["sn"])
    assert code == 2


def test_verify_family_case(capsys):
    obj = run_json(capsys, ["verify", "--family", "wheel", "--n", "5"])
    assert obj["ok"] is True
    assert obj["case"] == "wheel"
    assert obj["params"] == {"n": 5}
    assert obj["expected_sn"] == 3
    names = [c["name"] for c in obj["checks"]]
    assert "chromatic" in names and "formula" in names


def test_verify_family_grid(capsys):
    for argv, want in [
        (["verify", "--family", "odd-cycle", "--n", "9"], 5),
        (["verify", "--family", "bipartite", "--n", "6"], 1),
        (["verify", "--family", "bipartite", "--graph-family", "star", "--n", "4"], 1),
        (["verify", "--family", "complete-multipartite", "--n", "4"], 3),
        (["verify", "--family", "complete-multipartite", "--parts", "2,2,2"], 2),
        (["verify", "--family", "friendship", "--m", "3"], 3),
        (["verify", "--family", "tadpole", "--n", "6", "--m", "3"], 1),
        (["verify", "--family", "lollipop", "--n", "4", "--m", "2"], 3),
        (["verify", "--family", "cycle-of-cliques", "--n", "3", "--m", "4"], 6),
        (["verify", "--family", "cycle-of-cliques-minus", "--n", "2", "--m", "4"], 3),
        (["verify", "--family", "fan", "--n", "5"], 2),
        (["verify", "--family", "stacked-triangulation", "--attach", "1,2"], 2),
    ]:
        obj = run_json(capsys, argv)
        assert obj["ok"] is True, argv
        assert obj["expected_sn"] == want, argv


def test_verify_family_exact_covers_degenerate_amalgam(capsys):
    obj = run_json(
        capsys, ["verify", "--family", "amalgam", "--m", "2", "--n", "3", "--r", "2", "--exact"]
    )
    assert obj["ok"] is True
    assert obj["expected_sn"] == 2


def test_verify_unknown_case_exits_2(capsys):
    code, out, err = run(capsys, ["verify", "--family", "moebius", "--n", "5"])
    assert code == 2
    code, out, err = run(capsys, ["verify"])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--family", "wheel"],
        ["verify", "--family", "tadpole"],
        ["verify", "--family", "lollipop"],
        ["verify", "--family", "cycle-of-cliques", "--n", "3"],
        ["verify", "--family", "odd-cycle"],
    ],
    ids=lambda argv: " ".join(argv[2:]),
)
def test_verify_missing_parameters_exits_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_verify_certificate_file_roundtrip(capsys, tmp_path):
    gpath = write_graph(capsys, tmp_path, "c5.txt", ["--family", "cycle", "--n", "5"])
    report = run_json(capsys, ["sn", "--in", gpath])
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(report["certificate"]))
    obj = run_json(capsys, ["verify", "--cert", str(cert_path)])
    assert obj["ok"] is True
    code, out, err = run(capsys, ["verify", "--cert", str(cert_path), "--exact"])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_tampered_certificate_exits_3(capsys, tmp_path):
    gpath = write_graph(capsys, tmp_path, "c5.txt", ["--family", "cycle", "--n", "5"])
    report = run_json(capsys, ["sn", "--in", gpath])
    cert = report["certificate"]
    cert["claimed_sn"] = cert["claimed_sn"] + 1
    cert_path = tmp_path / "bad.json"
    cert_path.write_text(json.dumps(cert))
    code, out, err = run(capsys, ["verify", "--cert", str(cert_path)])
    assert code == 3
    obj = json.loads(out)
    assert obj["ok"] is False
    assert any(not c["ok"] for c in obj["checks"])


def test_verify_ambiguous_support_exits_3(capsys, tmp_path):
    cert = {
        "graph": {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]},
        "k": 3,
        "colors": {"0": 1, "1": 2},
        "claimed_sn": 2,
        "provenance": "handmade",
    }
    cert_path = tmp_path / "ambiguous.json"
    cert_path.write_text(json.dumps(cert))
    code, out, err = run(capsys, ["verify", "--cert", str(cert_path)])
    assert code == 3


def test_verify_malformed_certificate_exits_2(capsys, tmp_path):
    cert_path = tmp_path / "broken.json"
    cert_path.write_text('{"graph": {"n": 2, "edges": [[0, 1]]}, "k": 2}')
    code, out, err = run(capsys, ["verify", "--cert", str(cert_path)])
    assert code == 2
    cert_path.write_text("{not json")
    code, out, err = run(capsys, ["verify", "--cert", str(cert_path)])
    assert code == 2


def test_solve_json_trace(capsys, tmp_path):
    gpath = write_graph(capsys, tmp_path, "c13.txt", ["--family", "cycle", "--n", "13"])
    cpath = write_coloring(
        tmp_path, "sup.json", 3, {0: 1, 4: 1, 8: 1, 2: 2, 6: 2, 10: 2, 12: 3}
    )
    obj = run_json(capsys, ["solve", "--in", gpath, "--coloring", cpath])
    assert obj["kind"] == "unique"
    assert len(obj["trace"]) == 6
    assert all(t["rule"] == "near-color-dominating" for t in obj["trace"])
    assert obj["witness"]["11"] == 1


def test_solve_pretty_lists_rules(capsys, tmp_path):
    gpath = write_graph(capsys, tmp_path, "p3.txt", ["--family", "path", "--n", "3"])
    cpath = write_coloring(tmp_path, "ends.json", 2, {0: 1, 2: 1})
    code, out, err = run(capsys, ["solve", "--pretty", "--in", gpath, "--coloring", cpath])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1 2 color-dominating"
    assert lines[1] == "kind: unique"
    assert lines[2] == "colors: 1 2 1"


def test_sudoku_easy_puzzle_inline(capsys):
    obj = run_json(capsys, ["sudoku", "--puzzle", EASY_PUZZLE])
    assert obj["solutions"] == "1"
    assert obj["grid"] == SOLUTION


def test_sudoku_17_clue_file_matches_independent_solver(capsys):
    obj = run_json(capsys, ["sudoku", "--in", "tests/data/puzzle_17clue.txt"])
    assert obj["solutions"] == "1"
    with open("tests/data/puzzle_17clue.txt") as fh:
        puzzle = fh.read().strip()
    count, first = brute_sudoku_solutions(
        {i: int(ch) for i, ch in enumerate(puzzle) if ch != "0"}
    )
    assert count == 1
    assert obj["grid"] == first == SOLUTION


def test_sudoku_from_stdin(capsys, monkeypatch):
    feed_stdin(monkeypatch, (EASY_PUZZLE + "\n").encode("ascii"))
    obj = run_json(capsys, ["sudoku"])
    assert obj["solutions"] == "1"


def test_sudoku_empty_grid_has_many_solutions(capsys):
    obj = run_json(capsys, ["sudoku", "--puzzle", "0" * 81])
    assert obj["solutions"] == "2+"
    assert obj["grid"] is None


def test_sudoku_unsolvable_but_proper(capsys):
    obj = run_json(capsys, ["sudoku", "--puzzle", UNSOLVABLE_PUZZLE])
    assert obj["solutions"] == "0"
    assert obj["grid"] is None


def test_sudoku_pretty_grid(capsys):
    code, out, err = run(capsys, ["sudoku", "--pretty", "--puzzle", EASY_PUZZLE])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "solutions: 1"
    assert len(lines) == 10
    assert lines[1] == "6 9 3 7 8 4 5 1 2"


def test_sudoku_solved_grid_is_its_own_solution(capsys):
    obj = run_json(capsys, ["sudoku", "--puzzle", SOLUTION])
    assert obj["solutions"] == "1"
    assert obj["grid"] == SOLUTION


def test_sudoku_deleting_a_given_never_decreases_solutions(capsys):
    rank = {"0": 0, "1": 1, "2+": 2}
    for puzzle in (EASY_PUZZLE, UNSOLVABLE_PUZZLE):
        base = rank[run_json(capsys, ["sudoku", "--puzzle", puzzle])["solutions"]]
        givens = [i for i, ch in enumerate(puzzle) if ch != "0"]
        for i in givens[:8]:
            weaker = puzzle[:i] + "0" + puzzle[i + 1 :]
            got = rank[run_json(capsys, ["sudoku", "--puzzle", weaker])["solutions"]]
            assert got >= base


def test_sudoku_dot_blanks_accepted(capsys):
    dotted = EASY_PUZZLE.replace("0", ".")
    obj = run_json(capsys, ["sudoku", "--puzzle", dotted])
    assert obj["solutions"] == "1"


def test_sudoku_malformed_exits_2(capsys):
    code, out, err = run(capsys, ["sudoku", "--puzzle", "1" * 80])
    assert code == 2
    code, out, err = run(capsys, ["sudoku", "--puzzle", "x" + "0" * 80])
    assert code == 2


def test_sudoku_improper_givens_exit_2(capsys):
    clash = "66" + "0" * 79
    code, out, err = run(capsys, ["sudoku", "--puzzle", clash])
    assert code == 2
    assert out == ""
    assert err == "error: two equal givens share a row, column, or box\n"


def _seeded_boards(rng, count):
    """(kind, board) rows cycling through kinds "1", "2+" and "0".

    A "1" board is the 17-clue puzzle with its digits renamed, which keeps
    its unique solution; "2+" drops one of its givens (no 16-clue puzzle is
    unique); "0" adds a given that clashes with no given but differs from
    the solution, so no completion is left.
    """
    with open("tests/data/puzzle_17clue.txt", encoding="ascii") as fh:
        base = "".join(fh.read().split())
    adj = sudoku_grid(3).adj
    rows = []
    for i in range(count):
        kind = ("1", "2+", "0")[i % 3]
        digits = list("123456789")
        rng.shuffle(digits)
        name = dict(zip("123456789", digits), **{"0": "0"})
        board = [name[ch] for ch in base]
        solution = [name[ch] for ch in SOLUTION]
        if kind == "2+":
            board[rng.choice([j for j, ch in enumerate(board) if ch != "0"])] = "0"
        elif kind == "0":
            options = [
                (j, d)
                for j, ch in enumerate(board)
                if ch == "0"
                for d in "123456789"
                if d != solution[j] and all(board[u] != d for u in adj[j])
            ]
            j, d = rng.choice(options)
            board[j] = d
        rows.append((kind, "".join(board)))
    return rows


def _fresh_sudoku_stdout(board: str) -> str:
    """What sudoku prints for board, from count_extensions on fresh tables."""
    givens = {j: int(ch) for j, ch in enumerate(board) if ch != "0"}
    outcome = count_extensions(sudoku_grid(3), PartialColoring(9, givens), 2)
    solutions = {
        ExtensionKind.UNIQUE: "1",
        ExtensionKind.MULTIPLE: "2+",
        ExtensionKind.NOT_EXTENDABLE: "0",
    }[outcome.kind]
    grid = None
    if outcome.kind is ExtensionKind.UNIQUE:
        grid = "".join(str(outcome.witness1[v]) for v in range(81))
    return json.dumps({"solutions": solutions, "grid": grid}) + "\n"


def test_sudoku_on_shared_tables_matches_fresh_count_extensions(capsys):
    # Every board after the first searches on the tables the earlier ones
    # filled; each must print what a search on tables of its own finds.
    cli._sudoku_tables.cache_clear()
    boards = _seeded_boards(random.Random(7), 9)
    for kind, board in boards:
        code, out, err = run(capsys, ["sudoku", "--puzzle", board])
        assert code == 0, err
        assert out == _fresh_sudoku_stdout(board)
        assert json.loads(out)["solutions"] == kind


def test_sudoku_enumerates_the_grid_cliques_once_per_process(capsys, monkeypatch):
    calls = []
    real = extension._k_cliques

    def spy(g, k):
        calls.append((g.n, k))
        return real(g, k)

    monkeypatch.setattr(extension, "_k_cliques", spy)
    cli.build_parser.cache_clear()
    cli._sudoku_tables.cache_clear()
    # Each of these searches branches, so each needs the cliques.
    boards = [board for _, board in _seeded_boards(random.Random(11), 3)]
    boards += [UNSOLVABLE_PUZZLE, "0" * 81]
    for board in boards:
        code, out, err = run(capsys, ["sudoku", "--puzzle", board])
        assert code == 0, err
    assert calls == [(81, 9)]


def test_reused_parser_keeps_no_state_between_calls(capsys, tmp_path):
    c5 = write_graph(capsys, tmp_path, "c5.txt", ["--family", "cycle", "--n", "5"])
    cocm = write_graph(
        capsys, tmp_path, "cocm.txt",
        ["--family", "cycle-of-cliques-minus", "--n", "3", "--m", "5"],
    )
    pairs = [
        (["sn", "--no-prune", "--in", c5], ["sn", "--in", c5]),
        (["sudoku", "--pretty", "--puzzle", EASY_PUZZLE], ["sudoku", "--puzzle", EASY_PUZZLE]),
        (["chroma", "--budget-nodes", "0", "--in", cocm], ["chroma", "--in", cocm]),
        (["sn", "--budget-seconds", "nan", "--in", c5], ["sn", "--in", c5]),
        (
            ["verify", "--family", "bipartite", "--graph-family", "path", "--n", "6"],
            ["verify", "--family", "odd-cycle", "--n", "7"],
        ),
    ]

    def fresh(argv):
        cli.build_parser.cache_clear()
        return run(capsys, argv)[:2]

    want = {tuple(argv): fresh(argv) for pair in pairs for argv in pair}
    assert [want[tuple(argv)][0] for pair in pairs[2:4] for argv in pair] == [1, 0, 2, 0]
    for first, second in pairs:
        # The two runs of a pair differ, so a leaked option would show.
        assert want[tuple(first)] != want[tuple(second)]
        for a, b in ((first, second), (second, first)):
            cli.build_parser.cache_clear()
            got_a = run(capsys, a)[:2]
            parser = cli.build_parser()
            got_b = run(capsys, b)[:2]
            assert cli.build_parser() is parser
            assert (got_a, got_b) == (want[tuple(a)], want[tuple(b)]), (a, b)


def test_conjecture_scan_small(capsys):
    obj = run_json(capsys, ["conjecture-scan", "--max-n", "4"])
    assert obj["max_n"] == 4
    assert obj["classes_scanned"] == {"2": 1, "3": 2, "4": 6}
    assert obj["counterexamples"] == []
    nondegenerate = [row for row in obj["extremal"] if not row["degenerate"]]
    assert nondegenerate and all(row["complete"] for row in nondegenerate)


def test_conjecture_scan_budget_exits_1(capsys):
    code, out, err = run(capsys, ["conjecture-scan", "--max-n", "6", "--budget-seconds", "0.0"])
    assert code == 1
    assert json.loads(out)["error"] == "budget-exceeded"


def test_nan_time_budget_exits_2(capsys, tmp_path):
    gpath = write_graph(capsys, tmp_path, "c7.txt", ["--family", "cycle", "--n", "7"])
    for argv in (
        ["sn", "--in", gpath, "--budget-seconds", "nan"],
        ["conjecture-scan", "--max-n", "4", "--budget-seconds", "nan"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "nan" in err
    code, out, err = run(capsys, ["sn", "--in", gpath, "--budget-seconds", "-1"])
    assert code == 1
    assert json.loads(out)["error"] == "budget-exceeded"


def test_pretty_json_is_indented(capsys, tmp_path):
    gpath = write_graph(capsys, tmp_path, "k3.txt", ["--family", "complete", "--n", "3"])
    code, out, err = run(capsys, ["chroma", "--pretty", "--in", gpath])
    assert code == 0
    assert out.startswith("{\n  ")


def test_out_flag_writes_json_file(capsys, tmp_path):
    gpath = write_graph(capsys, tmp_path, "k3.txt", ["--family", "complete", "--n", "3"])
    opath = tmp_path / "chi.json"
    code, out, err = run(capsys, ["chroma", "--in", gpath, "--out", str(opath)])
    assert code == 0
    assert out == ""
    assert json.loads(opath.read_text())["chi"] == 3


def test_gen_tree_takes_its_seed(capsys):
    outs = [
        run(capsys, ["gen", "--family", "tree", "--n", "9", "--seed", seed])[1]
        for seed in ("5", "5", "6")
    ]
    assert outs[0] == outs[1] != outs[2]
    assert outs[0] == serialize_graph(generate(FamilySpec(Family.TREE, {"n": 9, "seed": 5}))).decode()


def test_gen_stacked_triangulation_without_attachments_is_the_triangle(capsys):
    code, out, err = run(capsys, ["gen", "--family", "stacked-triangulation"])
    assert code == 0, err
    assert out.splitlines() == ["3 3", "0 1", "0 2", "1 2"]


def test_verify_odd_cycle_three_exact(capsys):
    obj = run_json(capsys, ["verify", "--family", "odd-cycle", "--n", "3", "--exact"])
    assert obj["ok"] and obj["expected_sn"] == 2
    assert {c["name"] for c in obj["checks"]} >= {"minimal", "formula", "unique-extension"}


def test_oversized_inputs_exit_2_before_memory_runs_out(capsys, tmp_path):
    # K_10000 has 49,995,000 edges; generation stops past MAX_EDGES.
    code, out, err = run(capsys, ["gen", "--family", "complete", "--n", "10000"])
    assert (code, out) == (2, "")
    assert "edges" in err
    # A palette of a million colors on two vertices.
    gpath = write_graph(capsys, tmp_path, "p2.txt", ["--family", "path", "--n", "2"])
    cpath = write_coloring(tmp_path, "big.json", 10**6, {0: 1})
    code, out, err = run(capsys, ["extend-count", "--in", gpath, "--coloring", cpath])
    assert (code, out) == (2, "")
    assert "exceeds" in err
