import sys

import pytest

sys.path.insert(0, "tests")

import sudokugraph.theorems as theorems
from sudokugraph import (
    BudgetExceededError,
    Clock,
    ExtensionKind,
    Family,
    FamilySpec,
    InvalidFamilyParamsError,
    SuiteScale,
    THEOREM_CASES,
    build,
    chromatic_number,
    construct,
    count_extensions,
    expected_sn,
    generate,
    is_proper,
    sn_exact,
    theorem_suite,
    verify_theorem,
)


def spec(family, **params):
    return FamilySpec(family, params)


def test_case_registry_names_every_family_result():
    assert THEOREM_CASES == (
        "bipartite",
        "odd-cycle",
        "complete-multipartite",
        "friendship",
        "amalgam",
        "tadpole",
        "lollipop",
        "cycle-of-cliques",
        "cycle-of-cliques-minus",
        "stacked-triangulation",
        "fan",
        "wheel",
    )


SPOT_SPECS = [
    ("bipartite", spec(Family.PATH, n=6)),
    ("bipartite", spec(Family.CYCLE, n=8)),
    ("bipartite", spec(Family.STAR, n=4)),
    ("complete-multipartite", spec(Family.COMPLETE_MULTIPARTITE, parts=[2, 2, 2])),
    ("complete-multipartite", spec(Family.COMPLETE_MULTIPARTITE, parts=[1, 2, 3])),
    ("odd-cycle", spec(Family.CYCLE, n=9)),
    ("friendship", spec(Family.FRIENDSHIP, m=3)),
    ("amalgam", spec(Family.AMALGAM, m=3, n=4, r=1)),
    ("amalgam", spec(Family.AMALGAM, m=2, n=4, r=3)),
    ("tadpole", spec(Family.TADPOLE, n=5, m=4)),
    ("tadpole", spec(Family.TADPOLE, n=6, m=3)),
    ("lollipop", spec(Family.LOLLIPOP, n=5, m=3)),
    ("cycle-of-cliques", spec(Family.CYCLE_OF_CLIQUES, n=3, m=4)),
    ("cycle-of-cliques-minus", spec(Family.CYCLE_OF_CLIQUES_MINUS, n=3, m=5)),
    ("stacked-triangulation", spec(Family.STACKED_TRIANGULATION, attachments=[(1, 2)])),
    ("fan", spec(Family.FAN, n=5)),
    ("wheel", spec(Family.WHEEL, n=6)),
    ("wheel", spec(Family.WHEEL, n=7)),
]


@pytest.mark.parametrize("name,case_spec", SPOT_SPECS, ids=lambda v: str(v))
def test_construct_builds_a_unique_support(name, case_spec):
    cert = construct(name, case_spec)
    g = cert.graph
    assert is_proper(g, cert.partial)
    assert cert.claimed_sn == len(cert.partial.assignments) == expected_sn(name, case_spec)
    chi, _ = chromatic_number(g)
    assert cert.partial.k == chi
    outcome = count_extensions(g, cert.partial, cap=2)
    assert outcome.kind is ExtensionKind.UNIQUE
    assert cert.provenance == f"family:{name}"


EXACT_SPECS = [
    ("bipartite", spec(Family.PATH, n=5), 1),
    ("bipartite", spec(Family.TREE, n=7, seed=1), 1),
    ("complete-multipartite", spec(Family.COMPLETE_MULTIPARTITE, parts=[1, 1, 1, 1]), 3),
    ("complete-multipartite", spec(Family.COMPLETE_MULTIPARTITE, parts=[2, 2, 2]), 2),
    ("odd-cycle", spec(Family.CYCLE, n=7), 4),
    ("friendship", spec(Family.FRIENDSHIP, m=2), 2),
    ("amalgam", spec(Family.AMALGAM, m=2, n=4, r=1), 4),
    ("amalgam", spec(Family.AMALGAM, m=3, n=3, r=1), 3),
    ("tadpole", spec(Family.TADPOLE, n=3, m=3), 3),
    ("tadpole", spec(Family.TADPOLE, n=4, m=2), 1),
    ("tadpole", spec(Family.TADPOLE, n=5, m=2), 3),
    ("lollipop", spec(Family.LOLLIPOP, n=4, m=3), 4),
    ("cycle-of-cliques", spec(Family.CYCLE_OF_CLIQUES, n=2, m=3), 2),
    ("cycle-of-cliques-minus", spec(Family.CYCLE_OF_CLIQUES_MINUS, n=2, m=4), 3),
    ("stacked-triangulation", spec(Family.STACKED_TRIANGULATION, attachments=[(1, 2)]), 2),
    ("fan", spec(Family.FAN, n=4), 2),
    ("wheel", spec(Family.WHEEL, n=3), 3),
    ("wheel", spec(Family.WHEEL, n=6), 2),
    ("wheel", spec(Family.WHEEL, n=7), 4),
]


@pytest.mark.parametrize("name,case_spec,value", EXACT_SPECS, ids=lambda v: str(v))
def test_formula_matches_full_search(name, case_spec, value):
    assert expected_sn(name, case_spec) == value
    g = generate(case_spec)
    assert sn_exact(g).sn == value


def test_amalgam_single_shared_vertex_needs_one_more_given():
    # with r = n-1 every copy collapses to one vertex joined to the whole
    # core, so the general formula m*(n-r-1)+r-1 = r-1 falls short by one
    for m, n in ((2, 3), (3, 3), (2, 4)):
        case_spec = spec(Family.AMALGAM, m=m, n=n, r=n - 1)
        general = m * (n - (n - 1) - 1) + (n - 1) - 1
        assert expected_sn("amalgam", case_spec) == n - 1 == general + 1
        g = generate(case_spec)
        assert sn_exact(g).sn == n - 1
        result = verify_theorem("amalgam", case_spec, exact=True)
        assert result.ok


def test_verify_theorem_reports_every_check():
    result = verify_theorem("wheel", spec(Family.WHEEL, n=5))
    assert result.ok
    names = [c["name"] for c in result.checks]
    assert "chromatic" in names
    assert "formula" in names
    assert all(c["ok"] for c in result.checks)


def test_verify_theorem_exact_adds_minimality():
    lazy = verify_theorem("fan", spec(Family.FAN, n=3))
    full = verify_theorem("fan", spec(Family.FAN, n=3), exact=True)
    assert full.ok
    assert len(full.checks) > len(lazy.checks)


def test_construct_rejects_family_mismatch():
    with pytest.raises(InvalidFamilyParamsError):
        construct("wheel", spec(Family.CYCLE, n=5))
    with pytest.raises(InvalidFamilyParamsError):
        construct("lollipop", spec(Family.TADPOLE, n=5, m=2))
    with pytest.raises(InvalidFamilyParamsError):
        expected_sn("wheel", spec(Family.CYCLE, n=5))


@pytest.mark.parametrize(
    "check, message",
    [
        (lambda: construct("bipartite", spec(Family.COMPLETE, n=1)), "connected graph on >= 2"),
        (
            lambda: theorems._bipartite(build(4, [(0, 1), (2, 3)]), spec(Family.PATH, n=4)),
            "connected graph on >= 2",
        ),
        (lambda: construct("bipartite", spec(Family.CYCLE, n=5)), "bipartite graph with an edge"),
        (
            lambda: expected_sn("complete-multipartite", spec(Family.COMPLETE_MULTIPARTITE, parts=[3])),
            "needs >= 2 parts",
        ),
        (
            lambda: construct("complete-multipartite", spec(Family.COMPLETE_MULTIPARTITE, parts=[3])),
            "needs >= 2 parts",
        ),
    ],
    ids=["one-vertex", "disconnected", "odd-cycle", "one-part-sn", "one-part-construct"],
)
def test_cases_reject_graphs_outside_their_theorem(check, message):
    with pytest.raises(InvalidFamilyParamsError, match=message):
        check()


def test_construct_rejects_unknown_case():
    with pytest.raises(InvalidFamilyParamsError):
        construct("moebius", spec(Family.CYCLE, n=5))
    with pytest.raises(InvalidFamilyParamsError):
        expected_sn("moebius", spec(Family.CYCLE, n=5))


def test_construct_rejects_out_of_scope_params():
    with pytest.raises(InvalidFamilyParamsError):
        construct("odd-cycle", spec(Family.CYCLE, n=6))
    with pytest.raises(InvalidFamilyParamsError):
        construct("lollipop", spec(Family.LOLLIPOP, n=3, m=2))
    with pytest.raises(InvalidFamilyParamsError):
        construct("bipartite", spec(Family.CYCLE, n=5))
    with pytest.raises(InvalidFamilyParamsError):
        construct("wheel", spec(Family.WHEEL))


@pytest.mark.parametrize(
    "case, bad",
    [
        ("wheel", spec(Family.WHEEL)),
        ("odd-cycle", spec(Family.CYCLE, n="x")),
        ("amalgam", spec(Family.AMALGAM, m=2, n=4)),
    ],
)
def test_expected_sn_checks_params_as_generate_does(case, bad):
    with pytest.raises(InvalidFamilyParamsError):
        generate(bad)
    with pytest.raises(InvalidFamilyParamsError):
        expected_sn(case, bad)


def test_fast_suite_is_green():
    report = theorem_suite(SuiteScale.FAST)
    assert report.scale is SuiteScale.FAST
    assert report.ok
    assert len(report.rows) > 150
    seen = {row["case"] for row in report.rows}
    assert seen == set(THEOREM_CASES)
    for row in report.rows:
        assert row["failed_checks"] == []
        assert row["claimed_sn"] >= 1
        assert row["elapsed_seconds"] >= 0.0


def test_exact_suite_is_green():
    report = theorem_suite(SuiteScale.EXACT)
    assert report.scale is SuiteScale.EXACT
    assert report.ok
    seen = {row["case"] for row in report.rows}
    assert seen == set(THEOREM_CASES)


def test_exact_suite_runs_a_sub_list_of_the_fast_grid():
    fast, exact = (
        [(row["case"], row["params"]) for row in theorem_suite(scale).rows]
        for scale in (SuiteScale.FAST, SuiteScale.EXACT)
    )
    assert (len(fast), len(exact)) == (202, 26)
    rest = iter(fast)
    assert all(key in rest for key in exact)
    for rows in (fast, exact):
        assert {case for case, _ in rows} == set(THEOREM_CASES)


def test_suite_report_ok_tracks_rows():
    report = theorem_suite(SuiteScale.EXACT)
    report.rows[0]["ok"] = False
    assert not report.ok


def test_verify_theorem_runs_every_search_on_one_clock(monkeypatch):
    case = spec(Family.WHEEL, n=7)
    clock = Clock(3600)
    want = verify_theorem("wheel", case, exact=True).checks
    assert verify_theorem("wheel", case, exact=True, clock=clock).checks == want
    assert clock.lower_bound == 4
    # A stop in the chromatic check reports what the finished exact search proved.
    monkeypatch.setattr(theorems, "chromatic_number", lambda g, *, clock: clock.expire())
    with pytest.raises(BudgetExceededError) as err:
        verify_theorem("wheel", case, exact=True, clock=Clock(3600))
    assert err.value.lower_bound == 4
    assert str(err.value) == "time budget 3600s exhausted; sn >= 4"
