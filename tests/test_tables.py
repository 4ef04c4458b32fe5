"""Tests for the curated replay suite: case data, runners, and rendering."""

import hashlib
from fractions import Fraction

from wbext.engine import solve_ext
from wbext.oracle import verify_witness
from wbext.tables import iter_cases, run_case, run_table, table_names

# sha256 of the rendering `wbext replay --table all` prints: every case's
# dimensions, witness checks and notes, and the summary
_TABLE_ALL_SHA256 = "c2773d60191fd753b1832ec14267954e80b08ab9fe1089b95ea41321ccb58250"


def test_table_names_lists_every_suite():
    names = table_names()
    assert names == [
        "theo1",
        "theo2",
        "theo3",
        "lemma-g",
        "vir-th2",
        "vir-th3",
        "vir-th4",
        "all",
    ]


def test_all_is_the_union_of_the_named_tables():
    merged = []
    for name in table_names():
        if name != "all":
            merged.extend(c.id for c in iter_cases(name))
    assert [c.id for c in iter_cases("all")] == merged
    assert len(merged) == len(set(merged))


def test_iter_cases_rejects_unknown_table():
    try:
        iter_cases("nope")
    except ValueError as exc:
        assert "nope" in str(exc)
        assert "theo1" in str(exc)
    else:
        raise AssertionError("expected ValueError")


def test_case_fields_are_populated():
    for case in iter_cases("all"):
        assert case.id
        assert case.golden_ext >= 0
        assert case.witness_provenance in {"listed", "derived"}
        assert case.dim_provenance in {"golden", "derived"}
        # every listed witness must carry at least one nonzero component
        for w in case.witnesses:
            assert not (w.f.is_zero() and w.g.is_zero() and (w.h is None or w.h.is_zero()))


def test_witness_counts_match_golden_dimensions():
    # Each case lists one representative per independent class (or none when
    # the dimension is zero and the case only pins a vanishing statement).
    for case in iter_cases("all"):
        assert len(case.witnesses) <= max(case.golden_ext, 1)


def test_run_case_passes_on_a_known_entry():
    case = next(c for c in iter_cases("theo2"))
    result = run_case(case)
    assert result.passed
    assert result.ext_dim == case.golden_ext == 1


def test_run_table_theo2_end_to_end():
    table = run_table("theo2")
    assert table.name == "theo2"
    assert table.passed
    text = table.render()
    assert "table theo2: 1 case(s)" in text
    assert "summary: 1/1 passed" in text
    assert "[pass]" in text and "[FAIL]" not in text


def test_discrepancy_case_keeps_both_forms_and_still_passes():
    case = next(c for c in iter_cases("theo3") if c.id == "theo3-b2-iii")
    assert case.discrepancy is not None
    printed = verify_witness(case.problem, case.discrepancy.printed)
    corrected = verify_witness(case.problem, case.discrepancy.corrected)
    assert not printed.passed
    assert corrected.passed
    result = run_case(case)
    assert result.passed
    joined = "\n".join(result.lines)
    assert "known discrepancy" in joined
    assert "fails verification" in joined
    assert "verifies" in joined


def test_lemma_table_covers_every_live_degree():
    cases = list(iter_cases("lemma-g"))
    degrees = set()
    for case in cases:
        p = case.problem
        degrees.add(p.delta - p.dbar - p.b)
    assert degrees == {0, 1, 2, 3}
    assert any(c.problem.b == Fraction(-2, 3) for c in cases)


def test_virasoro_tables_use_the_f_sector():
    for name in ("vir-th2", "vir-th3", "vir-th4"):
        for case in iter_cases(name):
            assert case.problem.b is None
            assert case.problem.sector == "f"


def test_render_reports_failures_without_hiding_dimensions():
    # Tamper with a copy of a case: claim the wrong golden dimension and make
    # sure the renderer surfaces it as a FAIL with both numbers visible.
    from dataclasses import replace

    case = next(c for c in iter_cases("theo2"))
    bad = replace(case, golden_ext=case.golden_ext + 1)
    result = run_case(bad)
    assert not result.passed
    assert result.golden_ext == case.golden_ext + 1
    table_text = run_table("theo2").render()
    assert f"ext_dim {result.ext_dim}" in table_text


def test_case_dimensions_match_solver_on_a_sample():
    sample = [c for c in iter_cases("theo1")][:4]
    for case in sample:
        assert solve_ext(case.problem).ext_dim == case.golden_ext


def test_replay_table_all_output_is_pinned():
    table = run_table("all")
    assert table.passed
    assert hashlib.sha256(table.render().encode()).hexdigest() == _TABLE_ALL_SHA256
