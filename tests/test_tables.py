"""Tests for the curated replay suite: case data, runners, and rendering."""

import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from wbext import clear_caches, oracle, tables
from wbext.engine import coboundary_span_env, coeff_rows, solve_ext, witness_coeff_map
from wbext.linalg import rank
from wbext.oracle import verify_witness
from wbext.poly import MultiPoly
from wbext.problems import CocycleWitness
from wbext.tables import iter_cases, run_case, run_table, table_names

# sha256 of the rendering `wbext replay --table all` prints: every case's
# dimensions, witness checks and notes, and the summary
_TABLE_ALL_SHA256 = "c2773d60191fd753b1832ec14267954e80b08ab9fe1089b95ea41321ccb58250"


def test_import_wbext_leaves_tables_for_first_use():
    """``import wbext`` does not parse the replay cases; the package's table
    functions import ``tables`` when first used."""
    code = (
        "import sys, wbext\n"
        "print('wbext.tables' in sys.modules)\n"
        "print(wbext.table_names()[-1], wbext.run_table.__module__)\n"
        "print('wbext.tables' in sys.modules)\n"
        "from wbext import tables\n"
        "print(wbext.run_table is tables.run_table)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "all", "wbext.tables", "True", "True"]


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


# ---------------------------------------------------------------------------
# the class check: listed witnesses against the solver basis
# ---------------------------------------------------------------------------


def _case(case_id):
    return next(c for c in iter_cases("all") if c.id == case_id)


def _reference_ranks(problem, listed, basis, cob) -> list[int]:
    """The class check's four ranks by the route through the images ``cob``
    built at the problem's weights: ``MultiPoly`` images and witnesses, laid
    out over every key they use and lowered to scalars."""
    rows, _over = coeff_rows([witness_coeff_map(w) for w in [*cob, *listed, *basis]], ())
    rows = [tuple([(c, e.constant_value()) for c, e in row]) for row in rows]
    n_cob, n_listed = len(cob), len(cob) + len(listed)
    return [rank(rows[:n_cob]), rank(rows[:n_listed]), rank(rows[:n_cob] + rows[n_listed:]),
            rank(rows)]


def test_class_check_ranks_equal_the_images_built_at_each_case(monkeypatch):
    ranks = []

    def recording(rows):
        ranks.append(rank(rows))
        return ranks[-1]

    monkeypatch.setattr(tables, "matrix_rank", recording)
    cases = [c for c in iter_cases("all") if c.witnesses]
    assert len(cases) == 62
    for case in cases:
        p, basis = case.problem, solve_ext(case.problem).basis
        cob = coboundary_span_env(p.shape, p.env(), p.caps.phi)
        ranks.clear()
        assert tables._classes_match(p, case.witnesses, basis)[0], case.id
        assert ranks == _reference_ranks(
            p, case.witnesses, basis, [] if p.sector == "g" else cob
        ), case.id
        if p.sector == "g":
            # the images built at the point have no g part, so no column of
            # the witnesses: they move neither rank difference the check reads
            r_cob, r_listed, r_basis, r_joint = _reference_ranks(p, case.witnesses, basis, cob)
            assert cob and r_cob == len(cob), case.id
            assert (r_listed - r_cob, r_joint - r_basis) == (
                ranks[1] - ranks[0], ranks[3] - ranks[2]
            ), case.id


def test_a_listed_coboundary_spans_no_class():
    p = _case("vir-th4-diff2").problem
    # the degree-0 move quot - sub = 2*l on this diff-2 line, inside the caps
    image = coboundary_span_env(p.shape, p.env(), 0)[0]
    assert image.f == MultiPoly.parse("2*l")
    assert tables._classes_match(p, (image,), solve_ext(p).basis) == (
        False, "listed witnesses span only 0 classes, expected 1"
    )


def test_a_listed_non_cocycle_falls_outside_the_basis_span():
    p = _case("vir-th4-diff2").problem
    l7 = CocycleWitness(f=MultiPoly.parse("l^7"), g=MultiPoly.zero())
    assert not verify_witness(p, l7).passed
    assert tables._classes_match(p, (l7,), solve_ext(p).basis) == (
        False, "some listed class falls outside the solver's basis span"
    )


def test_a_listed_witness_above_the_caps_fails_its_case():
    """A caller's case may list a cocycle with a monomial above the caps: the
    case fails, naming the witness, instead of raising."""
    case = _case("vir-th4-diff2")
    p = case.problem
    (w,) = case.witnesses
    # a basis-change image of degree phi + 4 is a cocycle, entirely above the caps
    image = coboundary_span_env(p.shape, p.env(), p.caps.phi + 3)[-1]
    high = replace(w, f=w.f + image.f)
    assert verify_witness(p, high).passed
    result = run_case(replace(case, witnesses=(high,)))
    assert not result.passed
    assert result.ext_dim == case.golden_ext
    assert f"listed witness {high} has a term outside the caps and sector" in result.lines


# ---------------------------------------------------------------------------
# the witness checks: each (problem, witness) once, and the failure lines
# ---------------------------------------------------------------------------


def test_replay_checks_each_witness_once(monkeypatch):
    """Over the whole replay no (problem, witness) pair reaches the oracle
    twice, and every witness a case names or its solve returns is checked."""
    checked = []

    def recording(check):
        def counted(p, w):
            checked.append((p, w))
            return check(p, w)

        return counted

    monkeypatch.setattr(tables, "verify_witness", recording(tables.verify_witness))
    monkeypatch.setattr(oracle, "verify_witness", recording(oracle.verify_witness))
    clear_caches()
    cases = iter_cases("all")
    assert all(run_case(case).passed for case in cases)
    named = set()
    for case in cases:
        d = case.discrepancy
        forms = () if d is None else (d.printed, d.corrected)
        named |= {
            (case.problem, w)
            for w in (*case.witnesses, *forms, *solve_ext(case.problem).basis)
        }
    assert set(checked) == named
    assert len(checked) == len(named) == 103


def test_a_listed_witness_that_fails_substitution_fails_its_case():
    case = _case("vir-th4-diff4")
    (w,) = case.witnesses
    assert w.f == MultiPoly.parse("4*d^3*l^2 + 6*d^2*l^3 - d*l^4 + l^5")
    bad = replace(w, f=MultiPoly.parse("4*d^3*l^2 + 7*d^2*l^3 - d*l^4 + l^5"))
    result = run_case(replace(case, witnesses=(bad,)))
    assert not result.passed
    assert result.ext_dim == case.golden_ext
    assert f"witness FAILS substitution: {bad}  ([L,L] on top)" in result.lines


def test_a_discrepancy_with_its_forms_swapped_is_reported_stale():
    case = _case("theo3-b2-iii")
    d = case.discrepancy
    swapped = replace(d, printed=d.corrected, corrected=d.printed)
    result = run_case(replace(case, discrepancy=swapped))
    assert not result.passed
    assert result.ext_dim == case.golden_ext
    assert f"  printed form : {d.corrected} [verifies]" in result.lines
    assert f"  machine form : {d.printed} [fails verification]" in result.lines
    assert "  discrepancy record is stale: verdicts flipped" in result.lines


# ---------------------------------------------------------------------------
# conformal duality on the shape-3 cases
# ---------------------------------------------------------------------------


def _dual_problem(p):
    """The shape-3 problem between the conformal duals: M(alpha, delta) has
    dual M(-alpha, 1 - delta), and the sub and quotient modules swap."""
    return replace(p, alpha=-p.abar, abar=-p.alpha, delta=1 - p.dbar, dbar=1 - p.delta)


def test_every_shape_3_case_has_its_golden_dimension_at_the_dual_problem():
    cases = [c for c in iter_cases("all") if c.problem.shape == 3]
    assert len(cases) == 54
    for case in cases:
        assert solve_ext(_dual_problem(case.problem)).ext_dim == case.golden_ext, case.id
