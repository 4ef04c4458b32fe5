"""Acceptance gate: nine end-to-end criteria, one test per criterion.

Each test prints a single ``[criterion N] PASS`` line on success; a failure
shows the assertion context instead.  Everything is exact arithmetic — no
tolerances anywhere.
"""

import random
from dataclasses import replace
from fractions import Fraction
from math import comb

from wbext.algebra import (
    check_algebra_axioms,
    check_module_axioms,
    free_module,
    make_virasoro,
    make_wb,
)
from wbext.engine import solve_ext
from wbext.oracle import brute_dims, verify_witness
from wbext.problems import Caps, ExtProblem
from wbext.qext import quad
from wbext.scanner import (
    classify,
    g_family_witness,
    scan_dbar,
    scan_delta,
    special_values,
)
from wbext.tables import iter_cases, run_table

F = Fraction

_BRUTE_CACHE: dict = {}


def brute(problem) -> tuple:
    if problem not in _BRUTE_CACHE:
        _BRUTE_CACHE[problem] = brute_dims(problem)
    return _BRUTE_CACHE[problem]


def rand_frac(rng, lo=-6, hi=6, dens=(1, 2, 3), nonzero=False) -> Fraction:
    while True:
        value = F(rng.randint(lo, hi), rng.choice(dens))
        if value or not nonzero:
            return value


# ---------------------------------------------------------------------------
# 1. axiom suite
# ---------------------------------------------------------------------------


def test_criterion_1_axiom_suite():
    rng = random.Random(20240901)
    for _ in range(20):
        b = rand_frac(rng, nonzero=True)
        alpha = rand_frac(rng)
        delta = rand_frac(rng)
        alg = make_wb(b)
        assert check_algebra_axioms(alg).passed
        report = check_module_axioms(alg, free_module(alg, alpha, delta))
        assert report.passed
        assert all(residual.is_zero() for residual in report.residuals.values())
    vir = make_virasoro()
    assert check_algebra_axioms(vir).passed
    for _ in range(5):
        alpha = rand_frac(rng)
        delta = rand_frac(rng)
        report = check_module_axioms(vir, free_module(vir, alpha, delta))
        assert report.passed
        assert all(residual.is_zero() for residual in report.residuals.values())
    print("[criterion 1] PASS — module axioms hold with exact zero residuals "
          "for 20 random (b, alpha, delta) triples and 5 Virasoro modules")


# ---------------------------------------------------------------------------
# 2. trivial-submodule classification replay
# ---------------------------------------------------------------------------

# Expected witness classes per replay case, as (f, g) canonical strings.
_T1_WITNESSES = {
    "theo1-b1-d1": {("l^2", "0"), ("0", "1")},
    "theo1-b2-d2": {("l^3", "0"), ("0", "1")},
    "theo1-b5-d5": {("0", "1")},
    "theo1-bneg23-db": {("0", "1")},
    "theo1-b2-d1": {("l^2", "0")},
    "theo1-b1-d2": {("l^3", "0")},
    "theo1-b5-d1": {("l^2", "0")},
}


def test_criterion_2_trivial_sub_replay():
    table = run_table("theo1")
    assert table.passed, table.render()
    cases = {c.id: c for c in iter_cases("theo1")}
    for case_id, expected in _T1_WITNESSES.items():
        case = cases[case_id]
        got = {(str(w.f), str(w.g)) for w in case.witnesses}
        assert got == expected, f"{case_id}: {got} != {expected}"
    # second-generator-free cases carry only first-generator classes
    for case_id in ("theo1-b2-d1", "theo1-b1-d2", "theo1-b5-d1"):
        assert all(w.g.is_zero() for w in cases[case_id].witnesses)
    # golden dimensions come from the independent brute-force oracle
    for case in cases.values():
        assert brute(case.problem)[2] == case.golden_ext, case.id
    rng = random.Random(20240902)
    for _ in range(10):
        b = rand_frac(rng, nonzero=True)
        delta = rand_frac(rng)
        alpha = rand_frac(rng)
        gamma = rand_frac(rng)
        while alpha + gamma == 0:
            gamma = rand_frac(rng)
        p = ExtProblem(shape=1, b=b, alpha=alpha, gamma=gamma, delta=delta)
        assert solve_ext(p).ext_dim == 0, (b, alpha, gamma, delta)
    print("[criterion 2] PASS — trivial-sub table replays, witness sets match, "
          "oracle confirms goldens, 10 random nonzero-sum points vanish")


# ---------------------------------------------------------------------------
# 3. trivial-quotient classification replay
# ---------------------------------------------------------------------------


def test_criterion_3_trivial_quotient_replay():
    table = run_table("theo2")
    assert table.passed, table.render()
    (case,) = iter_cases("theo2")
    assert case.golden_ext == 1
    (w,) = case.witnesses
    assert str(w.f) == "1" and w.h is not None and str(w.h) == "1" and w.g.is_zero()
    rng = random.Random(20240903)
    for i in range(10):
        b = rand_frac(rng, nonzero=True)
        mode = i % 3
        if mode == 0:  # alpha + gamma != 0, delta = 1
            delta = F(1)
            alpha = rand_frac(rng)
            gamma = rand_frac(rng)
            while alpha + gamma == 0:
                gamma = rand_frac(rng)
        elif mode == 1:  # alpha + gamma = 0, delta != 1
            alpha = rand_frac(rng)
            gamma = -alpha
            delta = rand_frac(rng)
            while delta == 1:
                delta = rand_frac(rng)
        else:  # both violated
            alpha = rand_frac(rng)
            gamma = rand_frac(rng)
            while alpha + gamma == 0:
                gamma = rand_frac(rng)
            delta = rand_frac(rng)
            while delta == 1:
                delta = rand_frac(rng)
        p = ExtProblem(shape=2, b=b, alpha=alpha, gamma=gamma, delta=delta)
        assert solve_ext(p).ext_dim == 0, (b, alpha, gamma, delta)
    print("[criterion 3] PASS — unique trivial-quotient extension at "
          "(sum=0, delta=1); 10 violating points vanish")


# ---------------------------------------------------------------------------
# 4. homogeneous second-generator families
# ---------------------------------------------------------------------------


GENERIC_DBAR = F(16, 3)  # far from every pinned or degenerate value below


def _g_sector_problem(b, m, dbar) -> ExtProblem:
    return ExtProblem(
        shape=3, b=b, alpha=0, abar=0,
        delta=dbar + m + F(b), dbar=dbar, sector="g",
    )


def _check_family(b, m, dbar):
    """The degree-m polynomial verifies by substitution and obeys the
    coefficient recursion b*a_i = -C(m, i+1) - dbar*C(m, i), a_0 = 1."""
    w = g_family_witness(m, b, dbar=dbar)
    p = _g_sector_problem(b, m, dbar)
    assert p.delta - p.dbar == m + F(b)
    report = verify_witness(p, w)
    assert report.passed, f"family m={m} b={b}: {report}"
    coeffs = [w.g.terms.get((m - i, i, 0, 0), 0) for i in range(m + 1)]
    assert coeffs[0] == 1
    for i in range(1, m + 1):
        assert F(b) * coeffs[i] == -comb(m, i + 1) - dbar * comb(m, i), (b, m, i)


def _line_points(b, m):
    """Non-degenerate (dbar, ext_dim) jumps on the degree-m line, plus the
    generic dimension, from a whole-line scan of the second-generator sector."""
    sp = scan_dbar(b, F(m) + F(b), sector="g")
    report = special_values(sp)
    points = []
    for value, dim in report.special_values:
        delta, dbar = sp.weights_at(value)
        if delta != 0 and dbar != 0:
            points.append((dbar, dim))
    return report.generic_dim, points


def _check_degree_law(b, live_m3: bool):
    # degrees 0 and 1: one-parameter families, valid at every weight
    for m in (0, 1):
        assert solve_ext(_g_sector_problem(b, m, GENERIC_DBAR)).ext_dim == 1, (b, m)
        generic, _ = _line_points(b, m)
        assert generic == 1, (b, m)
        _check_family(b, m, GENERIC_DBAR)
    # degree 2: pinned to the single weight dbar = -b-1
    pinned = -F(b) - 1
    assert solve_ext(_g_sector_problem(b, 2, pinned)).ext_dim == 1, b
    assert solve_ext(_g_sector_problem(b, 2, GENERIC_DBAR)).ext_dim == 0, b
    generic, points = _line_points(b, 2)
    assert generic == 0 and points == [(pinned, 1)], (b, generic, points)
    _check_family(b, 2, pinned)
    # degree 3: only at (b, dbar) = (-2/3, -2/3); otherwise the line is empty
    generic, points = _line_points(b, 3)
    assert generic == 0, b
    if live_m3:
        assert points == [(F(b), 1)], (b, points)
        assert solve_ext(_g_sector_problem(b, 3, F(b))).ext_dim == 1
        _check_family(b, 3, F(b))
    else:
        assert points == [], (b, points)
    assert solve_ext(_g_sector_problem(b, 3, GENERIC_DBAR)).ext_dim == 0, b
    # degree 4: beyond the law entirely
    generic, points = _line_points(b, 4)
    assert generic == 0 and points == [], (b, points)


def test_criterion_4_homogeneous_family_replay():
    table = run_table("lemma-g")
    assert table.passed, table.render()
    _check_degree_law(F(-2, 3), live_m3=True)
    rng = random.Random(20240904)
    seen = set()
    while len(seen) < 5:
        b = rand_frac(rng, dens=(1, 2, 3, 4), nonzero=True)
        # -1 pins the degree-2 solution onto a degenerate weight; keep the
        # random draws in the clean regime the degree law describes
        if b in (F(-2, 3), F(-1)) or b in seen:
            continue
        seen.add(b)
        _check_degree_law(b, live_m3=False)
    print("[criterion 4] PASS — degree law: m in {0,1,2,3} exactly at b=-2/3, "
          "m in {0,1,2} exactly for 5 random b; coefficient recursion verified")


# ---------------------------------------------------------------------------
# 5. full classification for listed and random b
# ---------------------------------------------------------------------------

_QP = (quad(F(7, 2), F(1, 2), 19), quad(F(-5, 2), F(1, 2), 19))
_QM = (quad(F(7, 2), F(-1, 2), 19), quad(F(-5, 2), F(-1, 2), 19))

_EXPECTED_POINTS = {
    F(-1): {},
    F(1): {(F(1), F(-2)): 2},
    F(2): {(F(1), F(-3)): 2, (F(1), F(-4)): 1},
    F(3): {(F(1), F(-4)): 2, _QP: 1, _QM: 1},
    F(4): {(F(1), F(-4)): 2, (F(1), F(-5)): 1, _QP: 1, _QM: 1},
    F(5): {(F(1), F(-4)): 2, (F(1), F(-6)): 1, _QP: 2, _QM: 2},
    F(6): {(F(1), F(-7)): 1, _QP: 2, _QM: 2},
    F(-2, 3): {(F(1), F(-1, 3)): 1, (F(5, 3), F(-2, 3)): 1},
}


def _check_classification(b, expected_points):
    rep = classify(b)
    assert rep.family_diffs() == [F(b), F(b) + 1], b
    points = {
        (s.delta, s.dbar): s.dim
        for e in rep.per_b
        for s in e.specials
        if not s.degenerate
    }
    assert points == expected_points, f"b={b}: {points} != {expected_points}"
    for entry in rep.per_b:
        for s in entry.specials:
            if s.degenerate:
                continue
            assert s.witnesses, (b, s.delta, s.dbar)
            point = ExtProblem(
                shape=3, b=b, alpha=0, abar=0, delta=s.delta, dbar=s.dbar
            )
            for w in s.witnesses:
                assert verify_witness(point, w).passed, (b, s.delta, s.dbar)


def test_criterion_5_full_classification_replay():
    table = run_table("theo3")
    assert table.passed, table.render()
    flagged = next(r for r in table.results if r.case_id == "theo3-b2-iii")
    joined = "\n".join(flagged.lines)
    assert "known discrepancy" in joined
    assert "fails verification" in joined and "verifies" in joined
    for b, expected in _EXPECTED_POINTS.items():
        _check_classification(b, expected)
    rng = random.Random(20240905)
    seen = set()
    while len(seen) < 3:
        b = F(rng.randint(-9, 9), rng.choice((2, 3, 4, 5)))
        if b.denominator == 1 or b == F(-2, 3) or b in seen:
            continue
        seen.add(b)
        _check_classification(b, {(F(1), -F(b) - 1): 1})
    print("[criterion 5] PASS — classification matches for b in "
          "{-1,1,2,3,4,5,6,-2/3} and 3 random generic b; witnesses verify; "
          "the known print discrepancy is reported with both forms")


# ---------------------------------------------------------------------------
# 6. single-generator (Virasoro) regression
# ---------------------------------------------------------------------------


def test_criterion_6_virasoro_regression():
    for name in ("vir-th2", "vir-th3", "vir-th4"):
        table = run_table(name)
        assert table.passed, table.render()
    quad_cases = [c for c in iter_cases("vir-th4") if not isinstance(c.problem.delta, (int, Fraction))]
    assert {c.id for c in quad_cases} == {"vir-th4-quad-plus", "vir-th4-quad-minus"}
    for case in quad_cases:
        assert case.golden_ext == 1
        assert solve_ext(case.problem).ext_dim == 1
    report = special_values(scan_delta(None, 6, sector="f"))
    # 2t^2 - 14t + 15 is irreducible over Q, so it divides the certificate
    # exactly when its roots (7 +- sqrt(19))/2 are roots of the certificate
    for half in (F(1, 2), F(-1, 2)):
        assert report.certificate.eval(quad(F(7, 2), half, 19)) == 0, report.certificate
    assert {str(value) for value, _ in report.special_values} == {
        "7/2-1/2*sqrt(19)", "7/2+1/2*sqrt(19)",
    }
    print("[criterion 6] PASS — Virasoro tables replay including the "
          "quadratic-field weights; diff-6 certificate divisible by "
          "2t^2 - 14t + 15")


# ---------------------------------------------------------------------------
# 7. independent oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_7_oracle_equivalence():
    count = 0
    for case in iter_cases("all"):
        ext = solve_ext(case.problem).ext_dim
        cocycle, coboundary, brute_ext = brute(case.problem)
        assert ext == brute_ext, (case.id, ext, brute_ext)
        assert cocycle - coboundary == brute_ext, case.id
        count += 1
    print(f"[criterion 7] PASS — brute-force oracle agrees with the solver "
          f"on all {count} replay cases")


# ---------------------------------------------------------------------------
# 8. cap stabilization
# ---------------------------------------------------------------------------


def test_criterion_8_cap_stabilization():
    count = 0
    for case in iter_cases("all"):
        p = case.problem
        base = solve_ext(p)
        assert base.diagnostics.get("stable", False), case.id
        c = p.caps
        raised = replace(p, caps=Caps(c.f + 2, c.g + 2, c.h + 2, c.phi + 2))
        assert solve_ext(raised).ext_dim == base.ext_dim, case.id
        count += 1
    print(f"[criterion 8] PASS — raising all caps by 2 leaves every one of "
          f"{count} replay dimensions unchanged")


# ---------------------------------------------------------------------------
# 9. parameter-shift invariance
# ---------------------------------------------------------------------------


def test_criterion_9_shift_invariance():
    rng = random.Random(20240909)
    interesting = [F(1), F(2), F(0), F(5)]
    for i in range(10):
        shape = i % 3 + 1
        b = rand_frac(rng, nonzero=True)
        c = rand_frac(rng, nonzero=True)
        if shape in (1, 2):
            delta = rng.choice(interesting + [rand_frac(rng)])
            if shape == 1 and i % 2 == 0:
                delta = rng.choice([F(1), F(2), b])  # near the live loci
            alpha = rand_frac(rng)
            gamma = -alpha if i % 2 == 0 else rand_frac(rng)
            base = ExtProblem(shape=shape, b=b, alpha=alpha, gamma=gamma, delta=delta)
            moved = replace(base, alpha=alpha + c, gamma=gamma - c)
        else:
            dbar = rand_frac(rng)
            m = rng.choice((0, 1, 2))
            delta = dbar + m + b if i % 2 == 0 else rand_frac(rng)
            alpha = rand_frac(rng)
            base = ExtProblem(shape=3, b=b, alpha=alpha, abar=alpha, delta=delta, dbar=dbar)
            moved = replace(base, alpha=alpha + c, abar=alpha + c)
        d0 = solve_ext(base).ext_dim
        d1 = solve_ext(moved).ext_dim
        assert d0 == d1, (shape, b, c, d0, d1)
    print("[criterion 9] PASS — translating the module parameters by "
          "(c, c, -c) preserves ext_dim on 10 random problems")
