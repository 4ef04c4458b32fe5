"""Weight-line scans: generic dimensions, certificates, special values."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbext import scanner
from wbext.engine import solve_core, solve_ext
from wbext.linalg import rank
from wbext.oracle import verify_witness
from wbext.poly import MultiPoly, UniPoly
from wbext.problems import Caps
from wbext.qext import quad
from wbext.scanner import (
    candidate_diffs,
    classify,
    ext_dim_at,
    g_family_witness,
    line_family,
    scan_dbar,
    scan_delta,
    special_values,
)

CAPS = Caps()  # default degree window, spelled out where it matters


def test_weights_at_respects_promotion():
    line = scan_dbar(2, 3)
    assert line.weights_at(Fraction(1)) == (Fraction(4), Fraction(1))
    chart = scan_delta(2, 3)
    assert chart.weights_at(Fraction(4)) == (Fraction(4), Fraction(1))
    # the symbolic environment specializes to the concrete problem's
    rng = random.Random(20240814)
    for sp in (line, chart):
        t0 = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
        concrete = sp.specialize(t0).env()
        for k in ("delta", "dbar"):
            assert sp.env_t()[k].subst("t", t0) == concrete[k]


def test_specialize_builds_concrete_problem():
    sp = scan_dbar(2, 3)
    p = sp.specialize(Fraction(1))
    assert (p.delta, p.dbar) == (Fraction(4), Fraction(1))
    assert p.b == 2 and p.shape == 3


def test_b_zero_rejected():
    with pytest.raises(ValueError):
        scan_dbar(0, 2)


def test_candidate_diffs():
    assert candidate_diffs(Fraction(-2, 3), "g") == [
        Fraction(-2, 3),
        Fraction(1, 3),
        Fraction(4, 3),
        Fraction(7, 3),
    ]
    assert candidate_diffs(1, "f") == [Fraction(s) for s in range(7)]
    # integer b merges overlapping lines
    full = candidate_diffs(2, "full")
    assert full == sorted(set(full))
    assert Fraction(5) in full and Fraction(0) in full


def test_line_consistency_random_points():
    """The cached-line evaluator must agree with the direct solver."""
    rng = random.Random(20240815)
    sp = scan_dbar(2, 3, caps=CAPS)
    report = special_values(sp)
    cert = report.certificate
    assert isinstance(cert, UniPoly)
    done = 0
    while done < 4:
        t0 = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        delta, dbar = sp.weights_at(t0)
        if delta == 0 or dbar == 0 or cert.eval(t0) == 0:
            continue
        fast = ext_dim_at(sp, t0)
        slow = solve_ext(sp.specialize(t0), stabilize=False, check=False).ext_dim
        assert fast == slow == report.generic_dim
        done += 1


_SMALL_CAPS = Caps(f=3, g=2, h=3, phi=3)
_SMALL_Q = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@settings(max_examples=100, deadline=None)
@given(
    b=_SMALL_Q.filter(bool),
    diff=_SMALL_Q,
    sector=st.sampled_from(["full", "f"]),
    data=st.data(),
)
def test_line_agrees_with_the_engine_at_any_point(b, diff, sector, data):
    """The symbolic line and the specialised engine solve build their
    coboundaries with one builder; they must agree off and on the
    certificate's roots."""
    sp = scan_dbar(b, diff, sector=sector, caps=_SMALL_CAPS)
    roots = _certificate_roots(sp)
    points = st.fractions(min_value=-12, max_value=12, max_denominator=4)
    if roots:
        points = st.one_of(st.sampled_from(roots), points)
    t0 = data.draw(points)
    assert ext_dim_at(sp, t0) == solve_core(sp.specialize(t0)).ext_dim


def test_certificate_completeness_probes():
    """Off the certificate's roots the dimension never moves."""
    rng = random.Random(20240816)
    sp = scan_dbar(Fraction(9, 7), 2 + Fraction(9, 7), sector="g", caps=CAPS)
    report = special_values(sp)
    cert = report.certificate
    probes = 0
    while probes < 10:
        t0 = Fraction(rng.randint(-30, 30), rng.choice([1, 2, 5]))
        delta, dbar = sp.weights_at(t0)
        if delta == 0 or dbar == 0 or cert.eval(t0) == 0:
            continue
        assert ext_dim_at(sp, t0) == report.generic_dim
        probes += 1


def test_degree2_solutions_pinned_at_dbar():
    """On the m = 2 line a solution exists only at dbar = -b - 1."""
    rng = random.Random(20240817)
    for _ in range(3):
        b = Fraction(rng.randint(1, 9), rng.choice([1, 2, 7]))
        sp = scan_dbar(b, 2 + b, sector="g", caps=CAPS)
        report = special_values(sp)
        assert report.generic_dim == 0
        pinned = [
            (value, dim)
            for value, dim in report.special_values
            if sp.weights_at(value)[0] != 0 and sp.weights_at(value)[1] != 0
        ]
        assert pinned == [(-b - 1, 1)]


def test_degree3_solutions_need_the_exceptional_b():
    sp = scan_dbar(Fraction(-2, 3), Fraction(7, 3), sector="g", caps=CAPS)
    report = special_values(sp)
    assert [v for v, _ in report.special_values] == [Fraction(-2, 3)]
    for b in (Fraction(2), Fraction(9, 7)):
        other = special_values(scan_dbar(b, 3 + b, sector="g", caps=CAPS))
        live = [
            value
            for value, _dim in other.special_values
            if all(w != 0 for w in other.problem.weights_at(value))
        ]
        assert live == []


def test_family_witness_follows_coefficient_law():
    rng = random.Random(20240818)
    for m in (0, 1, 2, 3):
        b = Fraction(-2, 3) if m == 3 else Fraction(rng.randint(1, 7), rng.choice([1, 3]))
        w = g_family_witness(m, b)
        assert w.f.is_zero()
        groups = dict(w.g.coeffs_by(("d", "l")))
        assert groups[(m, 0)] == MultiPoly.const(1)
        from math import comb

        T = MultiPoly.var("t")
        for i in range(1, m + 1):
            expected = (MultiPoly.const(Fraction(comb(m, i + 1))) + T * comb(m, i)) * (
                Fraction(-1) / b
            )
            assert groups[(m - i, i)] == expected


def test_family_witness_specializes_consistently():
    w_sym = g_family_witness(2, 3)
    w_at = g_family_witness(2, 3, dbar=Fraction(-4))
    assert w_sym.g.subst("t", MultiPoly.const(Fraction(-4))) == w_at.g
    p = scan_dbar(3, 5, sector="g").specialize(Fraction(-4))
    assert verify_witness(p, w_at).passed
    # a polynomial dbar, as on the t = delta chart where dbar = t - diff
    w_poly = g_family_witness(2, 3, dbar=MultiPoly.var("t") - 5)
    assert w_poly.g.subst("t", MultiPoly.const(Fraction(1))) == w_at.g


def test_sector_split_matches_joint_scan():
    b = Fraction(2)
    joint = scan_dbar(b, 3, caps=CAPS)
    g_dim = scanner._line_data(joint).g_generic
    g_only = special_values(scan_dbar(b, 3, sector="g", caps=CAPS))
    assert g_dim == g_only.generic_dim
    f_only = special_values(scan_dbar(b, 3, sector="f", caps=CAPS))
    assert f_only.generic_dim + g_dim == special_values(joint).generic_dim


def test_generic_ext_dim_exposes_pivots():
    sp = scan_dbar(1, 2, sector="g", caps=CAPS)
    data = scanner._line_data(sp)
    assert data.generic_ext == 1
    assert data.pivots  # elimination always produces at least one pivot here


def test_scan_lines_reject_a_shift():
    """Scan lines are unshifted; an equal shift of both weights moves no
    dimension, so a shifted line is refused rather than scanned."""
    base = scan_dbar(2, 3).base
    for shift in ({"alpha": 1, "abar": 1}, {"alpha": Fraction(1, 2)}, {"abar": -1}):
        with pytest.raises(ValueError, match="shift"):
            scanner.ScanProblem(base=replace(base, **shift))


def test_line_family_needs_generic_g_solutions_on_the_degree_law(monkeypatch):
    assert line_family(scan_dbar(2, 4, sector="g")) is None  # degree 2 is pinned
    assert line_family(scan_dbar(2, 3, sector="f")) is None
    off_law = scan_dbar(2, Fraction(5, 2), sector="g")
    assert line_family(off_law) is None
    fake = replace(scanner._line_data(off_law), g_generic=1)
    monkeypatch.setattr(scanner, "_line_data", lambda sp: fake)
    with pytest.raises(ArithmeticError, match="degree law"):
        line_family(off_law)


def test_virasoro_layer_line_has_quadratic_specials():
    sp = scan_dbar(None, 6, sector="f", caps=CAPS)
    report = special_values(sp)
    assert report.generic_dim == 0
    values = {value for value, dim in report.special_values if dim == 1}
    lo = quad(Fraction(-5, 2), Fraction(-1, 2), 19)
    hi = quad(Fraction(-5, 2), Fraction(1, 2), 19)
    assert {lo, hi} <= values


def test_classify_small_b():
    got = classify(1, caps=CAPS)
    assert [e.diff for e in got.layer] == [Fraction(s) for s in range(7)]
    assert [e.diff for e in got.per_b] == [Fraction(1 + m) for m in range(4)]
    assert got.family_diffs() == [Fraction(1), Fraction(2)]
    assert got.isolated_points() == [(Fraction(1), Fraction(-2))]
    m2 = got.per_b[2]
    assert m2.specials and m2.specials[0].witnesses


def test_classify_rejects_b_zero():
    with pytest.raises(ValueError):
        classify(0)


def test_degenerate_specials_are_annotated():
    sp = scan_dbar(Fraction(-2, 3), Fraction(4, 3), sector="g", caps=CAPS)
    report = special_values(sp)
    by_value = dict(report.special_values)
    assert Fraction(0) in by_value  # the dbar = 0 jump is reported...
    assert any("t=0" in note for note in report.notes)  # ...and flagged


def test_scan_is_deterministic():
    a = special_values(scan_dbar(2, 3, caps=CAPS))
    b = special_values(scan_dbar(2, 3, caps=CAPS))
    assert str(a.certificate) == str(b.certificate)
    assert a.special_values == b.special_values


# ---------------------------------------------------------------------------
# classify results are immutable and cannot leak into later calls
# ---------------------------------------------------------------------------

_LAYER_CAPS = Caps(f=4, g=3, h=4, phi=4)


def _layer_snapshot(rep):
    return [
        (
            e.diff,
            len(e.families),
            list(e.report.special_values),
            list(e.report.notes),
            [(s.t_value, s.dim, len(s.witnesses)) for s in e.specials],
        )
        for e in rep.layer
    ]


def _clear_families(rep):
    rep.layer[0].families.clear()


def _append_special_value(rep):
    rep.layer[1].report.special_values.append((Fraction(7), 9))


def _append_note(rep):
    rep.layer[1].report.notes.append("corrupted")


def _clear_specials(rep):
    rep.layer[1].specials.clear()


def _rebind_families(rep):
    rep.layer[0].families = []


def _clear_layer(rep):
    rep.layer.clear()


def _clear_witnesses(rep):
    next(s for e in rep.per_b for s in e.specials if s.witnesses).witnesses.clear()


@pytest.mark.parametrize(
    "mutate",
    [
        _clear_families,
        _append_special_value,
        _append_note,
        _clear_specials,
        _rebind_families,
        _clear_layer,
        _clear_witnesses,
    ],
)
def test_mutating_a_classify_result_raises_and_cannot_leak(mutate):
    expected = _layer_snapshot(classify(3, caps=_LAYER_CAPS))
    assert expected[0][1] == 2 and expected[1][2]  # something to corrupt
    with pytest.raises(AttributeError):
        mutate(classify(2, caps=_LAYER_CAPS))
    assert _layer_snapshot(classify(5, caps=_LAYER_CAPS)) == expected


# ---------------------------------------------------------------------------
# the point check at certificate roots
# ---------------------------------------------------------------------------


def _certificate_roots(sp):
    roots, quadratics, _cert, _notes = scanner._factor_pivots(scanner._line_data(sp).pivots)
    return roots + [r for q in quadratics for r in scanner._quad_roots(q)]


def _exact_ext_dim_at(sp, t0):
    """The ext dimension at t0 with every matrix of the line ranked exactly."""
    data = scanner._line_data(sp)
    return data.ext_dim([rank(scanner._rows_at(rows, t0)) for rows, _r, _last in data.matrices])


@settings(max_examples=100, deadline=None)
@given(
    b=_SMALL_Q.filter(bool),
    diff=_SMALL_Q,
    sector=st.sampled_from(["full", "f", "g"]),
)
def test_point_check_is_exact_at_every_certificate_root(b, diff, sector):
    """Keeping the generic rank where a matrix's last pivot survives gives
    the exact dimension at every root, and so the same scan result."""
    sp = scan_dbar(b, diff, sector=sector, caps=_SMALL_CAPS)
    for t0 in _certificate_roots(sp):
        assert ext_dim_at(sp, t0) == _exact_ext_dim_at(sp, t0)
    report = special_values(sp)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scanner, "ext_dim_at", _exact_ext_dim_at)
        assert special_values(sp) == report


def test_quadratic_roots_reach_the_exact_ranks():
    """At the Q(sqrt(19)) roots of the difference-6 line some last pivot
    vanishes, so the point check ranks that matrix over Q(sqrt(19))."""
    sp = scan_dbar(None, 6, sector="f", caps=CAPS)
    data = scanner._line_data(sp)
    specials = special_values(sp).special_values
    for half in (Fraction(-1, 2), Fraction(1, 2)):
        t0 = quad(Fraction(-5, 2), half, 19)
        assert any(last is not None and not last.eval(t0) for _rows, _r, last in data.matrices)
        assert ext_dim_at(sp, t0) == _exact_ext_dim_at(sp, t0) == 1
        assert (t0, 1) in specials


# ---------------------------------------------------------------------------
# integer Bareiss against a Fraction reference
# ---------------------------------------------------------------------------


def _exact_div(num, den):
    quo, rem = num.divmod(den)
    assert rem.is_zero()
    return quo


def _reference_bareiss(rows):
    """Bareiss over Q[t] with Fraction UniPoly entries, as a plain reference."""
    work = [list(r) for r in rows if any(e for e in r)]
    pivots = []
    if not work:
        return 0, pivots
    r = 0
    prev = UniPoly.const(Fraction(1))
    for col in range(len(work[0])):
        piv_i = None
        for i in range(r, len(work)):
            e = work[i][col]
            if e and (piv_i is None or e.degree() < work[piv_i][col].degree()):
                piv_i = i
        if piv_i is None:
            continue
        work[r], work[piv_i] = work[piv_i], work[r]
        piv = work[r][col]
        pivots.append(piv)
        for i in range(r + 1, len(work)):
            ci = work[i][col]
            work[i] = [_exact_div(piv * a - ci * bb, prev) for a, bb in zip(work[i], work[r])]
        prev = piv
        r += 1
        if r == len(work):
            break
    return r, pivots


_BIG_Q = st.fractions(max_denominator=10**12).map(lambda q: q * 10**6)


@st.composite
def _uni_matrices(draw):
    nrows = draw(st.integers(0, 5))
    ncols = draw(st.integers(1, 5))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
    entry = st.one_of(
        st.just(UniPoly()),
        st.lists(st.one_of(st.just(Fraction(0)), _BIG_Q), min_size=1, max_size=3).map(UniPoly),
    )
    rows = []
    for _ in range(nrows):
        if draw(st.booleans()) and draw(st.booleans()):
            rows.append([UniPoly()] * ncols)  # an all-zero row
            continue
        rows.append([UniPoly() if j in zero_cols else draw(entry) for j in range(ncols)])
    return rows


@settings(max_examples=150, deadline=None)
@given(rows=_uni_matrices())
def test_integer_bareiss_matches_the_fraction_reference(rows):
    sparse = [tuple((j, e.to_multipoly()) for j, e in enumerate(row) if e) for row in rows]
    rank, pivots = scanner.fraction_free_rank(scanner._int_rows(sparse))
    ref_rank, ref_pivots = _reference_bareiss(rows)
    assert rank == ref_rank
    # equal up to the row scales: the same primitive parts
    assert [p.primitive()[0] for p in pivots] == [p.primitive()[0] for p in ref_pivots]
    assert [p.degree() for p in pivots] == [p.degree() for p in ref_pivots]


def test_inexact_division_in_the_integer_kernel_raises():
    assert scanner._exact_quotient((2, 3, 1), (1, 1)) == (2, 1)  # (t+1)(t+2)
    with pytest.raises(ArithmeticError):
        scanner._exact_quotient((1, 0, 1), (1, 1))  # t^2 + 1 by t + 1
    with pytest.raises(ArithmeticError):
        scanner._exact_quotient((3,), (2,))
    with pytest.raises(ArithmeticError):
        scanner._exact_quotient((1,), (0, 1))  # 1 by t


# ---------------------------------------------------------------------------
# gcds and square-free parts in Z[t] against a Fraction reference
# ---------------------------------------------------------------------------


def _ref_gcd(a, b):
    """Euclid over Q on ``UniPoly`` values, as a plain reference."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
        b, _ = b.primitive()
    if a.is_zero():
        return a
    prim, _ = a.primitive()
    return prim


def _ref_squarefree_part(p):
    if p.degree() <= 0:
        return UniPoly.const(1) if p.coeffs else p
    g = _ref_gcd(p, UniPoly([c * k for k, c in enumerate(p.coeffs)][1:]))
    if g.degree() <= 0:
        prim, _ = p.primitive()
        return prim
    prim, _ = _exact_div(p, g).primitive()
    return prim


def _squarefree_part(p):
    """The square-free part as ``scanner._factor_pivots`` takes it."""
    dp = tuple(k * c for k, c in enumerate(p))[1:]
    return scanner._primitive(scanner._exact_quotient(p, scanner._gcd(p, dp)))


_ZT_FACTOR = st.lists(st.integers(-9, 9), min_size=2, max_size=3).filter(lambda cs: cs[-1])


@st.composite
def _zt_products(draw):
    """Two non-zero polynomials in Z[t] drawn from one pool of factors, with
    repeated and shared factors, either sign and a large content."""
    pool = draw(st.lists(_ZT_FACTOR.map(tuple), min_size=1, max_size=4))
    out = []
    for _ in range(2):
        p = (draw(st.integers(-(10**12), 10**12).filter(bool)),)
        for f in pool:
            for _ in range(draw(st.integers(0, 2))):
                p = scanner._mul(p, f)
        out.append(p)
    return out


@settings(max_examples=200, deadline=None)
@given(pair=_zt_products())
def test_integer_gcd_and_squarefree_part_match_the_fraction_reference(pair):
    a, b = pair
    assert UniPoly(scanner._gcd(a, b)) == _ref_gcd(UniPoly(a), UniPoly(b))
    for p in pair:
        prim = scanner._primitive(p)
        assert prim[-1] > 0 and math.gcd(*prim) == 1
        assert UniPoly(prim) == UniPoly(p).primitive()[0]
        if len(p) > 1:
            assert UniPoly(_squarefree_part(p)) == _ref_squarefree_part(UniPoly(p))
