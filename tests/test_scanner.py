"""Weight-line scans: generic dimensions, certificates, special values."""

import math
import random
from dataclasses import fields, replace
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wbext import clear_caches, engine, oracle, scanner
from wbext.engine import solve_core, solve_ext
from wbext.equations import (
    LinearSystem,
    affine_symbols,
    assemble_linear_system,
    build_equations,
    build_equations_env,
    key_rank,
    unknown_basis,
)
from wbext.linalg import rank
from wbext.oracle import verify_witness
from wbext.poly import MultiPoly, UniPoly
from wbext.problems import Caps, ExtProblem
from wbext.qext import QuadExt, quad
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
        slow = solve_ext(sp.specialize(t0), stabilize=False).ext_dim
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
    # kept as int coefficient tuples in Z[t], like the row entries
    assert all(type(p) is tuple and all(type(c) is int for c in p) for p in data.pivots)


def test_scan_lines_refuse_an_irrational_parameter():
    """A Q(sqrt D) value of b, delta or dbar is refused when the line is
    made, before any system is built."""
    root2 = quad(1, 1, 2)
    for make in (scan_dbar, scan_delta):
        for sector in ("full", "f", "g"):
            with pytest.raises(ValueError, match="rational parameters"):
                make(root2, 3, sector=sector)
        with pytest.raises(ValueError, match="rational parameters"):
            make(2, root2)


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
    """classify, candidate_diffs and g_family_witness refuse b = 0 in
    ExtProblem's words, before any arithmetic on it."""
    with pytest.raises(ValueError) as exc:
        ExtProblem(shape=3, b=0, alpha=0, abar=0, delta=1, dbar=0)
    message = str(exc.value)
    for zero in (0, Fraction(0)):
        for call in (
            lambda: classify(zero, caps=_SMALL_CAPS),
            lambda: candidate_diffs(zero, "g"),
            lambda: candidate_diffs(zero, "f"),
            lambda: candidate_diffs(zero, "full"),
            lambda: g_family_witness(1, zero),
            lambda: g_family_witness(0, zero),
        ):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message


def test_classify_takes_only_an_int_or_a_fraction():
    """A float, a bool or a string is refused, not converted; so is a
    Q(sqrt D) value, as a scan line refuses it."""
    for bad in (0.5, True, "2/3"):
        with pytest.raises(ValueError, match="int or a Fraction"):
            classify(bad, caps=_SMALL_CAPS)
    with pytest.raises(ValueError, match="rational parameters"):
        classify(quad(1, 1, 2), caps=_SMALL_CAPS)
    assert classify(Fraction(-2, 3), caps=_SMALL_CAPS).b == Fraction(-2, 3)


@pytest.mark.parametrize("bad", [0.5, True, "1"], ids=["float", "bool", "str"])
def test_ext_dim_at_takes_only_an_int_a_fraction_or_a_quadext(bad):
    """A float, a bool or a string is refused, not converted or read as 1,
    in ExtProblem's words; an int is the Fraction it equals.  ``specialize``
    and ``weights_at`` refuse it with the same error, before any arithmetic
    on it, in either chart."""
    sp = scan_dbar(2, 1, caps=_SMALL_CAPS)
    other = scan_delta(2, 1, caps=_SMALL_CAPS)
    message = f"t0 must be an int, a Fraction or a QuadExt, got {bad!r}"
    for call in (
        lambda: ext_dim_at(sp, bad),
        lambda: sp.specialize(bad),
        lambda: other.specialize(bad),
        lambda: sp.weights_at(bad),
        lambda: other.weights_at(bad),
    ):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
    assert ext_dim_at(sp, 1) == ext_dim_at(sp, Fraction(1))
    assert sp.specialize(1) == sp.specialize(Fraction(1))
    for line in (sp, other):
        assert line.weights_at(1) == line.weights_at(Fraction(1))
        delta, dbar = line.weights_at(quad(1, 1, 2))
        assert delta - dbar == line.diff


@pytest.mark.parametrize("m", [-1, True, 1.5, Fraction(1), "1"],
                         ids=["negative", "bool", "float", "fraction", "str"])
def test_g_family_witness_takes_only_a_non_negative_int_degree(m):
    """A negative degree is refused, not built with d^(-1); a bool is not
    read as 1, and a float or a Fraction is not a degree."""
    with pytest.raises(ValueError) as exc:
        g_family_witness(m, 2)
    assert str(exc.value) == f"m must be a non-negative int, got {m!r}"
    assert g_family_witness(0, 2).g == MultiPoly.const(1)


@pytest.mark.parametrize("bad", [0.5, True, "1"], ids=["float", "bool", "str"])
def test_g_family_witness_takes_only_an_exact_dbar(bad):
    """A float dbar is refused, not built into a float witness (d - 0.25*l
    at dbar = 0.5), and a bool is not read as 1; an int is the Fraction it
    equals."""
    with pytest.raises(ValueError) as exc:
        g_family_witness(1, 2, dbar=bad)
    message = f"dbar must be a MultiPoly, an int, a Fraction or a QuadExt, got {bad!r}"
    assert str(exc.value) == message
    assert g_family_witness(1, 2, dbar=1) == g_family_witness(1, 2, dbar=Fraction(1))

@pytest.mark.parametrize(
    "bad, message",
    [
        (0.1, "b must be an int or a Fraction, got 0.1"),
        (True, "b must be an int or a Fraction, got True"),
        (quad(1, 1, 2), "scan lines must have rational parameters"),
    ],
    ids=["float", "bool", "quadext"],
)
def test_family_helpers_refuse_b_as_classify_does(bad, message):
    """candidate_diffs and g_family_witness take b only as classify does:
    neither converts a float or a bool, nor takes a Q(sqrt D) value."""
    for call in (
        lambda: classify(bad, caps=_SMALL_CAPS),
        lambda: candidate_diffs(bad, "g"),
        lambda: candidate_diffs(bad, "full"),
        lambda: g_family_witness(1, bad),
    ):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
    assert candidate_diffs(None, "f") == [Fraction(s) for s in range(7)]
    assert candidate_diffs(None, "g") == []


@pytest.mark.parametrize("sector", ["bogus", "F", "", None])
def test_candidate_diffs_refuses_a_sector_as_ext_problem_does(sector):
    """An unknown sector is refused with ExtProblem's message, not read as
    the full-sector union."""
    message = f"sector must be one of ('full', 'f', 'g'), got {sector!r}"
    for b in (2, None):
        with pytest.raises(ValueError) as exc:
            candidate_diffs(b, sector)
        assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        ExtProblem(shape=3, b=2, alpha=0, abar=0, delta=1, dbar=0, sector=sector)
    assert str(exc.value) == message


@pytest.mark.parametrize("b", [Fraction(2), Fraction(-2, 3)])
def test_classify_witnesses_pass_through_the_oracle(monkeypatch, b):
    """classify takes its special-point witnesses from ``_solve_at``; that
    solve is oracle-checked, so a checker that rejects everything stops it."""
    sp = scan_dbar(b, 2 + b, caps=CAPS)
    t0 = -b - 1  # the isolated point (delta, dbar) = (1, -b - 1)
    assert sp.weights_at(t0) == (1, -b - 1)
    assert not sp.specialize(t0).degenerate_weights()
    assert dict(special_values(sp).special_values)[t0] > 0
    clear_caches()
    monkeypatch.setattr(oracle, "verify_witness", lambda p, w: oracle.VerifyReport(passed=False))
    with pytest.raises(ArithmeticError, match="checker rejects"):
        scanner._solve_at(sp, t0)


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
# the line template against the direct build over Q[t]
# ---------------------------------------------------------------------------


def _int_rows(rows) -> list:
    """Sparse rows of ``MultiPoly`` values in t lowered to sparse Z[t] rows:
    each row times the positive constant that clears its denominators and
    divides out the gcd of its coefficients, a plain reference."""
    out = []
    for row in rows:
        den = 1
        for _j, e in row:
            for exps, c in e.terms.items():
                assert not (exps[0] or exps[1] or exps[2]), e
                den = math.lcm(den, c.denominator)
        content = 0
        lowered = []
        for j, e in row:
            cs = [0] * (max(exps[3] for exps in e.terms) + 1)
            for exps, c in e.terms.items():
                cs[exps[3]] = c.numerator * (den // c.denominator)
                content = math.gcd(content, cs[exps[3]])
            lowered.append((j, cs))
        out.append(tuple((j, tuple(c // content for c in cs)) for j, cs in lowered))
    return out


def _image_columns(env, keys):
    """The column keys of the images built over ``env``, as
    :func:`engine.coeff_rows` lays them out: out-of-cap keys first."""
    span = engine.coboundary_span_env(3, env, _SMALL_CAPS.phi)
    maps = [engine.witness_coeff_map(w) for w in span]
    inside = set(keys)
    over = sorted({k for m in maps for k in m if k not in inside}, key=key_rank)
    return maps, over + list(keys), len(over)


def _keyed(rows, columns):
    return [{columns[j]: e for j, e in row} for row in rows]


def _line_template_env(names=("b", "delta", "dbar")):
    """Line template symbols, spelled out here: the solver's weight names
    ``names`` (the line template's by default) and zero shifts."""
    env = affine_symbols(names)
    env["alpha"] = env["abar"] = 0
    return env


def _without_shifts(rows):
    """Rows of a shape-3 direct build over the solver's weights (see
    :func:`build_equations`) as line template values
    ``(c0, c_b, c_delta, c_dbar)``: the alpha and abar components deleted,
    and the entries and then the rows that vanish with them dropped."""
    out = []
    for row in rows:
        kept = [(j, (*vec[:2], *vec[4:])) for j, vec in row]
        kept = tuple((j, vec) for j, vec in kept if any(vec))
        if kept:
            out.append(kept)
    return out


def _kept(rows) -> list:
    """The indices of ``rows`` that are not a non-zero constant multiple of
    an earlier row, in order: the reference of the line template's
    deduplication, which keys each row by its entries divided by its first
    non-zero integer component, as ``Fraction``s."""
    seen, kept = set(), []
    for i, row in enumerate(rows):
        lead = next(x for _j, vec in row for x in vec if x)
        key = tuple((j, tuple(Fraction(x, lead) for x in vec)) for j, vec in row)
        if key not in seen:
            seen.add(key)
            kept.append(i)
    return kept


def _on_line(rows, env):
    """Line template rows ``(c0, c_b, c_delta, c_dbar)`` as ``MultiPoly``
    values in t over a line's ``env``, the entries that vanish there
    dropped; a row may be left empty, so indices still match ``rows``."""
    out = []
    for row in rows:
        values = []
        for j, (c0, *coeffs) in row:
            terms = [c * env[name] for c, name in zip(coeffs, ("b", "delta", "dbar")) if c]
            values.append((j, sum(terms, MultiPoly.const(c0))))
        out.append(tuple((j, v) for j, v in values if v.terms))
    return out


def _sector_slices(sector):
    """The line template's keys and equation blocks of ``sector``'s parts."""
    keys, blocks, _images, _overflow = scanner._line_template(_SMALL_CAPS)
    parts = ("f", "g") if sector == "full" else (sector,)
    return [k for k in keys if k[0] in parts], [(p, ls) for p, ls in blocks if p in parts]


@settings(max_examples=100, deadline=None)
@given(
    b=st.one_of(st.none(), _SMALL_Q.filter(bool)),
    diff=_SMALL_Q,
    sector=st.sampled_from(["full", "f", "g"]),
    promote=st.sampled_from(["dbar", "delta"]),
)
def test_line_template_equals_the_direct_build_on_the_line(b, diff, sector, promote):
    """The one template of a caps, sliced to a sector's parts and evaluated
    on one line in either chart, gives the rows of that line's own build
    over Q[t], scaled to primitive integers: block for block, value for
    value and in order, less the rows whose template is a non-zero constant
    multiple of an earlier row's.  Its blocks, put back in the key columns,
    are the rows of the solver's direct build without their alpha and abar
    components, each once and less those proportional repeats; no f block
    or image involves b."""
    assume(b is not None or sector == "f")
    sp = scanner.ScanProblem(scan_dbar(b, diff, sector=sector, caps=_SMALL_CAPS).base, promote)
    keys, blocks = _sector_slices(sector)
    _keys, _blocks, images, overflow = scanner._line_template(_SMALL_CAPS)
    point = scanner._line_point(sp, 0)
    assert point == (Fraction(b or 0), *sp.weights_at(0))
    env = sp.env_t()
    direct = assemble_linear_system(build_equations_env(3, env, _SMALL_CAPS, sector), keys)
    assert keys == unknown_basis(3, _SMALL_CAPS, sector)
    every = _without_shifts(assemble_linear_system(build_equations(3, _SMALL_CAPS, sector), keys).rows)
    # the solver's rows on the line are the line's own build, repeats included
    on_line = _int_rows(_on_line(every, env))
    assert [row for row in on_line if row] == _int_rows(direct.rows)
    kept = _kept(every)
    template = [every[i] for i in kept]
    # blocks that vanish on the line are left out, as a split of its own rows has none
    lowered = [(part, rows) for part, sys in blocks if (rows := scanner._lower(sys.rows, point))]
    assert lowered == [
        (part, list(rows))
        for part, rows in scanner._block_split(keys, [on_line[i] for i in kept if on_line[i]])
    ]
    group_of = [(key[0], key[1] + key[2]) for key in keys]
    groups = sorted({group_of[j] for row in template for j, _e in row})
    assert [part for part, _system in blocks] == [part for part, _degree in groups]
    unsplit = []
    for group, (_part, block) in zip(groups, blocks):
        columns = [j for j, g in enumerate(group_of) if g == group]
        unsplit.extend(tuple((columns[k], e) for k, e in row) for row in block.rows)
    assert sorted(unsplit) == sorted(template)
    if sector == "g":
        # a g-sector line reads no image and no overflow of the template
        line_images, line_overflow = scanner._line_data(sp).matrices[-2:]
        assert line_images[0].rows == () and line_overflow[0].rows == ()
        return
    # the template's overflow block may hold keys that are zero on this line
    _maps, template_columns, width = _image_columns(_line_template_env(), _keys)
    maps, columns, _width = _image_columns(env, keys)
    direct_images, _over = engine.coeff_rows(maps, keys)
    assert overflow.rows == tuple(
        tuple((j, e) for j, e in row if j < width) for row in images.rows
    )
    assert all(vec[1] == 0 for row in images.rows for _j, vec in row)
    assert _keyed(scanner._lower(images.rows, point), template_columns) == _keyed(
        _int_rows(direct_images), columns
    )


def _direct_lowered(sp):
    """``(keys, matrices as (part, rows))`` of a line from scratch: its
    sector's own template build at zero shifts (over delta and dbar alone in
    the f sector), every row kept, proportional repeats included; the
    blocks that do not vanish on the line lowered to Z[t], then the images
    and the overflow, of part None."""
    sector, caps = sp.base.sector, sp.base.caps
    env = _line_template_env(("delta", "dbar") if sector == "f" else ("b", "delta", "dbar"))
    keys = unknown_basis(3, caps, sector)
    system = assemble_linear_system(build_equations_env(3, env, caps, sector), keys)
    images, over = engine.image_rows(3, env, caps, sector, keys)
    overflow = [tuple((j, e) for j, e in row if j < over) for row in images]
    point = sp.weights_at(0) if sector == "f" else (Fraction(sp.base.b), *sp.weights_at(0))
    blocks = [(part, scanner._lower(rows, point)) for part, rows in
              scanner._block_split(keys, system.rows)]
    lowered = [(part, rows) for part, rows in blocks if rows]
    lowered += [(None, scanner._lower(rows, point)) for rows in (images, overflow)]
    return keys, lowered


def _direct_line_data(sp):
    """``(nunk, g_generic, matrices as (rank, last pivot), pivots)`` of a
    line from scratch (:func:`_direct_lowered`), every matrix ranked by
    ``fraction_free_rank``."""
    keys, lowered = _direct_lowered(sp)
    matrices, pivots, g_rank = [], [], 0
    for part, rows in lowered:
        r, piv = scanner.fraction_free_rank(rows)
        matrices.append((r, piv[-1].coeffs if piv else None))
        pivots.extend(p.coeffs for p in piv)
        g_rank += r if part == "g" else 0
    g_generic = sum(1 for k in keys if k[0] == "g") - g_rank
    return len(keys), g_generic, matrices, tuple(pivots)


@settings(max_examples=60, deadline=None)
@given(
    bs=st.lists(st.one_of(st.none(), _SMALL_Q.filter(bool)), min_size=2, max_size=2,
                unique=True),
    diff=_SMALL_Q,
    sector=st.sampled_from(["full", "f", "g"]),
    order=st.permutations(range(4)),
)
def test_line_data_equals_a_from_scratch_build(bs, diff, sector, order):
    """Two b on one difference, in both charts and in any order of build,
    each give the line data of a from-scratch build of the line alone: the
    b-free part shared between them is the one each would rank itself."""
    assume(sector == "f" or None not in bs)
    clear_caches()
    lines = [(b, promote) for b in bs for promote in ("dbar", "delta")]
    for b, promote in (lines[i] for i in order):
        base = scan_dbar(b, diff, sector=sector, caps=_SMALL_CAPS).base
        sp = scanner.ScanProblem(base, promote)
        data = scanner._line_data(sp)
        got = (data.nunk, data.g_generic, [(r, last) for _s, r, last in data.matrices],
               data.pivots)
        assert got == _direct_line_data(sp), (b, promote)


def _assert_tuples_only(obj):
    """``obj`` is made of tuples, template systems and immutable scalars."""
    if isinstance(obj, LinearSystem):
        _assert_tuples_only(obj.rows)
    elif isinstance(obj, tuple):
        for item in obj:
            _assert_tuples_only(item)
    else:
        assert obj is None or type(obj) in (int, str, Fraction), type(obj)


def test_shared_line_parts_hold_only_tuples():
    """The template, the shared b-free parts and the line data hold tuples
    only, so nothing a caller gets back can change another line's result."""
    _assert_tuples_only(scanner._line_template(_SMALL_CAPS))
    for sector in ("full", "f", "g"):
        for sp in (scan_dbar(2, 3, sector=sector, caps=_SMALL_CAPS),
                   scan_delta(2, 3, sector=sector, caps=_SMALL_CAPS)):
            data = scanner._line_data(sp)
            for field in fields(data):
                _assert_tuples_only(getattr(data, field.name))
            if sector != "g":
                _assert_tuples_only(scanner._f_part(_SMALL_CAPS, sp.weights_at(0)))


@pytest.mark.parametrize("where", ["f block", "image"])
def test_a_template_entry_with_b_in_the_b_free_part_is_refused(monkeypatch, where):
    """The b-free part is keyed without b only because no f block or image
    entry has a ``c_b``; the template build refuses one that has."""
    bad = (((0, (0, 1, 0, 0)),),)  # the entry b, in column 0
    if where == "f block":
        monkeypatch.setattr(scanner, "_block_split", lambda keys, rows: (("f", bad),))
    else:
        monkeypatch.setattr(engine, "image_rows", lambda *args: (bad, 1))
    with pytest.raises(ArithmeticError, match="involves b"):
        scanner._line_template.__wrapped__(_SMALL_CAPS)


# ---------------------------------------------------------------------------
# the point check at certificate roots
# ---------------------------------------------------------------------------


def _certificate_roots(sp):
    candidates, _cert, _notes = scanner._factor_pivots(scanner._line_data(sp).pivots)
    return candidates


def _horner(e, t0):
    """The Z[t] entry ``e``, lowest degree first, at t = t0."""
    value = 0
    for c in reversed(e):
        value = value * t0 + c
    return value


def _exact_ext_dim_at(sp, t0):
    """The ext dimension at t0 with every matrix of the line ranked exactly:
    its rows lowered to Z[t] by ``_lower``, then evaluated at t0 by Horner's
    rule, independently of ``LinearSystem.concrete_rows``."""
    data = scanner._line_data(sp)
    point = scanner._line_point(sp, 0)
    ranks = []
    for system, _r, _last in data.matrices:
        rows = scanner._lower(system.rows, point)
        at_t0 = [tuple((j, v) for j, e in row if (v := _horner(e, t0))) for row in rows]
        ranks.append(rank(at_t0))
    return data.ext_dim(ranks)


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
    lasts = [last for _system, _r, last in scanner._line_data(sp).matrices if last is not None]
    for t0 in _certificate_roots(sp):
        ranked = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scanner, "matrix_rank", lambda rows: ranked.append(rows) or rank(rows))
            assert ext_dim_at(sp, t0) == _exact_ext_dim_at(sp, t0)
        # exactly the matrices whose last pivot vanishes at t0 are ranked
        assert len(ranked) == sum(1 for last in lasts if not UniPoly(last).eval(t0))
    report = special_values(sp)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scanner, "ext_dim_at", _exact_ext_dim_at)
        assert special_values(sp) == report


@st.composite
def _lines_up_to_small_caps(draw):
    """A line of any sector, chart, b and difference at caps up to (4, 3, 4, 4)."""
    sector = draw(st.sampled_from(["full", "f", "g"]))
    b = None if sector == "f" and draw(st.booleans()) else draw(_SMALL_Q.filter(bool))
    caps = Caps(*(draw(st.integers(1, top)) for top in (4, 3, 4, 4)))
    base = scan_dbar(b, draw(_SMALL_Q), sector=sector, caps=caps).base
    return scanner.ScanProblem(base, draw(st.sampled_from(["dbar", "delta"])))


def _proportional(p, q) -> bool:
    """Whether the Z[t] polynomials ``p`` and ``q``, lowest degree first and
    each with a non-zero lead, are non-zero constant multiples of each other."""
    return len(p) == len(q) and all(a * q[-1] == b * p[-1] for a, b in zip(p, q))


def _every_row_ext_dim_at(nunk, matrices, t0):
    """The ext dimension at t0 from a line's matrices with every row kept
    (:func:`_direct_lowered`), each evaluated at t0 by Horner's rule and
    ranked exactly."""
    ranks = [
        rank([tuple((j, v) for j, e in row if (v := _horner(e, t0))) for row in rows])
        for _part, rows in matrices
    ]
    *blocks, full, over = ranks
    return nunk - sum(blocks) - (full - over)


@settings(max_examples=100, deadline=None)
@given(_lines_up_to_small_caps())
def test_dropping_proportional_repeats_moves_no_rank_pivot_or_special_value(sp):
    """A line's matrices, each equation row kept once up to a constant
    factor, against the line's every row (the reference, built from
    scratch): equal generic ranks, each Bareiss pivot the same up to a
    non-zero constant factor, pivot for pivot, and so the same certificate,
    candidates and notes, and the same ext dimension at every candidate."""
    data = scanner._line_data(sp)
    keys, every = _direct_lowered(sp)
    ranked = [scanner.fraction_free_rank(rows) for _part, rows in every]
    assert [r for _system, r, _last in data.matrices] == [r for r, _piv in ranked]
    pivots = [p.coeffs for _r, piv in ranked for p in piv]
    assert len(data.pivots) == len(pivots)
    assert all(map(_proportional, data.pivots, pivots))
    factored = scanner._factor_pivots(data.pivots)
    assert factored == scanner._factor_pivots(pivots)
    for t0 in factored[0]:
        assert ext_dim_at(sp, t0) == _every_row_ext_dim_at(len(keys), every, t0)


@settings(max_examples=100, deadline=None)
@given(
    b=_SMALL_Q.filter(bool),
    diff=_SMALL_Q,
    sector=st.sampled_from(["full", "f", "g"]),
)
def test_certificate_is_square_free_primitive_and_covers_every_pivot(b, diff, sector):
    """The certificate is primitive with a positive lead and square-free;
    every special value is one of its roots, and the square-free part of
    every pivot divides it."""
    sp = scan_dbar(b, diff, sector=sector, caps=_SMALL_CAPS)
    report = special_values(sp)
    cert = report.certificate.coeffs
    assert cert[-1] > 0 and math.gcd(*cert) == 1
    if len(cert) > 1:
        assert len(scanner._gcd(cert, tuple(k * c for k, c in enumerate(cert))[1:])) == 1
    for value, _dim in report.special_values:
        assert report.certificate.eval(value) == 0
    for p in scanner._line_data(sp).pivots:
        if len(p) > 1:
            assert scanner._quotient(cert, _squarefree_part(p)) is not None


@settings(max_examples=40, deadline=None)
@given(
    b=_SMALL_Q.filter(bool),
    diff=_SMALL_Q,
    sector=st.sampled_from(["full", "f", "g"]),
    promote=st.sampled_from(["dbar", "delta"]),
    samples=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7), min_size=2,
                     max_size=2),
)
def test_point_check_agrees_with_the_oracle(b, diff, sector, promote, samples):
    """The scanner's point check against the oracle's independent route, at
    every certificate candidate (quadratic ones included) and at two random
    rationals of the line."""
    base = scan_dbar(b, diff, sector=sector, caps=Caps(f=3, g=3, h=3, phi=3)).base
    sp = scanner.ScanProblem(base, promote)
    for t0 in _certificate_roots(sp) + samples:
        assert ext_dim_at(sp, t0) == oracle.brute_dims(sp.specialize(t0))[2], t0


def test_pivots_and_certificates_hold_ints_as_computed():
    """``fraction_free_rank``'s pivots and the certificate have ``int``
    coefficients, and a line keeps those pivots' coefficient tuples as they
    are."""
    lines = [
        scan_dbar(2, 3, caps=CAPS),
        scan_dbar(Fraction(-2, 3), Fraction(4, 3), sector="g", caps=CAPS),
        scan_dbar(None, 6, sector="f", caps=CAPS),
    ]
    for sp in lines:
        data = scanner._line_data(sp)
        point = scanner._line_point(sp, 0)
        pivots = [
            p
            for system, _r, _l in data.matrices
            for p in scanner.fraction_free_rank(scanner._lower(system.rows, point))[1]
        ]
        assert data.pivots == tuple(p.coeffs for p in pivots)
        cert = special_values(sp).certificate
        assert cert.degree() > 0
        assert all(type(c) is int for p in [*pivots, cert] for c in p.coeffs)


def test_quadratic_roots_reach_the_exact_ranks():
    """At the Q(sqrt(19)) roots of the difference-6 line some last pivot
    vanishes, so the point check ranks that matrix over Q(sqrt(19)), in
    both charts, and in the same field when t0 is written over sqrt(76)."""
    base = scan_dbar(None, 6, sector="f", caps=CAPS).base
    for sp in (scanner.ScanProblem(base, "dbar"), scanner.ScanProblem(base, "delta")):
        data = scanner._line_data(sp)
        specials = special_values(sp).special_values
        for half in (Fraction(-1, 2), Fraction(1, 2)):
            t0 = quad(Fraction(-5, 2), half, 19) + (6 if sp.promote == "delta" else 0)
            assert any(
                last is not None and not UniPoly(last).eval(t0)
                for _system, _r, last in data.matrices
            )
            assert ext_dim_at(sp, t0) == _exact_ext_dim_at(sp, t0) == 1
            assert ext_dim_at(sp, QuadExt(t0.p, t0.q / 2, 76)) == 1
            assert (t0, 1) in specials


def test_both_charts_share_one_line_template():
    """Dbar and delta lines of every sector at one caps build one template
    between them; the full and f lines of one chart, at two b, share one
    b-free part, and the two charts' parts are two."""
    clear_caches()
    for sector, b in (("full", 2), ("f", None), ("full", -1), ("g", 2), ("f", 5)):
        scanner._line_data(scan_dbar(b, 3, sector=sector, caps=_SMALL_CAPS))
        scanner._line_data(scan_delta(b, 3, sector=sector, caps=_SMALL_CAPS))
        assert scanner._line_template.cache_info().currsize == 1
        assert scanner._f_part.cache_info().currsize == 2


@st.composite
def _quadratic_points(draw, sp):
    """A point ``p + 2*q*sqrt(D)`` of Q(sqrt(D)) as ``(p, q, D)``: a
    quadratic root of the line's certificate, or a random point."""
    roots = [(r.p, r.q / 2, r.disc) for r in _certificate_roots(sp) if isinstance(r, QuadExt)]
    small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    random_points = st.tuples(small, small.filter(bool), st.sampled_from((2, 3, 5, 19, -1, -3)))
    return draw(st.one_of(st.sampled_from(roots), random_points) if roots else random_points)


@settings(max_examples=60, deadline=None)
@given(
    b=_SMALL_Q.filter(bool),
    diff=_SMALL_Q,
    sector=st.sampled_from(["full", "f", "g"]),
    promote=st.sampled_from(["dbar", "delta"]),
    data=st.data(),
)
def test_point_check_reads_a_quadratic_point_in_any_form_of_its_field(
    b, diff, sector, promote, data
):
    """t0 written as ``QuadExt(p, q, 4*D)`` is ``quad(p, 2*q, D)``: the point
    check gives one dimension for both, and so does the engine's solve of
    the line at that point."""
    sp = scanner.ScanProblem(scan_dbar(b, diff, sector=sector, caps=_SMALL_CAPS).base, promote)
    p, q, disc = data.draw(_quadratic_points(sp))
    t0 = QuadExt(p, q, 4 * disc)
    dim = ext_dim_at(sp, t0)
    assert dim == ext_dim_at(sp, quad(p, 2 * q, disc))
    assert dim == solve_ext(sp.specialize(t0), stabilize=False).ext_dim


# ---------------------------------------------------------------------------
# integer Bareiss against a Fraction reference
# ---------------------------------------------------------------------------


def _q(cs):
    """A value of the Q[t] reference: coefficients, lowest degree first, with
    no trailing zero; every quotient below is taken in Fraction."""
    out = list(cs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _q_sub(a, b):
    return _q(x - y for x, y in zip_longest(a, b, fillvalue=0))


def _q_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _q(out)


def _q_divmod(num, den):
    """Quotient and remainder over Q of ``num`` by a non-zero ``den``."""
    rem = [Fraction(c) for c in num]
    quo = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        quo[k] = c = rem[k + len(den) - 1] / den[-1]
        for j, d in enumerate(den):
            rem[k + j] -= c * d
    return _q(quo), _q(rem)


def _q_primitive(p):
    """``p`` scaled to coprime integers with a positive lead (0 stays 0)."""
    if not p:
        return p
    den = math.lcm(*(Fraction(c).denominator for c in p))
    ints = [int(c * den) for c in p]
    g = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
    return tuple(c // g for c in ints)


def _exact_div(num, den):
    quo, rem = _q_divmod(num, den)
    assert not rem
    return quo


def _reference_bareiss(rows):
    """Bareiss over Q[t] with Fraction coefficient tuples, as a plain reference."""
    work = [list(r) for r in rows if any(r)]
    pivots = []
    if not work:
        return 0, pivots
    r = 0
    prev = (Fraction(1),)
    for col in range(len(work[0])):
        piv_i = None
        for i in range(r, len(work)):
            e = work[i][col]
            if e and (piv_i is None or len(e) < len(work[piv_i][col])):
                piv_i = i
        if piv_i is None:
            continue
        work[r], work[piv_i] = work[piv_i], work[r]
        piv = work[r][col]
        pivots.append(piv)
        for i in range(r + 1, len(work)):
            ci = work[i][col]
            work[i] = [
                _exact_div(_q_sub(_q_mul(piv, a), _q_mul(ci, bb)), prev)
                for a, bb in zip(work[i], work[r])
            ]
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
        st.just(()),
        st.lists(st.one_of(st.just(Fraction(0)), _BIG_Q), min_size=1, max_size=3).map(_q),
    )
    rows = []
    for _ in range(nrows):
        if draw(st.booleans()) and draw(st.booleans()):
            rows.append([()] * ncols)  # an all-zero row
            continue
        rows.append([() if j in zero_cols else draw(entry) for j in range(ncols)])
    return rows


@settings(max_examples=150, deadline=None)
@given(rows=_uni_matrices())
# the second row cancels; the last two pivot candidates then tie in degree
@example(
    rows=[[(1,), (), ()], [(1,), (), ()], [(), (0, 0, 1), ()], [(), (), (0, 0, 1)],
          [(), (0, 1), (1, 1)]]
)
def test_integer_bareiss_matches_the_fraction_reference(rows):
    sparse = [tuple((j, UniPoly(e).to_multipoly()) for j, e in enumerate(row) if e) for row in rows]
    rank, pivots = scanner.fraction_free_rank(_int_rows(sparse))
    ref_rank, ref_pivots = _reference_bareiss(rows)
    assert rank == ref_rank
    # equal up to the row scales: the same primitive parts
    assert [_q_primitive(p.coeffs) for p in pivots] == [_q_primitive(p) for p in ref_pivots]
    assert [p.degree() for p in pivots] == [len(p) - 1 for p in ref_pivots]


def test_inexact_division_in_the_integer_kernel_raises():
    assert scanner._exact_quotient((2, 3, 1), (1, 1)) == (2, 1)  # (t+1)(t+2)
    with pytest.raises(ArithmeticError):
        scanner._exact_quotient((1, 0, 1), (1, 1))  # t^2 + 1 by t + 1
    with pytest.raises(ArithmeticError):
        scanner._exact_quotient((3,), (2,))
    with pytest.raises(ArithmeticError):
        scanner._exact_quotient((1,), (0, 1))  # 1 by t


# ---------------------------------------------------------------------------
# the packed kernel: near its width bound, its degree rule, its division check
# ---------------------------------------------------------------------------


def _tuple_bareiss(rows):
    """The same elimination on coefficient tuples, each division checked by
    ``scanner._exact_quotient``: a plain reference for the packed kernel's
    ranks and pivots, coefficient for coefficient."""
    work = [dict(row) for row in rows if row]
    pivots = []
    r = 0
    prev = (1,)
    for col in sorted({j for row in work for j in row}):
        if r == len(work):
            break
        piv_i = None
        for i in range(r, len(work)):
            e = work[i].get(col)
            if e and (piv_i is None or len(e) < len(work[piv_i][col])):
                piv_i = i
        if piv_i is None:
            continue
        work[r], work[piv_i] = work[piv_i], work[r]
        prow = work[r]
        piv = prow[col]
        pivots.append(piv)
        kept = work[: r + 1]
        for row in work[r + 1 :]:
            ci = row.pop(col, ())
            new = {}
            for j in (row.keys() | prow.keys()) - {col}:
                e = scanner._sub(
                    scanner._mul(piv, row.get(j, ())), scanner._mul(ci, prow.get(j, ()))
                )
                if e:
                    new[j] = scanner._exact_quotient(e, prev)
            # a row that cancels stays in place, empty, as in the kernel
            kept.append(new)
        work = kept
        prev = piv
        r += 1
    return r, pivots


def _width(rows) -> int:
    """K = 2L + 3 of :func:`scanner.fraction_free_rank` for these rows."""
    n = min(len(rows), len({j for row in rows for j, _e in row}))
    norms = sorted(sum(abs(c) for _j, e in row for c in e) for row in rows)
    return 2 * math.prod(norms[-n:]).bit_length() + 3


def _dense_to_sparse(rows):
    """Dense rows of coefficient lists as sparse Z[t] rows, zeros dropped."""
    out = []
    for row in rows:
        entries = [(j, _q(cs)) for j, cs in enumerate(row)]
        out.append(tuple((j, e) for j, e in entries if e))
    return out


def _assert_matches_the_references(rows):
    sparse = _dense_to_sparse(rows)
    rank_, pivots = scanner.fraction_free_rank(sparse)
    tuple_rank, tuple_pivots = _tuple_bareiss(sparse)
    assert rank_ == tuple_rank and pivots == [UniPoly(p) for p in tuple_pivots]
    ref_rank, ref_pivots = _reference_bareiss([[_q(map(Fraction, c)) for c in row] for row in rows])
    assert rank_ == ref_rank
    assert [_q_primitive(p.coeffs) for p in pivots] == [_q_primitive(p) for p in ref_pivots]
    assert [p.degree() for p in pivots] == [len(p) - 1 for p in ref_pivots]


_COEFF_64 = st.one_of(st.just(0), st.integers(-(2**64), 2**64))


@st.composite
def _big_matrices(draw):
    """Up to 8 x 8 dense matrices of entries of degree <= 2 with coefficients
    up to 2**64: at 8 x 8 the packing width K passes 1,000 bits."""
    nrows = draw(st.integers(1, 8))
    ncols = draw(st.integers(1, 8))
    entry = st.lists(_COEFF_64, min_size=1, max_size=3)
    return [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]


@settings(max_examples=60, deadline=None)
@given(rows=_big_matrices())
def test_packed_bareiss_matches_the_references_near_its_width_bound(rows):
    _assert_matches_the_references(rows)


def test_packed_bareiss_at_a_width_above_1000_bits():
    rng = random.Random(22)
    rows = [
        [[rng.randint(-(2**64), 2**64) for _ in range(3)] for _ in range(8)] for _ in range(8)
    ]
    assert _width(_dense_to_sparse(rows)) > 1000
    _assert_matches_the_references(rows)


@settings(max_examples=300, deadline=None)
@given(
    lower=st.lists(st.integers(0, 2**64), max_size=4),
    sign=st.sampled_from((1, -1)),
    slack=st.integers(0, 3),
)
def test_packed_degree_is_the_bit_length_over_the_width(lower, sign, slack):
    """A top digit of +-1 over negative lower digits, the case where the
    packed value sits just above or below a power of two."""
    e = tuple(sign * c for c in [-c for c in lower] + [1])
    bits = sum(abs(c) for c in e).bit_length() + slack  # L: any H >= the 1-norm
    k = 2 * bits + 3
    assert scanner._pack(e, k).bit_length() // k == len(e) - 1
    assert scanner._unpack(scanner._pack(e, k), k) == e


def test_packed_degree_at_the_largest_lower_digits():
    # t^d - (2^L - 2) t^(d-1) - ...: 1-norm 2^L - 1, the most L allows
    for bits in range(1, 70):
        for d in range(1, 5):
            for sign in (1, -1):
                e = tuple(sign * c for c in (0,) * (d - 1) + (-(2**bits - 2), 1))
                k = 2 * bits + 3
                assert scanner._pack(e, k).bit_length() // k == d


@st.composite
def _steep_matrices(draw):
    """Matrices whose entries have a top digit of +-1 over large negative
    lower digits, so the degree rule is tested at its edge in the kernel."""
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    entry = st.one_of(
        st.just([0]),
        st.builds(
            lambda lower, sign: [-sign * c for c in lower] + [sign],
            st.lists(st.integers(0, 2**40), max_size=3),
            st.sampled_from((1, -1)),
        ),
    )
    return [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]


@settings(max_examples=150, deadline=None)
@given(rows=_steep_matrices())
# the second row cancels at the first pivot; the next swap moves it, and
# with it the order of the two rows that tie for the third pivot
@example(rows=[[[0], [0], [1], [0]], [[0, 1], [0], [0], [0]], [[0], [0], [1], [1]],
               [[1], [0], [0], [0]], [[0], [1], [0], [0]]])
def test_packed_pivot_degrees_equal_the_tuple_kernel(rows):
    _assert_matches_the_references(rows)


@pytest.mark.parametrize("k", [5, 7, 41, 1001])
def test_packed_division_is_checked_in_zt_not_only_in_z(k):
    """The packed check raises where the integer division is exact but the
    Z[t] division is not, and on a quotient outside the digit bound."""
    m, n = (k - 3) // 2 + 1, 3
    step = scanner._packed_step(k, m, n)

    def divide(num, prev):
        out = step({0: scanner._pack(num, k)}, {1: 1}, 1, scanner._pack(prev, k))
        return scanner._unpack(out[0], k)

    assert divide((2, 3, 1), (1, 1)) == (2, 1)  # (t+1)(t+2) by t+1
    assert divide((3, 3), (3,)) == (1, 1)
    # t + 1 packs to 2**k + 1, a multiple of 3 at odd k, but 3 does not
    # divide t + 1 in Z[t]
    assert scanner._pack((1, 1), k) % 3 == 0
    with pytest.raises(ArithmeticError):
        divide((1, 1), (3,))
    # a numerator times (t + 1): exact in Z and in Z[t], but the quotient
    # (t^2 + t + 1)(t + 1) has n + 1 digits, more than any true entry
    assert divide((2, 3, 3, 1), (2, 1)) == (1, 1, 1)
    with pytest.raises(ArithmeticError):
        divide(scanner._mul((2, 3, 3, 1), (1, 1)), (2, 1))
    # each digit lies in [-2**m, 2**m)
    assert divide((-(2**m), 2**m - 1), (1,)) == (-(2**m), 2**m - 1)
    for bad in ((2**m,), (-(2**m) - 1,), (0, 0, 2**m)):
        with pytest.raises(ArithmeticError):
            divide(bad, (1,))


# ---------------------------------------------------------------------------
# gcds and square-free parts in Z[t] against a Fraction reference
# ---------------------------------------------------------------------------


def _ref_gcd(a, b):
    """Euclid over Q on coefficient tuples, as a plain reference."""
    while b:
        a, b = b, _q_primitive(_q_divmod(a, b)[1])
    return _q_primitive(a)


def _ref_squarefree_part(p):
    """``p / gcd(p, p')`` over Q, for ``p`` of degree at least 1."""
    g = _ref_gcd(p, tuple(k * c for k, c in enumerate(p))[1:])
    return _q_primitive(_exact_div(p, g))


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
    assert scanner._gcd(a, b) == _ref_gcd(a, b)
    for p in pair:
        prim = scanner._primitive(p)
        assert prim[-1] > 0 and math.gcd(*prim) == 1
        assert prim == _q_primitive(p)
        if len(p) > 1:
            assert _squarefree_part(p) == _ref_squarefree_part(p)


# ---------------------------------------------------------------------------
# the certificate: linear pivots by one exact division against gcds alone
# ---------------------------------------------------------------------------


def _factor_pivots_by_gcds(pivots):
    """``scanner._factor_pivots`` with every pivot, linear ones too, taken
    through ``gcd(p, p')`` and its gcd with the certificate."""
    cert = (1,)
    candidates: list = []
    notes: list = []
    for p in pivots:
        if len(p) < 2:
            continue
        dp = tuple(k * c for k, c in enumerate(p))[1:]
        sf = scanner._primitive(scanner._exact_quotient(p, scanner._gcd(p, dp)))
        extra = scanner._exact_quotient(sf, scanner._gcd(cert, sf))
        if len(extra) < 2:
            continue
        cert = scanner._mul(cert, extra)
        roots, quadratics, found = scanner.uni_factor_special(extra)
        candidates.extend(roots)
        for c, b, a in quadratics:
            for s in (1, -1):
                candidates.append(quad(Fraction(-b, 2 * a), Fraction(s, 2 * a), b * b - 4 * a * c))
        notes.extend(found)
    return candidates, UniPoly(cert), notes


_NONZERO = st.integers(-6, 6).filter(bool)
# a constant term whose primitive linear factor stays above the root
# finder's divisor limit whatever the lead
_HUGE = st.integers(7 * scanner._DIVISOR_LIMIT, 10 * scanner._DIVISOR_LIMIT).flatmap(
    lambda n: st.sampled_from([n, -n])
)
_LINEAR = st.tuples(st.one_of(st.integers(-6, 6), _HUGE), _NONZERO)
_QUADRATIC = st.tuples(st.integers(-6, 6), st.integers(-6, 6), _NONZERO)


@st.composite
def _pivot_lists(draw):
    """Pivot lists over one small pool of linear and quadratic factors, so
    roots repeat across pivots: each pivot a constant times a product of
    pool factors, some repeated (not square-free), the constant of either
    sign and possibly large (a non-primitive lead)."""
    pool = draw(st.lists(_LINEAR, min_size=1, max_size=4)) + draw(
        st.lists(_QUADRATIC, max_size=2)
    )
    pivots = []
    for _ in range(draw(st.integers(1, 8))):
        p = (draw(st.one_of(_NONZERO, st.integers(-(10**13), 10**13).filter(bool))),)
        for f in draw(st.lists(st.sampled_from(pool), max_size=3)):
            p = scanner._mul(p, f)
        pivots.append(p)
    return pivots


@settings(max_examples=300, deadline=None)
@given(pivots=_pivot_lists())
@example(pivots=[(3, -6), (-2, 4), (0, 5), (0, -1, 0, 2), (5 * 10**12 + 1, 3)])
def test_linear_pivots_join_the_certificate_as_the_gcds_would(pivots):
    """Candidates, their order, the certificate and every note, including a
    root search cut short by the divisor limit, are those of the gcd-only
    loop."""
    assert scanner._factor_pivots(pivots) == _factor_pivots_by_gcds(pivots)
