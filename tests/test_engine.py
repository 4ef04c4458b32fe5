"""Extension solver: dimensions, witnesses, caches, and diagnostics."""

import ast
import math
import os
import subprocess
import sys
from collections import defaultdict
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbext import clear_caches, engine, oracle, scanner
from wbext.engine import (
    coboundary_span_env,
    coeff_rows,
    solve_core,
    solve_ext,
    witness_coeff_map,
    witness_from_vector,
)
from wbext.equations import (
    assemble_linear_system,
    build_equations,
    build_equations_env,
    template_env,
    template_point,
    unknown_basis,
)
from wbext.linalg import RowSpace, _Root, nullspace, rank, rref
from wbext.poly import MultiPoly
from wbext.problems import SHAPE_WEIGHTS, Caps, CocycleWitness, ExtProblem
from wbext.qext import QuadExt, quad
from wbext.tables import iter_cases


def _constant_rows(rows) -> list[tuple]:
    """Sparse rows of constant ``MultiPoly`` values lowered to scalars: the
    reference lowering of a direct build at a concrete problem."""
    return [tuple([(c, e.constant_value()) for c, e in row]) for row in rows]


def _coboundary_span(p: ExtProblem) -> list[CocycleWitness]:
    """The change-of-basis images built at a concrete problem's weights."""
    return coboundary_span_env(p.shape, p.env(), p.caps.phi)


def _capped_coboundaries(p: ExtProblem) -> list[tuple]:
    """The reference capped coboundaries of ``p``, with no template: the
    images built at ``p``, laid out overflow-first and reduced, and of the
    reduced rows those whose pivot is past the overflow block, shifted onto
    the unknown keys."""
    keys = unknown_basis(p.shape, p.caps, p.sector)
    rows, over = coeff_rows([witness_coeff_map(w) for w in _coboundary_span(p)], keys)
    reduced, pivots = rref(_constant_rows(rows))
    return [tuple([(c - over, v) for c, v in row]) for row, piv in zip(reduced, pivots) if piv >= over]


def test_shape1_known_dimensions():
    # trivial submodule: two classes at (b, delta) = (1, 1), none off the locus
    assert solve_ext(ExtProblem(shape=1, b=1, alpha=0, gamma=0, delta=1)).ext_dim == 2
    assert solve_ext(ExtProblem(shape=1, b=5, alpha=2, gamma=1, delta=4)).ext_dim == 0


def test_shape2_unique_class():
    sol = solve_ext(ExtProblem(shape=2, b=3, alpha=1, gamma=-1, delta=1))
    assert sol.ext_dim == 1
    (w,) = sol.basis
    assert w.h is not None and not w.h.is_zero()


def test_shape3_two_classes():
    sol = solve_ext(ExtProblem(shape=3, b=1, alpha=0, abar=0, delta=3, dbar=1))
    assert sol.ext_dim == 2
    assert sol.cocycle_dim - sol.coboundary_dim == sol.ext_dim


def test_solution_is_cached():
    p = ExtProblem(shape=1, b=1, alpha=0, gamma=0, delta=1)
    assert solve_ext(p) is solve_ext(p)


def _mutate_basis(sol):
    sol.basis.clear()


def _mutate_diagnostics(sol):
    sol.diagnostics["stable"] = False


def _mutate_degenerate_notes(sol):
    sol.diagnostics["degenerate"].append("corrupted")


def _rebind_basis(sol):
    sol.basis = []


@pytest.mark.parametrize(
    "mutate", [_mutate_basis, _mutate_diagnostics, _mutate_degenerate_notes, _rebind_basis]
)
def test_mutating_a_result_cannot_corrupt_the_caches(mutate):
    p = ExtProblem(shape=3, b=1, alpha=0, abar=0, delta=1, dbar=0)
    before = solve_ext(p)
    expected = (list(before.basis), dict(before.diagnostics))
    assert expected[0] and expected[1]["stable"] and expected[1]["degenerate"]
    try:
        mutate(before)
    except (AttributeError, TypeError):
        pass
    for sol in (solve_ext(p), solve_core(p)):
        assert list(sol.basis) == expected[0]
    assert dict(solve_ext(p).diagnostics) == expected[1]


def test_mutating_returned_rows_cannot_change_the_next_solve():
    p = ExtProblem(shape=3, b=2, alpha=1, abar=1, delta=4, dbar=1, caps=Caps(4, 3, 4, 4))
    keys, template, _images, _over = engine._template(p.shape, p.caps, p.sector)
    before = solve_core(p)
    rows = template.concrete_rows(template_point(p))
    expected = list(rows)
    rows[0] = ((0, Fraction(1)),)
    rows.append(((1, Fraction(1)),))
    del rows[1:5]
    # the cached template is frozen and its rows and entries are tuples
    with pytest.raises(TypeError):
        template.rows[0] = ()
    with pytest.raises(FrozenInstanceError):
        template.rows = ()
    assert type(keys) is tuple
    assert template.concrete_rows(template_point(p)) == expected
    assert solve_core(p) == before


def test_import_builds_no_template():
    code = (
        "import wbext, wbext.engine as e, wbext.equations as q, wbext.scanner as s\n"
        "sizes = lambda: [e._template.cache_info().currsize, len(e._transcriptions)]\n"
        "lines = lambda: s._line_template.cache_info().currsize\n"
        "parts = lambda: s._f_part.cache_info().currsize\n"
        "print(*sizes(), q._powers.cache_info().currsize, lines(), parts())\n"
        "e.solve_core(wbext.ExtProblem(shape=1, b=1, alpha=0, gamma=0, delta=1))\n"
        "print(*sizes(), lines(), parts())\n"
        "s.classify(2)\n"
        "print(lines())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    *sizes, line_templates = proc.stdout.split()
    assert sizes == ["0", "0", "0", "0", "0", "1", "1", "0", "0"]
    # one classify, in the full and the f sector, meets the one template of its caps
    assert line_templates == "1"


_COUNT_BUILDS = (
    "import wbext.engine as e\n"
    "calls = []\n"
    "build = e.build_equations\n"
    "def counted(shape, caps, sector):\n"
    "    calls.append((shape, (caps.f, caps.g, caps.h, caps.phi), sector))\n"
    "    return build(shape, caps, sector)\n"
    "e.build_equations = counted\n"
)


def _builds_in_a_fresh_interpreter(code: str) -> list:
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    script = _COUNT_BUILDS + code + "print(calls)\n"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_a_stabilised_solve_transcribes_once_at_caps_plus_2():
    # the base solve and the caps+2 re-run restrict one full-sector build
    code = (
        "from wbext import Caps, ExtProblem\n"
        "p = ExtProblem(shape=2, b=3, alpha=1, gamma=-1, delta=1, caps=Caps(4, 3, 4, 4), sector='f')\n"
        "assert e.solve_ext(p).diagnostics['stable']\n"
    )
    assert _builds_in_a_fresh_interpreter(code) == [(2, (6, 5, 6, 6), "full")]


def test_replaying_every_table_transcribes_each_shape_once():
    code = "import wbext.tables as t\nassert t.run_table('all').passed\n"
    builds = _builds_in_a_fresh_interpreter(code)
    assert sorted(shape for shape, _caps, _sector in builds) == [1, 2, 3]
    assert {sector for _shape, _caps, sector in builds} == {"full"}


@st.composite
def _restriction_cases(draw):
    """A shape, a sector, caps, and either larger caps to transcribe first or
    None: the transcription is then the one the template itself asks for."""
    small = Caps(*(draw(st.integers(1, 4)) for _ in range(4)))
    larger = None
    if draw(st.booleans()):
        larger = Caps(*(getattr(small, n) + draw(st.integers(0, 3)) for n in ("f", "g", "h", "phi")))
    return draw(st.sampled_from((1, 2, 3))), draw(st.sampled_from(("full", "f", "g"))), small, larger


def _kept(rows) -> list:
    """The indices of ``rows`` that are not a non-zero constant multiple of
    an earlier row, in order: the reference of the engine's deduplication,
    which keys each row by its entries divided by its first non-zero integer
    component, as ``Fraction``s."""
    seen, kept = set(), []
    for i, row in enumerate(rows):
        lead = next(x for _j, vec in row for x in vec if x)
        key = tuple((j, tuple(Fraction(x, lead) for x in vec)) for j, vec in row)
        if key not in seen:
            seen.add(key)
            kept.append(i)
    return kept


@settings(max_examples=60, deadline=None)
@given(_restriction_cases())
def test_a_template_restricted_from_the_transcription_equals_the_direct_build(case):
    """Row for row and in order, the direct build less its proportional repeats."""
    shape, sector, caps, larger = case
    clear_caches()
    try:
        if larger is not None:
            engine._transcription(shape, larger)
        keys, equations, _images, _over = engine._template(shape, caps, sector)
        direct = assemble_linear_system(build_equations(shape, caps, sector), keys)
        assert equations.rows == tuple(direct.rows[i] for i in _kept(direct.rows))
        full_caps, full_keys, transcription = engine._transcriptions[shape]
        assert full_caps == (larger or caps)
        # equal keys share the transcription's own rows
        assert (equations is transcription) == (keys == full_keys)
    finally:
        clear_caches()


def _ratio(row, other):
    """The constant ``c`` with ``other == c * row`` as templates, or None."""
    if [j for j, _vec in row] != [j for j, _vec in other]:
        return None
    pairs = [(x, y) for (_j, vec), (_k, wec) in zip(row, other) for x, y in zip(vec, wec)]
    c = next(Fraction(y, x) for x, y in pairs if x)
    return c if all(y == c * x for x, y in pairs) else None


@settings(max_examples=60, deadline=None)
@given(_restriction_cases())
def test_a_template_keeps_each_direct_row_once_up_to_a_constant_factor(case):
    """The template's rows are a subsequence of the direct build's; each row
    left out is a non-zero multiple of an earlier kept one, and no two kept
    rows are multiples of each other."""
    shape, sector, caps, larger = case
    clear_caches()
    try:
        if larger is not None:
            engine._transcription(shape, larger)
        keys, equations, _images, _over = engine._template(shape, caps, sector)
        direct = assemble_linear_system(build_equations(shape, caps, sector), keys).rows
        kept = iter(equations.rows)
        want = next(kept, None)
        earlier = defaultdict(list)  # the kept rows so far, by columns
        for row in direct:
            columns = tuple(j for j, _vec in row)
            if row == want:
                assert not any(_ratio(k, row) for k in earlier[columns])
                earlier[columns].append(row)
                want = next(kept, None)
            else:
                assert any(_ratio(k, row) for k in earlier[columns])
        assert want is None
    finally:
        clear_caches()


def test_a_zero_row_is_dropped_and_ends_no_iteration():
    """A row with no non-zero component, empty or of zero entries, moves no
    rank and is dropped; it raises nothing that would silently end a ``map``
    over several row sets, so each set keeps its place."""
    row = ((0, (2, 0, 4)), (3, (0, -6, 0)))
    twin = ((0, (-1, 0, -2)), (3, (0, 3, 0)))
    assert engine._distinct([(), ((1, (0, 0, 0)),), row, twin]) == (row,)
    for zero in ((), ((0, (0, 0)),)):
        assert tuple(map(engine._distinct, [(row,), (zero,), (row,)])) == ((row,), (), (row,))


def test_only_shape_2_transcribes_again_for_a_larger_h_cap(fresh_caches):
    for shape in (1, 2, 3):
        held = engine._transcription(shape, Caps(2, 2, 2, 2))
        again = engine._transcription(shape, Caps(2, 1, 5, 9))
        assert (again is held) == (shape != 2)
        # a larger f cap transcribes again, at the larger cap of each part
        h, phi = (5, 9) if shape == 2 else (2, 2)
        assert engine._transcription(shape, Caps(3, 1, 1, 1))[0] == Caps(3, 2, h, phi)


def test_an_f_sector_entry_with_a_b_component_is_refused(monkeypatch, fresh_caches):
    """Every template reads b first, and an f-sector problem reads it as 0,
    so a b term in an identity that reads f is refused when the
    transcription is built, whichever sector's template asks for it."""
    build = engine.build_equations

    def with_b(shape, caps, sector):
        identities = build(shape, caps, sector)
        cols = identities[0].cols  # "LL", which reads f alone
        key = next(iter(cols))
        cols[key] = cols[key] + template_env(shape)["b"] * MultiPoly.parse("l")
        return identities

    monkeypatch.setattr(engine, "build_equations", with_b)
    for sector in ("full", "f", "g"):
        clear_caches()
        with pytest.raises(ArithmeticError, match="f/h entry of the transcription involves b"):
            engine._template(3, Caps(2, 2, 2, 2), sector)
        assert not engine._transcriptions


def test_a_row_that_reads_g_and_f_is_refused(monkeypatch, fresh_caches):
    """A template cuts a sector out by deleting columns, which is exact only
    if every row reads one part, f with h or g alone; a g key in an identity
    that reads f is refused when the transcription is built, whichever
    sector's template asks for it."""
    build = engine.build_equations

    def with_g(shape, caps, sector):
        identities = build(shape, caps, sector)
        cols = identities[0].cols  # "LL", which reads f alone
        cols[("g", 0, 0)] = next(iter(cols.values()))
        return identities

    monkeypatch.setattr(engine, "build_equations", with_g)
    for sector in ("full", "f", "g"):
        clear_caches()
        with pytest.raises(ArithmeticError, match="row reads g and also f or h"):
            engine._template(3, Caps(2, 2, 2, 2), sector)
        assert not engine._transcriptions


def test_a_basis_change_image_with_a_b_component_is_refused(monkeypatch, fresh_caches):
    """A b term in a basis-change image is refused by every template that
    lays the images out, the full sector's as well as the f sector's; the g
    sector lays out none."""
    span = engine.coboundary_span_env

    def with_b(shape, env, phi_cap):
        first, *rest = span(shape, env, phi_cap)
        return [replace(first, f=first.f + env["b"] * MultiPoly.parse("d")), *rest]

    monkeypatch.setattr(engine, "coboundary_span_env", with_b)
    for shape in (1, 2, 3):
        for sector in ("full", "f"):
            with pytest.raises(ArithmeticError, match="basis-change image involves b"):
                engine._template(shape, Caps(2, 2, 2, 2), sector)
        _keys, _equations, images, over = engine._template(shape, Caps(2, 2, 2, 2), "g")
        assert (images.rows, over) == ((), 0)


@pytest.mark.parametrize(
    "p, key",
    [
        (ExtProblem(shape=1, b=1, alpha=0, gamma=0, delta=1, caps=Caps(3, 3, 3, 3)), ("g", 0, 0)),
        (ExtProblem(shape=3, b=1, alpha=0, abar=0, delta=3, dbar=1, caps=Caps(3, 3, 3, 3)),
         ("g", 0, 1)),
    ],
)
def test_a_swapped_identity_that_no_longer_mirrors_its_twin_is_kept(
    monkeypatch, fresh_caches, p, key
):
    """The implied ``HL`` rows are multiples of ``LH``'s, so the template
    keeps one of each pair.  With one ``HL`` column wrong they are not: the
    template keeps them, and the solve disagrees with the oracle."""
    build = engine.build_equations

    def wrong(shape, caps, sector):
        identities = build(shape, caps, sector)
        assert identities[-1].name == "HL"
        cols = identities[-1].cols
        cols[key] = cols[key] + MultiPoly.parse("l")
        return identities

    right = engine._template(p.shape, p.caps, p.sector)[1].rows
    assert _dims(p) == oracle.brute_dims(p)
    monkeypatch.setattr(engine, "build_equations", wrong)
    clear_caches()
    keys, equations, _images, _over = engine._template(p.shape, p.caps, p.sector)
    swapped = assemble_linear_system(wrong(p.shape, p.caps, p.sector)[-1:], keys).rows
    changed = [row for row in swapped if not any(_ratio(r, row) for r in right)]
    assert changed and all(row in equations.rows for row in changed)
    assert len(equations.rows) == len(right) + len(changed)
    assert _dims(p) != oracle.brute_dims(p)


def test_shift_invariance_single_case():
    base = ExtProblem(shape=3, b=3, alpha=0, abar=0, delta=1, dbar=-4)
    shifted = ExtProblem(
        shape=3, b=3, alpha=Fraction(5, 3), abar=Fraction(5, 3), delta=1, dbar=-4
    )
    assert solve_ext(base).ext_dim == solve_ext(shifted).ext_dim == 2


def test_diagnostics_report_caps_and_stability():
    sol = solve_ext(ExtProblem(shape=1, b=2, alpha=0, gamma=0, delta=2))
    assert sol.diagnostics["caps"] == (8, 5, 8, 8)
    assert sol.diagnostics["stable"] is True
    assert "cap_too_small" not in sol.diagnostics


def test_degenerate_weight_is_flagged():
    sol = solve_ext(ExtProblem(shape=3, b=1, alpha=0, abar=0, delta=1, dbar=0))
    assert any("dbar = 0" in note for note in sol.diagnostics.get("degenerate", []))


def test_quadratic_weight_solve():
    delta = quad(Fraction(7, 2), Fraction(1, 2), 19)
    sol = solve_ext(
        ExtProblem(shape=3, b=None, sector="f", alpha=0, abar=0,
                   delta=delta, dbar=delta - 6)
    )
    assert sol.ext_dim == 1
    (w,) = sol.basis
    assert w.f.uses_var("d") or w.f.uses_var("l")


def test_weights_in_two_forms_of_one_field_solve_as_one():
    """sqrt(12) and 2*sqrt(3) are one element of Q(sqrt(3)), so a problem
    that writes its weights both ways is the problem in one form."""
    root12 = QuadExt(0, 1, 12)
    p = ExtProblem(shape=3, b=2, alpha=0, abar=0, delta=root12 + 1, dbar=root12)
    assert p == ExtProblem(shape=3, b=2, alpha=0, abar=0, delta=quad(1, 2, 3), dbar=quad(0, 2, 3))
    assert solve_ext(p).ext_dim == oracle.brute_dims(p)[2]


def test_virasoro_requires_f_sector():
    with pytest.raises(ValueError):
        ExtProblem(shape=3, b=None, alpha=0, abar=0, delta=3, dbar=1)


@pytest.mark.parametrize("bad", [(2, 2, 2, 2), [2, 2, 2, 2], None], ids=["tuple", "list", "none"])
def test_caps_must_be_a_caps(bad):
    """Caps given as anything but a ``Caps`` are refused by name, also by
    classify, whose caches key on them; a valid ``Caps`` still solves."""
    message = f"caps must be a Caps, got {bad!r}"
    with pytest.raises(ValueError) as exc:
        ExtProblem(shape=1, b=1, alpha=0, gamma=0, delta=1, caps=bad)
    assert str(exc.value) == message
    if bad is not None:  # classify reads None as the default caps
        with pytest.raises(ValueError) as exc:
            scanner.classify(2, caps=bad)
        assert str(exc.value) == message
    assert solve_ext(ExtProblem(shape=1, b=1, alpha=0, gamma=0, delta=1, caps=Caps(2, 2, 2, 2)))


def test_solve_core_skips_diagnostics():
    p = ExtProblem(shape=1, b=1, alpha=0, gamma=0, delta=2)
    core = solve_core(p)
    assert core.diagnostics == {}
    assert core.ext_dim == solve_ext(p).ext_dim


def _span_rank(p: ExtProblem) -> int:
    """Dimension of the span of the change-of-basis images."""
    rows, _ = coeff_rows([witness_coeff_map(w) for w in _coboundary_span(p)], ())
    return rank(_constant_rows(rows))


def test_coboundary_span_shape1():
    # the only basis change is v -> v + c*w; nonzero exactly when the shifted
    # action differs, i.e. one direction spanned by alpha + gamma + delta*l
    p = ExtProblem(shape=1, b=1, alpha=0, gamma=0, delta=2)
    span = _coboundary_span(p)
    assert len(span) == 1
    w = span[0]
    assert w.f == MultiPoly.parse("2*l")
    assert _span_rank(p) == 1


def test_coboundary_dim_bounded_by_span():
    p = ExtProblem(shape=3, b=2, alpha=0, abar=0, delta=3, dbar=1)
    sol = solve_ext(p)
    # basis-change images that poke past the degree caps are not counted as
    # in-window coboundaries, so the solver's count may be strictly smaller
    assert 0 < sol.coboundary_dim <= _span_rank(p)


def test_shape1_coboundary_dim_matches_span():
    p = ExtProblem(shape=1, b=1, alpha=0, gamma=0, delta=2)
    assert solve_ext(p).coboundary_dim == _span_rank(p) == 1


def test_witness_vector_round_trip():
    keys = [("f", 0, 2), ("f", 0, 1), ("g", 0, 0)]
    vec = ((0, Fraction(3)), (2, Fraction(-1)))  # sparse: column 1 is zero
    w = witness_from_vector(vec, keys, 1)
    assert w.f == MultiPoly.parse("3*l^2")
    assert w.g == MultiPoly.parse("-1")
    m = witness_coeff_map(w)
    assert m[("f", 0, 2)] == 3
    assert m[("g", 0, 0)] == -1


def test_basis_witnesses_are_nonzero_and_independent():
    sol = solve_ext(ExtProblem(shape=3, b=5, alpha=0, abar=0, delta=1, dbar=-6))
    assert sol.ext_dim == 1
    for w in sol.basis:
        assert not w.is_zero()


@pytest.mark.parametrize(
    "p",
    [
        ExtProblem(shape=1, b=5, alpha=2, gamma=1, delta=4),
        ExtProblem(shape=2, b=3, alpha=1, gamma=-1, delta=1),
        ExtProblem(shape=3, b=2, alpha=0, abar=0, delta=3, dbar=1),
    ],
)
def test_self_check_rejects_a_non_cocycle_coboundary(monkeypatch, fresh_caches, p):
    # one extra in-cap "basis-change image" that breaks the cocycle equations
    zero = MultiPoly.zero()
    l2 = MultiPoly.parse("l^2")
    bad = CocycleWitness(f=l2, g=zero, h=zero if p.shape == 2 else None)
    assert not oracle.verify_witness(p, bad).passed
    span = engine.coboundary_span_env

    def with_bad(shape, env, phi_cap):
        # l^2 plus zero times a weight: the same image, carried by the
        # template's weight symbols
        f = l2 + 0 * env["alpha"]
        return span(shape, env, phi_cap) + [replace(bad, f=f)]

    monkeypatch.setattr(engine, "coboundary_span_env", with_bad)
    with pytest.raises(ArithmeticError, match="capped coboundary fails"):
        solve_core(p)


# ---------------------------------------------------------------------------
# shift invariance: (alpha, abar, gamma) -> (alpha + c, abar + c, gamma - c)
# ---------------------------------------------------------------------------

_SMALL = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def _shifted(p: ExtProblem, c) -> ExtProblem:
    """The substitution d -> d - c, which keeps every total-degree cap."""
    if p.shape == 3:
        return replace(p, alpha=p.alpha + c, abar=p.abar + c)
    return replace(p, alpha=p.alpha + c, gamma=p.gamma - c)


def _dims(p: ExtProblem) -> tuple:
    core = solve_core(p)
    return core.cocycle_dim, core.coboundary_dim, core.ext_dim


@st.composite
def _small_problems(draw):
    """Problems at caps (3, 2, 3, 3) over every shape and sector, with alpha
    in Q(sqrt(5)) about half the time.  "live" draws sit on the loci where
    the extension space can be non-zero, the rest draw every weight freely."""
    shape = draw(st.integers(1, 3))
    live = draw(st.booleans())
    b = draw(_SMALL.filter(bool))
    alpha = draw(_SMALL)
    if draw(st.booleans()):
        alpha = quad(alpha, draw(st.sampled_from((1, -1, Fraction(1, 2)))), 5)
    caps, sector = Caps(3, 2, 3, 3), draw(st.sampled_from(("full", "f", "g")))
    if shape == 3:
        dbar = draw(_SMALL)
        delta = dbar + draw(st.integers(0, 2)) + b if live else draw(_SMALL)
        abar = alpha if live else draw(_SMALL)
        return ExtProblem(shape=3, b=b, alpha=alpha, abar=abar, delta=delta, dbar=dbar,
                          caps=caps, sector=sector)
    if live:
        gamma, delta = -alpha, draw(st.sampled_from((Fraction(1), Fraction(2), b)))
    else:
        gamma, delta = draw(_SMALL), draw(_SMALL)
    return ExtProblem(shape=shape, b=b, alpha=alpha, gamma=gamma, delta=delta,
                      caps=caps, sector=sector)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(iter_cases("all")), _SMALL)
def test_curated_dimensions_are_shift_invariant(case, c):
    assert _dims(_shifted(case.problem, c)) == _dims(case.problem)


@settings(max_examples=60, deadline=None)
@given(_small_problems(), _SMALL)
def test_random_dimensions_are_shift_invariant(p, c):
    assert _dims(_shifted(p, c)) == _dims(p)


# ---------------------------------------------------------------------------
# the caps+2 re-solve at the alpha = 0 point of the shift class
# ---------------------------------------------------------------------------


def _bumped(p: ExtProblem) -> ExtProblem:
    c = p.caps
    return replace(p, caps=Caps(c.f + 2, c.g + 2, c.h + 2, c.phi + 2))


@st.composite
def _shift_class_problems(draw):
    """``_small_problems`` at caps from 1 to 4, where shape 3 may have alpha
    != abar and shapes 1 and 2 alpha + gamma != 0; half of them with delta
    (and dbar by as much) moved into Q(sqrt(5)), the field alpha may lie in."""
    p = draw(_small_problems())
    p = replace(p, caps=Caps(*draw(st.tuples(*[st.integers(1, 4)] * 4))))
    if draw(st.booleans()):
        s = quad(0, draw(st.sampled_from((1, Fraction(-1, 2)))), 5)
        moved = {"delta": p.delta + s}
        if p.shape == 3:
            moved["dbar"] = p.dbar + s
        p = replace(p, **moved)
    return p


@settings(max_examples=80, deadline=None)
@given(_shift_class_problems())
def test_the_alpha_zero_point_has_the_same_dimensions(p):
    """solve_ext re-solves at caps+2 at ``_at_alpha_zero(p)``: the same
    problem moved along its shift class, with every dimension kept."""
    q = engine._at_alpha_zero(p)
    assert q.alpha == 0
    assert (q.shape, q.b, q.delta, q.dbar, q.caps, q.sector) == (
        p.shape, p.b, p.delta, p.dbar, p.caps, p.sector)
    if p.shape == 3:
        assert q.abar - q.alpha == p.abar - p.alpha
    else:
        assert q.alpha + q.gamma == p.alpha + p.gamma
    assert _dims(q) == _dims(p)
    assert _dims(_bumped(q)) == _dims(_bumped(p))


@settings(max_examples=60, deadline=None)
@given(_shift_class_problems())
def test_solve_core_equals_a_solve_of_every_direct_row(p):
    """Dimensions and basis equal a reference solve of every row of the
    direct build at ``p``, proportional repeats included: its kernel,
    reduced modulo the capped coboundaries of the images built at ``p``."""
    keys = unknown_basis(p.shape, p.caps, p.sector)
    system = assemble_linear_system(build_equations_env(p.shape, p.env(), p.caps, p.sector), keys)
    cocycles = nullspace(_constant_rows(system.rows), len(keys))
    cob = _capped_coboundaries(p)
    rs = RowSpace()
    for vec in cob:
        rs.add(vec)
    reps = []
    for vec in cocycles:
        if residue := rs.reduce(vec):
            residue = tuple((c, x / residue[0][1]) for c, x in residue)
            reps.append(residue)
            rs.add(residue)
    sol = solve_core(p)
    assert (sol.cocycle_dim, sol.coboundary_dim, sol.ext_dim) == (len(cocycles), len(cob), len(reps))
    assert sol.basis == tuple(witness_from_vector(v, keys, p.shape) for v in reps)


_RT5 = quad(1, 1, 5)


@pytest.mark.parametrize(
    "p, moved",
    [
        (ExtProblem(shape=1, b=2, alpha=3, gamma=-3, delta=2, caps=Caps(1, 1, 1, 1)), (1, 2)),
        (ExtProblem(shape=1, b=1, alpha=_RT5, gamma=-_RT5, delta=1, caps=Caps(1, 1, 1, 1),
                    sector="f"), (0, 1)),
        (ExtProblem(shape=3, b=1, alpha=Fraction(1, 2), abar=Fraction(1, 2), delta=3, dbar=1,
                    caps=Caps(1, 1, 1, 1)), (1, 2)),
        (ExtProblem(shape=3, b=1, alpha=_RT5, abar=_RT5, delta=3, dbar=1, caps=Caps(1, 1, 1, 1),
                    sector="f"), (0, 1)),
        (ExtProblem(shape=3, b=1, alpha=3, abar=3, delta=3, dbar=0, caps=Caps(1, 1, 1, 1),
                    sector="g"), (0, 1)),
    ],
)
def test_stability_diagnostics_equal_the_literal_caps_plus_2_solve(
    monkeypatch, p, moved
):
    """``stable`` and ``cap_too_small`` are what ``solve_core`` at caps+2 at
    the caller's own point gives.  The re-solve is the unchanged
    ``solve_core``, with both its cross-checks, at the alpha = 0 point; the
    oracle checks the basis at the caller's problem."""
    base, literal = solve_core(p).ext_dim, solve_core(_bumped(p)).ext_dim
    assert (base, literal) == moved
    cores, checked = [], []
    monkeypatch.setattr(engine, "solve_core", lambda q: cores.append(q) or solve_core(q))
    verify = oracle.verify_witness
    monkeypatch.setattr(oracle, "verify_witness", lambda q, w: checked.append(q) or verify(q, w))
    clear_caches()
    sol = solve_ext(p)
    assert cores == [p, _bumped(engine._at_alpha_zero(p))]
    assert cores[1].alpha == 0 != p.alpha
    assert checked == [p] * base
    assert sol.diagnostics["stable"] is False
    assert sol.diagnostics["cap_too_small"] == (
        f"dimension moved from {base} to {literal} when caps were raised by 2"
    )


# ---------------------------------------------------------------------------
# the basis-change images against the oracle's own transcription
# ---------------------------------------------------------------------------

# the oracle records the deviation from the split action with the opposite
# sign for shapes 1 and 3
_ORACLE_SIGN = {1: -1, 2: 1, 3: -1}


@st.composite
def _image_problems(draw):
    """Shapes 1-3 in the full and f sectors at phi caps 1-8, with every
    weight rational or every weight in one Q(sqrt(D))."""
    shape = draw(st.integers(1, 3))
    disc = draw(st.sampled_from((None, 2, 5, 19)))
    weights = {}
    for name in SHAPE_WEIGHTS[shape]:
        w = draw(_SMALL)
        weights[name] = w if disc is None else quad(w, draw(_SMALL), disc)
    caps, sector = Caps(phi=draw(st.integers(1, 8))), draw(st.sampled_from(("full", "f")))
    return ExtProblem(shape=shape, b=draw(_SMALL.filter(bool)), caps=caps, sector=sector, **weights)


@settings(max_examples=80, deadline=None)
@given(_image_problems())
def test_images_equal_the_oracle_basis_change_maps(p):
    images = coboundary_span_env(p.shape, p.env(), p.caps.phi)
    sign = _ORACLE_SIGN[p.shape]
    maps = [{key: sign * c for key, c in witness_coeff_map(w).items()} for w in images]
    assert maps == oracle._split_basis_change_maps(p, p.env())


# ---------------------------------------------------------------------------
# the basis-change template against the images built at the point
# ---------------------------------------------------------------------------


@st.composite
def _cob_cases(draw):
    """A problem over shapes 1-3 and sectors full/f/g at small f/g/h caps,
    its weights rational or, in most draws, some of them in one Q(sqrt(D)),
    and a phi cap of 0-8 for the template (a problem's own is at least 1)."""
    shape = draw(st.integers(1, 3))
    disc = draw(st.sampled_from((None, 2, 5, 19)))
    weights = {}
    for name in SHAPE_WEIGHTS[shape]:
        w = draw(_SMALL)
        weights[name] = w if disc is None or draw(st.booleans()) else quad(w, draw(_SMALL), disc)
    caps = Caps(draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 4)), 1)
    p = ExtProblem(shape=shape, b=draw(_SMALL.filter(bool)), caps=caps,
                   sector=draw(st.sampled_from(("full", "f", "g"))), **weights)
    return p, draw(st.integers(0, 8))


def _value_over(num, den):
    if type(num) is _Root:
        return quad(Fraction(num.a, den), Fraction(num.b, den), num.disc)
    return Fraction(num, den)


@settings(max_examples=120, deadline=None)
@given(_cob_cases())
def test_image_template_at_a_point_equals_the_images_built_there(case):
    p, phi = case
    caps = replace(p.caps, phi=phi)
    keys = unknown_basis(p.shape, caps, p.sector)
    _keys, _equations, template, over = engine._template(p.shape, caps, p.sector)
    point = template_point(p)
    at = template.concrete_rows(point)
    images = coboundary_span_env(p.shape, p.env(), phi)
    rows, direct_over = coeff_rows([witness_coeff_map(w) for w in images], keys)
    q = replace(p, caps=caps) if phi else None
    if p.sector == "g":
        # no basis move has a g part, so every image built at the point lies
        # in the overflow block: the template lays out none of them
        assert (template.rows, over) == ((), 0)
        assert all(c < direct_over for row in rows for c, _v in row)
        assert q is None or solve_core(q).coboundary_dim == 0 == len(_capped_coboundaries(q))
        return
    # the template's overflow block also holds keys that no image reaches at
    # this point; those columns are zero here, and dropping them must give
    # the point's own overflow block, in order
    live = sorted({c for row in at for c, _v in row if c < over})
    assert len(live) == direct_over
    col = {c: i for i, c in enumerate(live)}
    den = math.lcm(*(x.denominator for w in point
                     for x in ((w.p, w.q) if isinstance(w, QuadExt) else (w,))))
    assert [
        tuple([(col[c] if c < over else c - over + direct_over, _value_over(v, den))
               for c, v in row])
        for row in at
    ] == _constant_rows(rows)
    if q is None:
        return
    # the solve counts the capped coboundaries of the images built at p
    assert solve_core(q).coboundary_dim == len(_capped_coboundaries(q))


def test_no_g_sector_template_holds_an_image():
    """The engine's g-sector templates and the scanner's g-sector lines lay
    out no image and no overflow; the other sectors' lay out images, so the
    rule is not vacuous."""
    for sector in ("full", "f", "g"):
        engine_images = [engine._template(shape, Caps(), sector) for shape in (1, 2, 3)]
        laid_out = [(images.rows, over) for _k, _e, images, over in engine_images]
        data = scanner._line_data(scanner.scan_dbar(2, 3, sector=sector))
        (images, _rank, _last), (overflow, over_rank, _over_last) = data.matrices[-2:]
        laid_out.append((images.rows, overflow.rows))
        for rows, over in laid_out:
            if sector == "g":
                assert rows == () and not over and not over_rank
            else:
                assert rows


# ---------------------------------------------------------------------------
# the one row format: (column, value) pairs, ascending columns, no zeros
# ---------------------------------------------------------------------------


def _assert_sparse_rows(rows):
    for row in rows:
        assert type(row) is tuple
        assert all(type(pair) is tuple and len(pair) == 2 for pair in row)
        cols = [c for c, _v in row]
        assert all(a < b for a, b in zip(cols, cols[1:])), cols
        assert all(v for _c, v in row)


@settings(max_examples=40, deadline=None)
@given(_small_problems())
def test_every_row_producer_emits_sparse_rows(p):
    keys = unknown_basis(p.shape, p.caps, p.sector)
    system = assemble_linear_system(build_equations_env(p.shape, p.env(), p.caps, p.sector), keys)
    rows = _constant_rows(system.rows)
    _keys, template, cob_template, _over = engine._template(p.shape, p.caps, p.sector)
    point = template_point(p)
    concrete = template.concrete_rows(point)
    cob_rows, _over = coeff_rows([witness_coeff_map(w) for w in _coboundary_span(p)], keys)
    # each producer is checked before its output feeds the kernel
    for produced in (system.rows, rows, template.rows, concrete, cob_rows, _constant_rows(cob_rows),
                     cob_template.rows, cob_template.concrete_rows(point)):
        _assert_sparse_rows(produced)
    if not any(isinstance(w, QuadExt) for w in point):
        # integer numerators over the point's common denominator
        den = math.lcm(*(w.denominator for w in point))
        assert all(type(v) is int for row in concrete for _c, v in row)
        # the direct build at the point, less the rows whose template is a
        # multiple of an earlier row's
        direct = assemble_linear_system(build_equations(p.shape, p.caps, p.sector), keys).rows
        at = [
            tuple([(c, v) for c, vec in row if (v := vec[0] + sum(x * w for x, w in zip(vec[1:], point)))])
            for row in direct
        ]
        assert [row for row in at if row] == rows
        assert [tuple([(c, Fraction(v, den)) for c, v in row]) for row in concrete] == [
            at[i] for i in _kept(direct) if at[i]
        ]
    reduced, _pivots = rref(rows)
    null = nullspace(rows, len(keys))
    rs = RowSpace()
    for row in rows[::2]:
        rs.add(row)
    residues = [rs.reduce(vec) for vec in rows[1::2] + null]
    for produced in (reduced, null, rs.rows, residues):
        _assert_sparse_rows(produced)
