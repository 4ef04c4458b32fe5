"""Polynomial layer: multivariate arithmetic, parsing, and the univariate kit."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbext import scanner
from wbext.poly import (
    VARS,
    D,
    L,
    MultiPoly,
    T,
    U,
    UniPoly,
    uni_factor_special,
)
from wbext.qext import QuadExt, quad


def test_constructors_and_predicates():
    assert MultiPoly.zero().is_zero()
    assert not MultiPoly.const(3).is_zero()
    assert MultiPoly.const(0) == MultiPoly.zero()
    assert MultiPoly.var("d") == D
    assert MultiPoly.monomial((1, 2, 0, 0), 3) == 3 * D * L**2


def test_degrees_and_variables():
    p = D**2 * L + 5 * T
    assert max(e[0] for e in p.terms) == 2  # degree in d
    assert p.uses_var("t") and not p.uses_var("u")
    assert [v for v in VARS if p.uses_var(v)] == ["d", "l", "t"]


def test_ring_laws_random():
    rng = random.Random(20240812)

    def draw():
        p = MultiPoly.zero()
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(0, 2) for _ in range(4))
            p = p + MultiPoly.monomial(exps, Fraction(rng.randint(-5, 5)))
        return p

    for _ in range(40):
        a, b, c = draw(), draw(), draw()
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a - a).is_zero()


def test_subst_and_shift():
    p = D**2 + 3 * D * L
    assert p.subst("d", L) == L**2 + 3 * L**2
    shifted = p.shift("d", Fraction(1))
    assert shifted == (D + 1) ** 2 + 3 * (D + 1) * L
    with pytest.raises(ValueError):
        p.shift("d", D + L)  # offset may not mention the shifted variable


def test_rename():
    assert (D * L).rename("l", "u") == D * U


def test_coeffs_by_groups_remaining_variables():
    p = D * T + L + 2 * D
    groups = dict(p.coeffs_by(("d", "l")))
    assert groups[(1, 0)] == T + 2
    assert groups[(0, 1)] == MultiPoly.const(1)


def test_str_is_graded_lex_descending():
    p = D + L**2 - 3
    assert str(p) == "l^2 + d - 3"
    assert str(MultiPoly.zero()) == "0"
    assert str(-D) == "-d"


def test_str_parenthesizes_quadratic_coefficients():
    p = MultiPoly.const(quad(2, -1, 19)) * D
    assert str(p) == "(2-sqrt(19))*d"


def test_str_in_folds_parameter_into_coefficients():
    assert (D - T * L).str_in(("d", "l")) == "d - t*l"
    fam = D**2 - (1 + 2 * T) * D * L - T * L**2
    assert fam.str_in(("d", "l")) == "d^2 - (2*t + 1)*d*l - t*l^2"
    assert MultiPoly.zero().str_in(("d", "l")) == "0"


@pytest.mark.parametrize(
    "text",
    [
        "0",
        "d",
        "-d",
        "l^2 + d - 3",
        "d^3*l^3 + 9/2*d^2*l^4 + 63/10*d*l^5 + 14/5*l^6",
        "(2-sqrt(19))*d^3*l^4",
        "2*d + (7/2+1/2*sqrt(19))*l",
    ],
)
def test_parse_round_trips_canonical_strings(text):
    assert str(MultiPoly.parse(text)) == text


def test_parse_accepts_groups_and_powers():
    assert MultiPoly.parse("(d + l)^2") == (D + L) ** 2
    assert MultiPoly.parse("-(d - l)") == L - D
    assert MultiPoly.parse("sqrt(19)*l") == MultiPoly.const(quad(0, 1, 19)) * L
    assert MultiPoly.parse("1/2*d") == MultiPoly.const(Fraction(1, 2)) * D


@pytest.mark.parametrize(
    "bad",
    ["d +", "+", "d ^", "(d", "d)", "1.5*d", "d**2", "x", "sqrt(d)", "d + )", "2d"],
)
def test_parse_rejects_malformed_input(bad):
    with pytest.raises(ValueError):
        MultiPoly.parse(bad)


def test_unipoly_division_and_gcd():
    """``divmod`` is the one ``UniPoly`` division; gcds and square-free
    parts are taken in Z[t], on integer coefficient tuples."""
    t = UniPoly.t()
    p = (t - 1) * (t - 2)
    q, r = p.divmod(t - 1)
    assert q == t - 2 and r.is_zero()
    assert scanner._gcd((2, -3, 1), (-1, 1)) == (-1, 1)  # gcd(p, t - 1) = t - 1
    square = (1, -2, 1)  # (t - 1)^2, derivative 2t - 2
    assert scanner._exact_quotient(square, scanner._gcd(square, (-2, 2))) == (-1, 1)


def test_unipoly_primitive_part():
    t = UniPoly.t()
    p = 6 * t**2 - 4 * t
    prim, content = p.primitive()
    assert content * prim == p
    assert prim == 3 * t**2 - 2 * t


def test_unipoly_eval_supports_quadratic_points():
    t = UniPoly.t()
    p = 2 * t**2 - 14 * t + 15
    root = quad(Fraction(7, 2), Fraction(1, 2), 19)
    assert p.eval(root) == 0
    assert p.eval(Fraction(1)) == 3


def _reconstruct(rep):
    """``lead * prod((t - r)^m) * prod(quadratics) * residual``, the identity
    every factor report satisfies."""
    out = UniPoly.const(rep.lead)
    for r, m in rep.roots:
        out = out * (UniPoly.t() - r) ** m
    for q in rep.quadratics:
        out = out * q
    return out * rep.residual


def test_factor_special_finds_rational_and_quadratic_parts():
    t = UniPoly.t()
    p = (t - 2) * (t + Fraction(1, 3)) * (2 * t**2 - 14 * t + 15)
    rep = uni_factor_special(p)
    assert sorted(rep.roots) == [(Fraction(-1, 3), 1), (Fraction(2), 1)]
    assert len(rep.quadratics) == 1
    assert rep.residual.degree() == 0
    assert _reconstruct(rep) == p


def test_factor_special_handles_multiplicities():
    t = UniPoly.t()
    p = 3 * (t - 1) * (t - 1) * t
    rep = uni_factor_special(p)
    assert rep.lead == 3
    assert sorted(rep.roots) == [(Fraction(0), 1), (Fraction(1), 2)]
    assert _reconstruct(rep) == p


def test_factor_special_reports_unfactored_residual():
    t = UniPoly.t()
    p = t**4 + t + 1  # no rational roots, no small quadratic factors
    rep = uni_factor_special(p)
    assert rep.roots == []
    assert rep.residual.degree() == 4
    assert _reconstruct(rep) == p


_IRREDUCIBLE_QUADRATICS = tuple(
    UniPoly((-disc, 0, 1)) for disc in (-3, -1, 2, 3, 5, 19)  # t^2 - D, D no square
) + (UniPoly((15, -14, 2)),)  # 2t^2 - 14t + 15, discriminant 76


def _is_rational_square(x: Fraction) -> bool:
    return x >= 0 and all(
        math.isqrt(n) ** 2 == n for n in (x.numerator, x.denominator)
    )


@settings(max_examples=80, deadline=None)
@given(
    st.fractions(min_value=-7, max_value=7, max_denominator=5).filter(bool),
    st.dictionaries(
        st.fractions(min_value=-6, max_value=6, max_denominator=4),
        st.integers(1, 3),
        max_size=3,
    ),
    st.lists(st.sampled_from(_IRREDUCIBLE_QUADRATICS), max_size=2),
)
def test_factor_special_recovers_built_factorizations(lead, roots, quadratics):
    """A constant times rational linear factors (with multiplicity) times
    irreducible quadratics factors back into exactly those roots, and into
    monic quadratics that divide the input and have no rational root."""
    t = UniPoly.t()
    p = UniPoly.const(lead)
    for r, m in roots.items():
        p = p * (t - r) ** m
    for q in quadratics:
        p = p * q
    rep = uni_factor_special(p)
    assert isinstance(rep.residual, UniPoly)
    assert _reconstruct(rep) == p
    assert rep.roots == sorted(roots.items())
    for q in rep.quadratics:
        assert isinstance(q, UniPoly) and q.degree() == 2 and q.lead() == 1
        c, b, _ = q.coeffs
        assert not _is_rational_square(b * b - 4 * c)
        assert p.divmod(q)[1].is_zero()


# ---------------------------------------------------------------------------
# MultiPoly arithmetic keeps the term invariant and matches a naive reference
# ---------------------------------------------------------------------------


def _assert_clean(p):
    for exps, c in p.terms.items():
        assert type(exps) is tuple and len(exps) == 4
        assert all(type(k) is int for k in exps)
        assert type(c) in (Fraction, QuadExt) and c != 0
    assert p == MultiPoly(dict(p.terms))


def _ref_add(a, b, sign=1):
    out = dict(a.terms)
    for exps, c in b.terms.items():
        out[exps] = out.get(exps, Fraction(0)) + sign * c
    return MultiPoly(out)


def _ref_mul(a, b):
    """Pairwise product, summed in a plain dict, through the validating
    constructor."""
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return MultiPoly(out)


def _ref_subst(p, name, value):
    """Per-term substitution: each term becomes its own polynomial, times
    the power of ``value``, and is added to the running sum."""
    i = VARS.index(name)
    out = MultiPoly()
    for exps, c in p.terms.items():
        rest = list(exps)
        rest[i] = 0
        term = MultiPoly({tuple(rest): c})
        for _ in range(exps[i]):
            term = _ref_mul(term, value)
        out = _ref_add(out, term)
    return out


_SMALL = st.fractions(min_value=-5, max_value=5, max_denominator=4)
_EXPS = st.tuples(*[st.integers(0, 2)] * 4)


@st.composite
def _poly_cases(draw):
    """Three polynomials and a scalar over Q or over one Q(sqrt(disc))."""
    disc = draw(st.sampled_from((2, 19)))
    quadratic = st.builds(lambda p, q: quad(p, q, disc), _SMALL, _SMALL)
    coeff = draw(st.sampled_from((_SMALL, st.one_of(_SMALL, quadratic))))
    polys = st.builds(MultiPoly, st.dictionaries(_EXPS, coeff, max_size=5))
    a, b, c = draw(polys), draw(polys), draw(polys)
    scalar = draw(st.one_of(st.integers(-3, 3), _SMALL, quadratic))
    return a, b, c, scalar


@settings(max_examples=150, deadline=None)
@given(_poly_cases(), st.sampled_from(VARS))
def test_multipoly_arithmetic_is_clean_and_matches_reference(case, name):
    a, b, c, s = case
    by = MultiPoly({e: x for e, x in c.terms.items() if not e[VARS.index(name)]})
    checks = [
        (a + b, _ref_add(a, b)),
        (a - b, _ref_add(a, b, -1)),
        (-a, _ref_add(MultiPoly(), a, -1)),
        (a * b, _ref_mul(a, b)),
        ((a + b) * (a - b), _ref_mul(_ref_add(a, b), _ref_add(a, b, -1))),
        (a * s, _ref_mul(a, MultiPoly.const(s))),
        (s * a, _ref_mul(a, MultiPoly.const(s))),
        (a.subst(name, b), _ref_subst(a, name, b)),
        # a constant in the value sends terms onto the untouched ones
        (a.subst(name, b + 1), _ref_subst(a, name, _ref_add(b, MultiPoly.const(1)))),
        (a.shift(name, by), _ref_subst(a, name, _ref_add(MultiPoly.var(name), by))),
    ]
    for got, want in checks:
        _assert_clean(got)
        assert got == want
    assert (a - a).terms == {}
    assert (a + (-a)).terms == {}
