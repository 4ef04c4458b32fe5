"""Polynomial layer: multivariate arithmetic, parsing, and the univariate kit."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbext import scanner
from wbext.poly import (
    VARS,
    D,
    DegreeError,
    L,
    MultiPoly,
    T,
    U,
    UniPoly,
)
from wbext.qext import QuadExt, quad
from wbext.scanner import uni_factor_special


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


def test_parse_bounds_parenthesis_nesting():
    """Nesting up to the bound parses; deeper input is a ValueError rather
    than a RecursionError."""
    assert MultiPoly.parse("(" * 100 + "l" + ")" * 100) == L
    for depth in (101, 2000):
        with pytest.raises(ValueError, match="nests deeper"):
            MultiPoly.parse("(" * depth + "l" + ")" * depth)


@pytest.mark.parametrize(
    "text, degree",
    [("(d+l)^2000", 2000), ("l^5000", 5000), ("d^5*l^4", 9), ("(d+l)^3*(d-u)^3*t^3", 9),
     ("d + (l^2)^5", 10), ("((d+l)^3)^3", 9)],
)
def test_parse_refuses_a_degree_above_its_bound_before_expanding(text, degree):
    start = time.perf_counter()
    with pytest.raises(DegreeError, match=f"total degree {degree} exceeds 8") as info:
        MultiPoly.parse(text, max_degree=8)
    assert info.value.degree == degree
    assert time.perf_counter() - start < 1


def test_parse_within_its_degree_bound_is_unchanged():
    for text in ("(d+l)^4*(d-u)^4", "d^8 - 3*l^2*u^6 + 7", "(l^2)^4", "0^9000", "1/2*sqrt(5)^2"):
        assert MultiPoly.parse(text, max_degree=8) == MultiPoly.parse(text)
    assert MultiPoly.parse("l", max_degree=1) == L
    with pytest.raises(DegreeError):
        MultiPoly.parse("l", max_degree=0)


def test_unipoly_division_and_gcd():
    """Division, gcds and square-free parts in t are taken in Z[t], on
    integer coefficient tuples; ``UniPoly`` has no arithmetic."""
    assert scanner._gcd((2, -3, 1), (-1, 1)) == (-1, 1)  # gcd(p, t - 1) = t - 1
    square = (1, -2, 1)  # (t - 1)^2, derivative 2t - 2
    assert scanner._exact_quotient(square, scanner._gcd(square, (-2, 2))) == (-1, 1)


def test_unipoly_keeps_its_coefficients_as_given():
    p = UniPoly((15, -14, 2, 0, 0))
    assert p.coeffs == (15, -14, 2) and all(type(c) is int for c in p.coeffs)
    assert p.degree() == 2 and UniPoly().degree() == -1
    assert p == UniPoly([15, -14, 2]) and hash(p) == hash(UniPoly((15, -14, 2)))
    assert str(p) == "2*t^2 - 14*t + 15" and repr(p) == "UniPoly(2*t^2 - 14*t + 15)"
    with pytest.raises(AttributeError):
        p.coeffs = ()


def test_unipoly_eval_supports_quadratic_points():
    p = UniPoly((15, -14, 2))
    root = quad(Fraction(7, 2), Fraction(1, 2), 19)
    assert p.eval(root) == 0
    assert p.eval(Fraction(1)) == 3


def _zt_product(*factors):
    """The product in Z[t] of integer coefficient tuples."""
    out = (1,)
    for f in factors:
        out = scanner._mul(out, f)
    return out


def test_factor_special_finds_rational_and_quadratic_parts():
    # (t - 2) * (3t + 1) * (2t^2 - 14t + 15), the quadratic's roots (7 +- sqrt(19))/2
    p = _zt_product((-2, 1), (1, 3), (15, -14, 2))
    roots, quadratics, notes = uni_factor_special(p)
    assert sorted(roots) == [Fraction(-1, 3), Fraction(2)]
    assert quadratics == [(15, -14, 2)]
    assert notes == []
    # the factor t is split off first: t * (t^2 - 2)
    assert uni_factor_special((0, -2, 0, 1)) == ([Fraction(0)], [(-2, 0, 1)], [])


def test_factor_special_reports_unfactored_residual():
    # t^4 + t + 1: no rational root, no quadratic factor
    assert uni_factor_special((1, 1, 0, 0, 1)) == ([], [], ["unresolved factor of degree 4"])
    # t^3 - 2: a cubic with no rational root is irreducible
    assert uni_factor_special((-2, 0, 0, 1)) == ([], [], ["unresolved factor of degree 3"])


_TOO_LARGE = [
    "rational-root search incomplete: coefficients too large",
    "quadratic-factor search incomplete: coefficients too large",
    "unresolved factor of degree 4",
]
_OVER_BUDGET = [
    "quadratic-factor search incomplete: candidate budget exceeded",
    "unresolved factor of degree 4",
]


@pytest.mark.parametrize(
    "p, notes",
    [
        ((10**12 + 1, 1, 0, 0, 1), _TOO_LARGE),  # a constant above the divisor limit
        ((1, 1, 0, 0, 10**12 + 1), _TOO_LARGE),  # a lead above it
        # 720720 has 240 divisors: more quadratic candidates than the budget
        ((720720, 1, 0, 0, 720720), _OVER_BUDGET),
    ],
    ids=["constant", "lead", "budget"],
)
def test_factor_special_notes_searches_cut_short(p, notes):
    assert uni_factor_special(p) == ([], [], notes)


_IRREDUCIBLE_QUADRATICS = tuple(
    (-disc, 0, 1) for disc in (-3, -1, 2, 3, 5, 19)  # t^2 - D, D no square
) + ((15, -14, 2),)  # 2t^2 - 14t + 15, discriminant 76


@settings(max_examples=80, deadline=None)
@given(
    st.sets(st.fractions(min_value=-6, max_value=6, max_denominator=4), max_size=4),
    st.sets(st.sampled_from(_IRREDUCIBLE_QUADRATICS), max_size=2),
)
def test_factor_special_recovers_built_factorizations(roots, quadratics):
    """A product of distinct rational linear factors and irreducible
    quadratics, square-free and primitive, factors back into exactly those
    roots and quadratics, each quadratic dividing the input with a
    non-square discriminant, and with no note."""
    linear = [(-r.numerator, r.denominator) for r in roots]  # q*t - a for a/q
    p = _zt_product(*linear, *quadratics)
    got_roots, got_quadratics, notes = uni_factor_special(p)
    assert sorted(got_roots) == sorted(roots)
    assert sorted(got_quadratics) == sorted(quadratics)
    for c, b, a in got_quadratics:
        disc = b * b - 4 * a * c
        assert disc < 0 or math.isqrt(disc) ** 2 != disc
        assert scanner._quotient(p, (c, b, a)) is not None
    assert notes == []


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


# ---------------------------------------------------------------------------
# the integer-numerator product against the pairwise product
# ---------------------------------------------------------------------------


def _pairwise_mul(a, b):
    """Reference product: one term pair at a time in the coefficients' own
    arithmetic, summed in a dict in first-seen order, zeros dropped."""
    out = {}
    get = out.get
    right = b.terms.items()
    for (a0, a1, a2, a3), c1 in a.terms.items():
        for (b0, b1, b2, b3), c2 in right:
            e = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
            acc = get(e)
            out[e] = c1 * c2 if acc is None else acc + c1 * c2
    return MultiPoly({e: c for e, c in out.items() if c})


_COEFF12 = st.fractions(min_value=-6, max_value=6, max_denominator=12)
_EXPS3 = st.tuples(*[st.integers(0, 3)] * 4)


@st.composite
def _mul_operand(draw):
    """A polynomial over Q or over one Q(sqrt(disc)); disc 12 is built
    directly, as ``QuadExt(p, q, 12)``, which folds its square part into q
    as ``quad`` does, so it is the field of disc 3."""
    disc = draw(st.sampled_from((2, 3, -5, 12)))
    if disc == 12:
        irrational = st.builds(lambda p, q: QuadExt(p, q, 12), _COEFF12, _COEFF12.filter(bool))
    else:
        irrational = st.builds(lambda p, q: quad(p, q, disc), _COEFF12, _COEFF12)
    coeff = draw(st.sampled_from((_COEFF12, st.one_of(_COEFF12, irrational))))
    return draw(st.builds(MultiPoly, st.dictionaries(_EXPS3, coeff, max_size=6)))


# each operand draws its own field, so two fields meet in some products
_mul_operands = st.tuples(_mul_operand(), _mul_operand())


@settings(max_examples=200, deadline=None)
@given(_mul_operands)
def test_product_equals_the_pairwise_product_in_value_and_order(operands):
    """Both orders of a Fraction and a QuadExt operand, an empty operand,
    and products whose cross terms cancel, as (a + b)(a - b) does.  Where
    the pairwise product refuses to mix two discs, the product raises its
    ValueError.  Operands over two fields that meet at one exponent have no
    sum to multiply."""
    a, b = operands
    zero = MultiPoly()
    pairs = [(a, b), (b, a), (a, -a), (a, zero), (zero, b)]
    try:
        pairs.append((a + b, a - b))
    except ValueError:
        pass
    for x, y in pairs:
        _assert_product_is_pairwise(x, y)


@settings(max_examples=100, deadline=None)
@given(_mul_operand(), _EXPS3, st.sampled_from((1, Fraction(-1), Fraction(2, 3), quad(1, 1, 2))))
def test_product_by_a_monomial_equals_the_pairwise_product_in_value_and_order(a, exps, c):
    """A monomial of coefficient 1, as d and l are in the oracle's actions,
    only shifts the other side's exponents; any other coefficient, a
    QuadExt among them, still goes through the pairwise loop."""
    mono = MultiPoly.monomial(exps, c)
    for x, y in ((a, mono), (mono, a), (mono, mono), (mono, MultiPoly())):
        _assert_product_is_pairwise(x, y)


def _assert_product_is_pairwise(x, y):
    """``x * y`` equals the reference product in value and term order, or
    raises the ValueError the reference raises."""
    try:
        want = _pairwise_mul(x, y)
    except ValueError as exc:
        with pytest.raises(ValueError) as got_exc:
            x * y
        assert str(got_exc.value) == str(exc)
        return
    got = x * y
    _assert_clean(got)
    assert got.terms == want.terms
    assert list(got.terms) == list(want.terms)


def test_product_normalises_a_square_part_of_disc_as_quad_does():
    a = MultiPoly({(1, 0, 0, 0): QuadExt(1, 1, 12), (0, 1, 0, 0): Fraction(1, 12)})
    b = MultiPoly({(0, 0, 0, 1): QuadExt(0, 1, 12), (1, 0, 0, 0): Fraction(-5, 6)})
    got = a * b
    assert got.terms == _pairwise_mul(a, b).terms
    assert got.terms[(1, 0, 0, 1)] == QuadExt(12, 2, 3)
    assert {c.disc for c in got.terms.values() if isinstance(c, QuadExt)} == {3}


def test_product_across_two_quadratic_fields_is_refused():
    a = MultiPoly({(1, 0, 0, 0): quad(0, 1, 2), (0, 0, 0, 0): Fraction(1)})
    b = MultiPoly({(0, 1, 0, 0): quad(1, 1, 3), (0, 0, 0, 1): Fraction(1, 2)})
    for x, y, message in (
        (a, b, "mixed quadratic fields: sqrt(2) vs sqrt(3)"),
        (b, a, "mixed quadratic fields: sqrt(3) vs sqrt(2)"),
    ):
        with pytest.raises(ValueError) as exc:
            x * y
        assert str(exc.value) == message
    # one polynomial over two fields meets no second field through Q
    mixed = a + MultiPoly({(0, 0, 1, 0): quad(0, 1, 3)})
    rational = MultiPoly({(0, 0, 0, 1): Fraction(2, 3), (0, 0, 0, 0): Fraction(1)})
    assert (mixed * rational).terms == _pairwise_mul(mixed, rational).terms


@pytest.mark.parametrize("bad", [0.5, True, "1"], ids=["float", "bool", "str"])
def test_constructor_refuses_a_coefficient_that_is_not_exact(bad):
    """A float is not kept as a coefficient, a bool is not read as 1 and a
    string is not stored; an int becomes the Fraction it equals."""
    for build in (lambda: MultiPoly({(1, 0, 0, 0): bad}), lambda: MultiPoly.const(bad)):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == (
            f"coefficient must be an int, a Fraction or a QuadExt, got {bad!r}"
        )
    assert type(MultiPoly({(1, 0, 0, 0): 2}).terms[(1, 0, 0, 0)]) is Fraction
