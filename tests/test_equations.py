"""Functional-equation assembly: unknown ordering and coefficient extraction."""

import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbext.equations import (
    Identity,
    _Affine,
    _Powers,
    assemble_linear_system,
    build_equations,
    build_equations_env,
    key_rank,
    template_point,
    unknown_basis,
)
from wbext.linalg import _Root, nullspace, rank
from wbext.poly import D, L, U, MultiPoly
from wbext.problems import SHAPE_WEIGHTS, Caps, ExtProblem
from wbext.qext import QuadExt, quad


def _constant_rows(rows) -> list[tuple]:
    """Sparse rows of constant ``MultiPoly`` values lowered to scalars: the
    reference lowering of a direct build at a concrete problem."""
    return [tuple([(c, e.constant_value()) for c, e in row]) for row in rows]


def test_unknown_basis_shape1_is_univariate():
    keys = unknown_basis(1, Caps(f=3, g=2, h=3, phi=3), "full")
    f_keys = [k for k in keys if k[0] == "f"]
    g_keys = [k for k in keys if k[0] == "g"]
    assert f_keys == [("f", 0, k) for k in (3, 2, 1, 0)]
    assert g_keys == [("g", 0, k) for k in (2, 1, 0)]
    assert keys == f_keys + g_keys  # f block strictly before g block


def test_unknown_basis_shape3_counts():
    caps = Caps(f=4, g=3, h=4, phi=4)
    keys = unknown_basis(3, caps, "full")
    f_keys = [k for k in keys if k[0] == "f"]
    g_keys = [k for k in keys if k[0] == "g"]
    # bivariate monomials of total degree <= cap
    assert len(f_keys) == 5 * 6 // 2
    assert len(g_keys) == 4 * 5 // 2
    assert not any(k[0] == "h" for k in keys)


def test_unknown_basis_shape2_has_h_block():
    keys = unknown_basis(2, Caps(f=2, g=2, h=2, phi=2), "full")
    h_keys = [k for k in keys if k[0] == "h"]
    assert h_keys == [("h", 2, 0), ("h", 1, 0), ("h", 0, 0)]
    assert keys.index(h_keys[0]) > keys.index(("g", 0, 0))


def test_unknown_basis_is_graded_lex_descending():
    keys = unknown_basis(3, Caps(f=2, g=2, h=2, phi=2), "f")
    degrees = [j + k for (_, j, k) in keys]
    assert degrees == sorted(degrees, reverse=True)
    assert keys[0] == ("f", 2, 0)
    assert keys[-1] == ("f", 0, 0)


@pytest.mark.parametrize("shape", [1, 2, 3])
@pytest.mark.parametrize("sector", ["full", "f", "g"])
def test_unknown_basis_counts_and_key_rank_order(shape, sector):
    caps = Caps(f=4, g=3, h=5, phi=4)
    keys = unknown_basis(shape, caps, sector)

    def monomials(cap):  # univariate in l for shape 1, else (d, l) of degree <= cap
        return cap + 1 if shape == 1 else (cap + 1) * (cap + 2) // 2

    expected = {
        "f": monomials(caps.f) if sector != "g" else 0,
        "g": monomials(caps.g) if sector != "f" else 0,
        "h": caps.h + 1 if shape == 2 and sector != "g" else 0,
    }
    assert {name: sum(k[0] == name for k in keys) for name in "fgh"} == expected
    assert len(set(keys)) == len(keys)
    assert keys == sorted(keys, key=key_rank)


def test_sector_restriction():
    caps = Caps(f=2, g=2, h=2, phi=2)
    assert all(k[0] == "g" for k in unknown_basis(3, caps, "g"))
    assert all(k[0] == "f" for k in unknown_basis(3, caps, "f"))


def test_assemble_rejects_undeclared_unknowns():
    ident = Identity(name="bad", cols={("f", 0, 0): MultiPoly.const(1)})
    with pytest.raises(ValueError):
        assemble_linear_system([ident], [("g", 0, 0)])


def test_assemble_row_per_monomial():
    ident = Identity(
        name="i", cols={("f", 0, 0): D + 2 * L, ("f", 0, 1): MultiPoly.const(3)}
    )
    system = assemble_linear_system([ident], [("f", 0, 1), ("f", 0, 0)])
    # one identity, so rows follow its monomials graded-lex descending: d, l, 1
    d_row, l_row, const_row = (dict(row) for row in system.rows)
    # monomial d: only the f00 column; monomial l: coefficient 2; constant: 3*f01
    assert d_row[1] == MultiPoly.const(1)
    assert l_row[1] == MultiPoly.const(2)
    assert const_row[0] == MultiPoly.const(3)


def test_shape1_zero_sum_system_has_known_kernel():
    # alpha + gamma = 0, delta = 2, b = 1: the classification gives two
    # independent cocycles before quotienting (f = l^2 line and g = const)
    p = ExtProblem(shape=1, b=1, alpha=0, gamma=0, delta=2)
    keys = unknown_basis(1, p.caps, p.sector)
    identities = build_equations_env(p.shape, p.env(), p.caps, p.sector)
    rows = _constant_rows(assemble_linear_system(identities, keys).rows)
    ncols = len(keys)
    kernel = nullspace(rows, ncols)
    assert len(kernel) == ncols - rank(rows)
    assert len(kernel) >= 2


def test_shape1_nonzero_sum_system_is_rigid():
    # alpha + gamma != 0 forces the trivial solution apart from coboundaries
    p = ExtProblem(shape=1, b=5, alpha=2, gamma=1, delta=4)
    keys = unknown_basis(1, p.caps, p.sector)
    system = assemble_linear_system(build_equations_env(p.shape, p.env(), p.caps, p.sector), keys)
    kernel = nullspace(_constant_rows(system.rows), len(keys))
    assert len(kernel) == 1  # exactly the coboundary direction


def test_redundant_identities_do_not_change_the_kernel():
    p = ExtProblem(shape=3, b=2, alpha=0, abar=0, delta=3, dbar=1,
                   caps=Caps(f=5, g=4, h=5, phi=5))
    keys = unknown_basis(3, p.caps, p.sector)
    identities = build_equations_env(p.shape, p.env(), p.caps, p.sector)
    assert "HL" in [ident.name for ident in identities]
    # the swapped H-L form is implied by the defining identities
    base = assemble_linear_system([i for i in identities if i.name != "HL"], keys)
    extra = assemble_linear_system(identities, keys)
    assert rank(_constant_rows(base.rows)) == rank(_constant_rows(extra.rows))
    assert len(extra.rows) > len(base.rows)


# ---------------------------------------------------------------------------
# the integer affine template: one symbolic build per (shape, caps, sector)
# ---------------------------------------------------------------------------

_RATIONAL = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def _weighted_problems(draw):
    """Problems over every shape and sector at small caps, with each weight
    rational or, about a third of the time, in one field Q(sqrt D)."""
    shape = draw(st.integers(1, 3))
    sector = draw(st.sampled_from(("full", "f", "g")))
    caps = draw(st.sampled_from((Caps(3, 2, 3, 3), Caps(2, 3, 4, 2))))
    disc = draw(st.sampled_from((2, 3, 5, 19)))

    def weight(nonzero=False):
        value = draw(_RATIONAL.filter(bool) if nonzero else _RATIONAL)
        if draw(st.integers(0, 2)) == 0:
            value = quad(value, draw(_RATIONAL.filter(bool)), disc)
        return value

    names = ("gamma", "delta") if shape in (1, 2) else ("abar", "delta", "dbar")
    weights = {name: weight() for name in ("alpha",) + names}
    return ExtProblem(shape=shape, b=weight(nonzero=True), caps=caps, sector=sector, **weights)


@lru_cache(maxsize=None)
def _template(shape, caps, sector):
    return assemble_linear_system(
        build_equations(shape, caps, sector), unknown_basis(shape, caps, sector)
    )


def _point_den(point) -> int:
    """The common denominator of a point's rational and irrational parts."""
    parts = [x for w in point for x in ((w.p, w.q) if isinstance(w, QuadExt) else (w,))]
    return math.lcm(*(x.denominator for x in parts))


def _over(num, den):
    """A numerator of :meth:`LinearSystem.concrete_rows` divided by ``den``."""
    if type(num) is _Root:
        return quad(Fraction(num.a, den), Fraction(num.b, den), num.disc)
    assert type(num) is int
    return Fraction(num, den)


@settings(max_examples=150, deadline=None)
@given(_weighted_problems())
def test_template_at_a_point_equals_the_direct_build_there(p):
    keys = unknown_basis(p.shape, p.caps, p.sector)
    direct = assemble_linear_system(build_equations_env(p.shape, p.env(), p.caps, p.sector), keys)
    point = template_point(p)
    rows = _template(p.shape, p.caps, p.sector).concrete_rows(point)
    # each entry is a numerator over the point's common denominator: an
    # integer at a rational point, an a + b*sqrt(D) numerator where the
    # irrational part survives at a Q(sqrt D) point
    if not any(isinstance(w, QuadExt) for w in point):
        assert all(type(v) is int for row in rows for _c, v in row)
    den = _point_den(point)
    rows = [tuple([(c, _over(v, den)) for c, v in row]) for row in rows]
    # value for value, Fraction against QuadExt included, and row for row
    assert rows == _constant_rows(direct.rows)


def test_concrete_rows_refuses_weights_in_two_quadratic_fields():
    caps = Caps(3, 2, 3, 3)
    template = _template(3, caps, "full")
    # (b, alpha, abar, delta, dbar) with delta = sqrt(2) and dbar = sqrt(3)
    with pytest.raises(ValueError, match=r"mixed quadratic fields: sqrt\(2\) vs sqrt\(3\)"):
        template.concrete_rows((Fraction(1), Fraction(0), Fraction(0), quad(0, 1, 2), quad(0, 1, 3)))
    # one field is fine, and an irrational entry arrives as a numerator
    rows = template.concrete_rows((Fraction(1), Fraction(0), Fraction(0), quad(0, 1, 2), quad(1, 1, 2)))
    assert any(type(v) is _Root and v.disc == 2 for row in rows for _c, v in row)


def test_template_values_are_integer_tuples_over_the_weights():
    caps = Caps(3, 2, 3, 3)
    for shape in (1, 2, 3):
        width = 2 + len(SHAPE_WEIGHTS[shape])  # c0, then b and the shape's weights
        for sector in ("full", "f", "g"):
            values = [v for row in _template(shape, caps, sector).rows for _c, v in row]
            assert values and all(len(v) == width for v in values)
            assert all(type(c) is int for v in values for c in v)
            assert all(any(v) for v in values)


def test_weight_symbols_refuse_a_product_of_two_weights():
    alpha, delta = _Affine.symbol(0, 2), _Affine.symbol(1, 2)
    form = (D + alpha + delta * L) * (D - L) - 3 * alpha
    # d^2 - d*l + alpha*(d - l - 3) + delta*(d*l - l^2), as (c0, c_alpha, c_delta)
    assert dict(form.coeffs_by(("d", "l", "u"))) == {
        (2, 0, 0): (1, 0, 0),
        (1, 1, 0): (-1, 0, 1),
        (1, 0, 0): (0, 1, 0),
        (0, 1, 0): (0, -1, 0),
        (0, 0, 0): (0, -3, 0),
        (0, 2, 0): (0, 0, -1),
    }
    # a witness part, free of u, groups by (d, l) alone
    assert dict((alpha * D + L).coeffs_by(("d", "l"))) == {(1, 0): (0, 1, 0), (0, 1): (1, 0, 0)}
    with pytest.raises(ValueError):
        (alpha * U).coeffs_by(("d", "l"))
    with pytest.raises(TypeError):
        alpha * delta
    with pytest.raises(TypeError):
        (D + alpha) * (L - delta)


def test_slot_powers_are_the_powers_of_their_base():
    # the templates and the direct builds both read these lists, so only a
    # check against ``MultiPoly.__pow__`` catches a wrong power
    bases = {"d": D, "l": L, "u": U, "dl": D + L, "du": D + U, "lu": L + U}
    for cap in range(11):
        pw = _Powers(cap)
        for name, base in bases.items():
            powers = getattr(pw, name)
            assert len(powers) == cap + 2
            for j, power in enumerate(powers):
                assert power == base**j, (cap, name, j)
