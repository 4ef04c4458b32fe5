"""Functional-equation assembly: unknown ordering and coefficient extraction."""

from fractions import Fraction

import pytest

from wbext.equations import (
    Identity,
    assemble_linear_system,
    build_equations,
    key_rank,
    unknown_basis,
)
from wbext.linalg import nullspace, rank
from wbext.poly import D, L, MultiPoly
from wbext.problems import Caps, ExtProblem


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
    rows = assemble_linear_system(build_equations(p), keys).concrete_rows()
    ncols = len(keys)
    kernel = nullspace(rows, ncols)
    assert len(kernel) == ncols - rank(rows)
    assert len(kernel) >= 2


def test_shape1_nonzero_sum_system_is_rigid():
    # alpha + gamma != 0 forces the trivial solution apart from coboundaries
    p = ExtProblem(shape=1, b=5, alpha=2, gamma=1, delta=4)
    keys = unknown_basis(1, p.caps, p.sector)
    system = assemble_linear_system(build_equations(p), keys)
    kernel = nullspace(system.concrete_rows(), len(keys))
    assert len(kernel) == 1  # exactly the coboundary direction


def test_redundant_identities_do_not_change_the_kernel():
    p = ExtProblem(shape=3, b=2, alpha=0, abar=0, delta=3, dbar=1,
                   caps=Caps(f=5, g=4, h=5, phi=5))
    keys = unknown_basis(3, p.caps, p.sector)
    identities = build_equations(p)
    assert "HL" in [ident.name for ident in identities]
    # the swapped H-L form is implied by the defining identities
    base = assemble_linear_system([i for i in identities if i.name != "HL"], keys)
    extra = assemble_linear_system(identities, keys)
    assert rank(base.concrete_rows()) == rank(extra.concrete_rows())
    assert len(extra.rows) > len(base.rows)
