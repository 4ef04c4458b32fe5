"""Exact elimination: RREF, rank, nullspace, and the incremental row space.

The kernel reads and writes sparse ``(column, value)`` rows; these tests
write their matrices densely and convert at the boundary.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbext.linalg import RowSpace, _Root, nullspace, rank, rref
from wbext.qext import QuadExt, quad


def F(*vals):
    return [Fraction(v) for v in vals]


def _sparse(row) -> tuple:
    return tuple((c, v) for c, v in enumerate(row) if v)


def _sparse_rows(rows) -> list:
    return [_sparse(r) for r in rows]


def _dense(row, ncols: int) -> list:
    out = [Fraction(0)] * ncols
    for c, v in row:
        out[c] = v
    return out


def test_rref_identity_like():
    rows, pivots = rref(_sparse_rows([F(2, 0), F(0, 3)]))
    assert pivots == [0, 1]
    assert [_dense(r, 2) for r in rows] == [F(1, 0), F(0, 1)]


def test_rref_drops_zero_and_dependent_rows():
    rows, pivots = rref(_sparse_rows([F(1, 2, 3), F(2, 4, 6), F(0, 0, 0)]))
    assert pivots == [0]
    assert [_dense(r, 3) for r in rows] == [F(1, 2, 3)]


def test_rank_of_singular_system():
    assert rank(_sparse_rows([F(1, 1), F(1, 1)])) == 1
    assert rank([]) == 0


def test_nullspace_annihilates_rows():
    rows = [F(1, 2, 0, -1), F(0, 1, 1, 1)]
    basis = [_dense(v, 4) for v in nullspace(_sparse_rows(rows), 4)]
    assert len(basis) == 2
    for vec in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


def test_nullspace_vectors_are_lead_normalized():
    basis = [_dense(v, 2) for v in nullspace(_sparse_rows([F(1, 2)]), 2)]
    assert len(basis) == 1
    lead = next(c for c in basis[0] if c != 0)
    assert lead == 1


def test_reduce_mod_rowspace_zeroes_pivot_columns():
    rs = RowSpace()
    rs.add(_sparse(F(1, 0, 2)))
    rs.add(_sparse(F(0, 1, -1)))
    red = _dense(rs.reduce(_sparse(F(3, 4, 0))), 3)
    assert red[0] == 0 and red[1] == 0
    assert red[2] == -3 * 2 - 4 * (-1) + 0


def test_rowspace_tracks_dimension():
    rs = RowSpace()
    assert rs.add(_sparse(F(1, 1, 0)))
    assert not rs.add(_sparse(F(2, 2, 0)))  # dependent
    assert rs.add(_sparse(F(0, 0, 1)))
    assert rs.dim() == 2
    assert not rs.reduce(_sparse(F(3, 3, 5)))
    assert rs.reduce(_sparse(F(1, 0, 0)))


def test_rank_matches_rowspace_random():
    rng = random.Random(20240813)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = _sparse_rows(
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
            for _ in range(nrows)
        )
        rs = RowSpace()
        for row in rows:
            rs.add(row)
        assert rs.dim() == rank(rows)
        # rank-nullity: every nullspace vector is annihilated and counts add up
        null = nullspace(rows, ncols)
        assert len(null) + rank(rows) == ncols


def test_elimination_over_quadratic_field():
    r19 = quad(0, 1, 19)
    rows = _sparse_rows([[r19, Fraction(19)], [Fraction(1), r19]])  # second = first / sqrt(19)
    assert rank(rows) == 1
    basis = nullspace(rows, 2)
    assert len(basis) == 1
    vec = _dense(basis[0], 2)
    assert r19 * vec[0] + 19 * vec[1] == 0


def test_one_row_space_holds_one_quadratic_field():
    rs = RowSpace()
    rs.add(((0, quad(0, 1, 2)),))
    with pytest.raises(ValueError, match="mixed quadratic fields"):
        rs.add(((1, quad(0, 1, 3)),))


def test_rref_deterministic():
    rows = _sparse_rows([F(0, 2, 1), F(1, 1, 1), F(1, 3, 2)])
    first = rref(rows)
    second = rref(rows)
    assert first == second


# ---------------------------------------------------------------------------
# property tests against a dense Gauss-Jordan reference
# ---------------------------------------------------------------------------


def _reference_rref(rows, ncols):
    """Textbook dense Gauss-Jordan: leftmost column, first remaining row."""
    work = [list(r) for r in rows]
    done, pivots = [], []
    for col in range(ncols):
        i = next((i for i, r in enumerate(work) if r[col] != 0), None)
        if i is None:
            continue
        prow = work.pop(i)
        prow = [x / prow[col] for x in prow]
        work = [[a - r[col] * b for a, b in zip(r, prow)] for r in work]
        done = [[a - r[col] * b for a, b in zip(r, prow)] for r in done]
        done.append(prow)
        pivots.append(col)
    return done, pivots


_SMALL = st.fractions(min_value=-5, max_value=5, max_denominator=4)
# mostly zeros, like the solver's systems
_RATIONAL = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), _SMALL)
_QUADRATIC = st.one_of(
    _RATIONAL, st.builds(lambda p, q: quad(p, q, 19), _SMALL, _SMALL)
)


@st.composite
def _matrices(draw, entries, max_size=6):
    ncols = draw(st.integers(1, max_size))
    nrows = draw(st.integers(0, max_size))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    # repeat some rows as combinations of others so dependence is common
    if len(rows) >= 2 and draw(st.booleans()):
        c = draw(_SMALL)
        rows.append([a + c * b for a, b in zip(rows[0], rows[1])])
    vec = draw(st.lists(entries, min_size=ncols, max_size=ncols))
    return rows, ncols, vec


def _exact(row) -> list:
    """A dense row with bare ints read as ``Fraction``, for the reference."""
    return [Fraction(v) if type(v) is int else v for v in row]


def _check_kernel(rows, ncols, vec):
    sparse = _sparse_rows(rows)
    exact, exact_vec = [_exact(r) for r in rows], _exact(vec)
    rr, pivots = rref(sparse)
    null = nullspace(sparse, ncols)
    rs = RowSpace()
    for row in sparse:
        rs.add(row)
    residue = rs.reduce(_sparse(vec))
    # the solver's witnesses and their rendered bytes are built from these
    # values, whatever the input types were
    for out in (rr, null, rs.rows, [residue]):
        assert all(type(v) in (Fraction, QuadExt) for r in out for _c, v in r)
    rr = [_dense(r, ncols) for r in rr]
    assert (rr, pivots) == _reference_rref(exact, ncols)
    null = [_dense(v, ncols) for v in null]
    for v in null:
        assert next(c for c in v if c != 0) == 1
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0
    assert rank(sparse) + len(null) == ncols
    # the canonical basis: e_fc minus the RREF column, lead scaled to 1
    reference = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, p in zip(rr, pivots):
            v[p] = -r[fc]
        lead = next(c for c in v if c != 0)
        reference.append([c / lead for c in v])
    assert null == reference
    assert ([_dense(r, ncols) for r in rs.rows], rs.pivots) == (rr, pivots)
    # the residue is the unique vector that is zero at every pivot column
    # and differs from ``vec`` by an element of the row span
    residue = _dense(residue, ncols)
    assert all(residue[p] == 0 for p in pivots)
    moved = [a - b for a, b in zip(exact_vec, residue)]
    assert len(_reference_rref(rr + [moved], ncols)[1]) == len(pivots)
    in_span = len(_reference_rref(exact + [exact_vec], ncols)[1]) == len(pivots)
    assert (not any(residue)) == in_span


@settings(max_examples=200, deadline=None)
@given(_matrices(_RATIONAL), st.randoms(use_true_random=False))
def test_kernel_matches_dense_reference_rational(case, rng):
    rows, ncols, vec = case
    _check_kernel(rows, ncols, vec)
    # the RREF is unique, so row order cannot change it
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert rref(_sparse_rows(shuffled)) == rref(_sparse_rows(rows))


@settings(max_examples=100, deadline=None)
@given(_matrices(_QUADRATIC))
def test_kernel_matches_dense_reference_quadratic(case):
    _check_kernel(*case)


# bare ints, large numerators and denominators, and ints mixed with
# Fractions in one row; up to 12 columns, so that back-substitution reaches
# several pivot rows and the gcd step has content to divide out
_LARGE = st.one_of(
    st.just(0),
    st.just(0),
    st.just(0),
    st.integers(-9, 9),
    st.integers(-(10**9), 10**9),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
)


@settings(max_examples=150, deadline=None)
@given(_matrices(_LARGE, max_size=12))
def test_kernel_matches_dense_reference_on_ints_and_large_values(case):
    _check_kernel(*case)


@settings(max_examples=100, deadline=None)
@given(_matrices(st.integers(-3, 3), max_size=12))
def test_kernel_matches_dense_reference_on_bare_ints(case):
    _check_kernel(*case)


_QUADRATIC_LARGE = st.one_of(_LARGE, st.builds(lambda p, q: quad(p, q, 19), _LARGE, _LARGE))


@settings(max_examples=60, deadline=None)
@given(_matrices(_QUADRATIC_LARGE, max_size=12))
def test_kernel_matches_dense_reference_quadratic_large(case):
    _check_kernel(*case)


# ---------------------------------------------------------------------------
# Z[sqrt D] numerators over a left-out denominator, as concrete_rows hands them
# ---------------------------------------------------------------------------


def _common_den(rows) -> int:
    parts = [x for row in rows for v in row
             for x in ((v.p, v.q) if type(v) is QuadExt else (Fraction(v),))]
    return math.lcm(1, *(x.denominator for x in parts))


def _numerators(row, den) -> tuple:
    """A sparse row times ``den``, each value an ``int`` or a ``_Root``."""
    out = []
    for c, v in row:
        if type(v) is QuadExt:
            out.append((c, _Root(int(v.p * den), int(v.q * den), v.disc)))
        else:
            out.append((c, int(Fraction(v) * den)))
    return tuple(out)


@settings(max_examples=100, deadline=None)
@given(_matrices(_QUADRATIC_LARGE, max_size=10))
def test_kernel_reads_root_numerators_as_the_values_they_stand_for(case):
    rows, ncols, vec = case
    sparse = _sparse_rows(rows)
    den = _common_den(rows)
    roots = [_numerators(row, den) for row in sparse]
    assert rref(roots) == rref(sparse)
    assert nullspace(roots, ncols) == nullspace(sparse, ncols)
    by_value, by_root = RowSpace(), RowSpace()
    for a, b in zip(sparse, roots):
        assert by_value.add(a) == by_root.add(b)
    assert by_root.rows == by_value.rows
    residue = by_value.reduce(_sparse(vec))
    assert by_root.reduce(_sparse(vec)) == residue
    # a vector of numerators reduces to its residue times its denominator
    vden = _common_den([vec])
    assert by_value.reduce(_numerators(_sparse(vec), vden)) == tuple(
        [(c, v * vden) for c, v in residue]
    )


def _root_value(v):
    return quad(v.a, v.b, v.disc) if type(v) is _Root else Fraction(v)


_NONZERO = st.integers(-(10**6), 10**6).filter(bool)


@settings(max_examples=200, deadline=None)
@given(st.integers(-(10**6), 10**6), _NONZERO, st.integers(-(10**6), 10**6), _NONZERO)
def test_root_addition_agrees_with_quadext(a, b, c, d):
    x, y = _Root(a, b, 19), _Root(c, d, 19)
    assert _root_value(x + y) == quad(a, b, 19) + quad(c, d, 19)
    assert _root_value(x + c) == _root_value(c + x) == quad(a, b, 19) + c
    # ``sum`` starts from the int 0, as the solver's self-check does
    assert _root_value(sum([x, c, y])) == quad(a, b, 19) + c + quad(c, d, 19)
    # the irrational part cancels to an int, which alone can equal 0
    assert x + _Root(-a, -b, 19) == 0
    assert type(x + _Root(c, -b, 19)) is int
