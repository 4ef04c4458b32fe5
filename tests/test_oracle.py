"""Independent checker: witness verification and brute-force dimensions."""

import ast
import sys
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbext import oracle
from wbext.engine import solve_ext
from wbext.linalg import rank
from wbext.oracle import _rank, brute_dims, verify_witness
from wbext.poly import MultiPoly
from wbext.problems import Caps, CocycleWitness, ExtProblem
from wbext.qext import quad


def _w(f="0", g="0", h=None):
    return CocycleWitness(
        f=MultiPoly.parse(f),
        g=MultiPoly.parse(g),
        h=None if h is None else MultiPoly.parse(h),
    )


def test_oracle_imports_only_the_stdlib_poly_and_problems():
    """The oracle's independence is its point: it may use raw polynomial
    arithmetic and the problem types, but no solver code."""
    with open(oracle.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    package = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative: names inside the package
                package.extend([node.module] if node.module else [a.name for a in node.names])
                continue
            names = [node.module]
        else:
            continue
        for name in names:
            assert name.split(".")[0] in sys.stdlib_module_names, name
    # in particular nothing from linalg, engine, equations or scanner
    assert set(package) <= {"poly", "problems"}, package


def test_known_witness_passes():
    p = ExtProblem(shape=1, b=1, alpha=0, gamma=0, delta=1)
    report = verify_witness(p, _w(f="l^2", g="0"))
    assert report.passed
    assert not report.violations


def test_constant_g_witness_passes():
    p = ExtProblem(shape=1, b=1, alpha=0, gamma=0, delta=1)
    assert verify_witness(p, _w(f="0", g="1")).passed


def test_tampered_witness_fails_with_residual():
    p = ExtProblem(shape=1, b=1, alpha=0, gamma=0, delta=1)
    report = verify_witness(p, _w(f="l^2 + l^3", g="0"))
    assert not report.passed
    assert report.violations
    # every violated identity carries a nonzero residual pair
    for label in report.violations:
        top, sub = report.residuals[label]
        assert not (top.is_zero() and sub.is_zero())
    assert "FAILS" in str(report)


def test_shape2_witness():
    p = ExtProblem(shape=2, b=3, alpha=1, gamma=-1, delta=1)
    assert verify_witness(p, _w(f="1", g="0", h="1")).passed
    assert not verify_witness(p, _w(f="1", g="0", h="d")).passed


def test_shape3_quadratic_coefficient_law():
    # degree-2 second-generator family pinned at (delta, dbar) = (1, -4), b = 3
    p = ExtProblem(shape=3, b=3, alpha=0, abar=0, delta=1, dbar=-4)
    assert verify_witness(p, _w(g="d^2 + 7/3*d*l + 4/3*l^2")).passed
    assert not verify_witness(p, _w(g="d^2 + 2*d*l + 4/3*l^2")).passed


def test_witness_in_u_or_t_is_rejected():
    # a witness is a polynomial in d and l; u is the second bracket slot and
    # t the scan variable, and neither belongs in a concrete problem's witness
    p = ExtProblem(shape=3, b=2, alpha=0, abar=0, delta=3, dbar=1)
    for w, var in ((_w(g="u"), "u"), (_w(g="t"), "t"), (_w(f="t*l"), "t")):
        with pytest.raises(ValueError, match=f"uses {var}"):
            verify_witness(p, w)


def test_zero_witness_always_passes():
    p = ExtProblem(shape=3, b=2, alpha=0, abar=0, delta=3, dbar=1)
    assert verify_witness(p, _w()).passed


def test_brute_dims_match_engine_on_sample():
    cases = [
        ExtProblem(shape=1, b=1, alpha=0, gamma=0, delta=1),
        ExtProblem(shape=1, b=5, alpha=2, gamma=1, delta=4),
        ExtProblem(shape=2, b=3, alpha=1, gamma=-1, delta=1),
        ExtProblem(shape=3, b=1, alpha=0, abar=0, delta=3, dbar=1),
        ExtProblem(shape=3, b=Fraction(-2, 3), alpha=0, abar=0,
                   delta=Fraction(5, 3), dbar=Fraction(-2, 3)),
    ]
    for p in cases:
        sol = solve_ext(p)
        cocycle, coboundary, ext = brute_dims(p)
        assert (cocycle, coboundary, ext) == (
            sol.cocycle_dim,
            sol.coboundary_dim,
            sol.ext_dim,
        ), f"oracle disagrees on {p}"


def test_brute_dims_virasoro_sector():
    p = ExtProblem(shape=3, b=None, sector="f", alpha=0, abar=0, delta=3, dbar=3)
    sol = solve_ext(p)
    assert brute_dims(p)[2] == sol.ext_dim == 2


# ---------------------------------------------------------------------------
# property tests: the oracle's own elimination, and the oracle against the
# solver on random problems
# ---------------------------------------------------------------------------

_SMALL = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def _sparse_matrices(draw):
    """Mostly-zero matrices over Q or one Q(sqrt(D)), with zero rows and
    columns and repeated, negated and summed rows, so that elimination
    cancels entries to zero part-way through."""
    disc = draw(st.sampled_from((None, 2, 19)))
    scalar = _SMALL
    if disc is not None:
        scalar = st.one_of(_SMALL, st.builds(lambda p, q: quad(p, q, disc), _SMALL, _SMALL))
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), st.just(Fraction(0)), scalar)
    ncols = draw(st.integers(1, 8))
    nrows = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if draw(st.booleans()):
        col = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[col] = Fraction(0)
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * ncols)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        sign = draw(st.sampled_from((1, -1)))
        new = [sign * a for a in rows[i]] if draw(st.booleans()) else [
            a + sign * b for a, b in zip(rows[i], rows[j])
        ]
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(_sparse_matrices())
def test_oracle_rank_matches_linalg_and_transpose(case):
    rows, _ncols = case
    before = [list(r) for r in rows]
    r = _rank(rows)
    assert rows == before  # the input rows are not eliminated in place
    assert r == rank([tuple((c, v) for c, v in enumerate(row) if v) for row in rows])
    assert r == _rank([list(col) for col in zip(*rows)])


def _weight(draw, disc):
    """A rational weight or, about half the time, one in Q(sqrt(disc))."""
    if draw(st.booleans()):
        return quad(draw(_SMALL), draw(st.sampled_from((1, -1, Fraction(1, 2)))), disc)
    return draw(_SMALL)


@st.composite
def _problems(draw):
    """Small-cap problems over every shape and sector.  "live" draws sit on
    the loci where the extension space is non-zero (as criterion 9 draws
    them), the rest draw every weight freely; some weights are quadratic."""
    shape = draw(st.integers(1, 3))
    sector = draw(st.sampled_from(("full", "f", "g")))
    live = draw(st.booleans())
    disc = draw(st.sampled_from((2, 5)))
    b = draw(_SMALL.filter(bool))
    alpha = draw(_SMALL)
    caps = Caps(3, 2, 3, 3)
    if shape in (1, 2):
        if live:
            gamma, delta = -alpha, draw(st.sampled_from((Fraction(1), Fraction(2), b)))
        else:
            gamma, delta = draw(_SMALL), _weight(draw, disc)
        return ExtProblem(shape=shape, b=b, alpha=alpha, gamma=gamma, delta=delta,
                          caps=caps, sector=sector)
    dbar = _weight(draw, disc)
    delta = dbar + draw(st.integers(0, 2)) + b if live else _weight(draw, disc)
    abar = alpha if live else draw(_SMALL)
    return ExtProblem(shape=3, b=b, alpha=alpha, abar=abar, delta=delta, dbar=dbar,
                      caps=caps, sector=sector)


@settings(max_examples=40, deadline=None)
@given(_problems())
def test_solver_matches_brute_dims_on_random_problems(p):
    sol = solve_ext(p)
    assert (sol.cocycle_dim, sol.coboundary_dim, sol.ext_dim) == brute_dims(p)
    for w in sol.basis:
        assert verify_witness(p, w).passed


# ---------------------------------------------------------------------------
# the memo a brute_dims call shares between its unit witnesses
# ---------------------------------------------------------------------------


class _Forgetful(dict):
    """A memo that keeps nothing, so every lookup misses and every piece of
    the action is computed afresh, as it was before the memo."""

    def __setitem__(self, key, value):
        pass


_REAL_COLUMN = oracle._residual_column


def _unshared_column(shape, env, w, memo):
    """brute_dims's column, with the call's memo replaced by a forgetful one."""
    return _REAL_COLUMN(shape, env, w, _Forgetful())


def _unit_witnesses(p):
    return [
        oracle._unit_witness(p.shape, part, j, k)
        for part in oracle._sector_parts(p.shape, p.sector)
        for j, k in oracle._monomials(p.shape, part, p.caps)
    ]


@settings(max_examples=25, deadline=None)
@given(_problems(), st.randoms(use_true_random=False))
def test_shared_memo_gives_each_unit_witness_its_own_column(p, rnd):
    env = p.env()
    witnesses = _unit_witnesses(p)
    rnd.shuffle(witnesses)
    memo = {}
    for w in witnesses:
        shared = oracle._residual_column(p.shape, env, w, memo)
        assert shared == oracle._residual_column(p.shape, env, w, _Forgetful()), w


@settings(max_examples=20, deadline=None)
@given(_problems(), _SMALL.filter(bool))
def test_brute_dims_leaves_nothing_for_the_next_call(p2, step):
    p1 = replace(p2, delta=p2.delta + step)
    with mock.patch.object(oracle, "_residual_column", _unshared_column):
        alone = [brute_dims(p1), brute_dims(p2)]
    assert [brute_dims(p1), brute_dims(p2)] == alone
