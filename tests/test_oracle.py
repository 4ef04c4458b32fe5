"""Independent checker: witness verification and brute-force dimensions."""

import ast
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbext import oracle, scanner
from wbext.engine import coboundary_span_env, solve_ext, witness_coeff_map
from wbext.equations import unknown_basis
from wbext.linalg import rank
from wbext.oracle import _rank, brute_dims, independent_mod_coboundaries, verify_witness
from wbext.poly import D, L, MultiPoly, U
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
    # and only public polynomial arithmetic: no underscore attribute of a
    # name taken from poly, such as MultiPoly._clean
    poly_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and node.module == "poly"
        for alias in node.names
    }
    private = [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in poly_names
        and node.attr.startswith("_")
    ]
    assert private == [], private


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


@pytest.mark.parametrize(
    ("p", "w", "calls"),
    [
        (ExtProblem(shape=1, b=1, alpha=0, gamma=0, delta=1), _w(f="l^2"), 32),
        (ExtProblem(shape=2, b=3, alpha=1, gamma=-1, delta=1), _w(f="1", h="1"), 32),
        (ExtProblem(shape=3, b=3, alpha=0, abar=0, delta=1, dbar=-4), _w(g="d + l"), 32),
        (ExtProblem(shape=3, b=None, sector="f", alpha=0, abar=0, delta=1, dbar=-4), _w(f="l"), 12),
    ],
)
def test_verify_witness_applies_each_action_once(monkeypatch, p, w, calls):
    """Per generator element, each generator's first action at each slot is
    computed once and reused: with L and H that is 6 first and 10 second
    actions, 16 per element, and with L alone 3 and 3."""
    count = 0
    apply_gen = oracle._Model.apply_gen

    def counted(self, *args):
        nonlocal count
        count += 1
        return apply_gen(self, *args)

    monkeypatch.setattr(oracle._Model, "apply_gen", counted)
    verify_witness(p, w)
    assert count == calls


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


def _sparse(rows):
    """Dense rows as the ``{column: value}`` rows ``_rank`` takes."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


@settings(max_examples=200, deadline=None)
@given(_sparse_matrices())
def test_oracle_rank_matches_linalg_and_transpose(case):
    rows, _ncols = case
    sparse = _sparse(rows)
    before = [dict(r) for r in sparse]
    r = _rank(sparse)
    assert sparse == before  # the input rows are not eliminated in place
    assert r == rank([tuple((c, v) for c, v in enumerate(row) if v) for row in rows])
    assert r == _rank(_sparse(zip(*rows)))


_BIG = st.builds(Fraction, st.integers(-(2**64), 2**64), st.integers(1, 10**6))


@st.composite
def _large_dependent_matrices(draw):
    """Up to 14 rows with entries up to about 2^64 over 10^6: independent
    rational rows, then combinations of several of them, which cancel only
    after one pivot per row combined, all in shuffled order.  The combining
    coefficients are rational or, in Q(sqrt(2)) and Q(sqrt(19)), quadratic,
    which mixes ``Fraction`` and ``QuadExt`` rows in one matrix."""
    disc = draw(st.sampled_from((None, 2, 19)))
    ncols = draw(st.integers(1, 9))
    entry = st.one_of(st.just(Fraction(0)), _BIG)
    base = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=7))
    coeff = _BIG.filter(bool)
    if disc is not None:
        coeff = st.one_of(coeff, st.builds(lambda p, q: quad(p, q, disc), _BIG, coeff))
    rows = [list(r) for r in base]
    for _ in range(draw(st.integers(0, 14 - len(base)))):
        picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=2, max_size=5))
        coeffs = draw(st.lists(coeff, min_size=len(picks), max_size=len(picks)))
        rows.append([
            sum((c * base[i][j] for c, i in zip(coeffs, picks)), Fraction(0))
            for j in range(ncols)
        ])
    return draw(st.permutations(rows)), base


@settings(max_examples=120, deadline=None)
@given(_large_dependent_matrices())
def test_oracle_rank_at_scale_matches_linalg_and_transpose(case):
    rows, base = case
    sparse = _sparse(rows)
    before = [dict(r) for r in sparse]
    r = _rank(sparse)
    assert sparse == before  # the input rows are not eliminated in place
    assert r == rank([tuple((c, v) for c, v in enumerate(row) if v) for row in rows])
    assert r == _rank(_sparse(zip(*rows)))
    # the combinations lie in the span of the rational rows, over any field
    assert r == _rank(_sparse(base))


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


@settings(max_examples=40, deadline=None)
@given(_problems(), st.data())
def test_independent_mod_coboundaries_accepts_a_basis_and_no_more(p, data):
    """The check behind ``wbext verify``: the solver's basis is independent
    modulo the capped coboundaries, and is not with a copy of one of its
    witnesses added, nor, where the sector has basis changes, with a
    non-zero basis-change image inside the caps added."""
    basis = solve_ext(p).basis
    assert independent_mod_coboundaries(p, basis)
    if basis:
        copy = data.draw(st.sampled_from(basis))
        assert not independent_mod_coboundaries(p, [*basis, copy])
    if p.sector != "g":
        keys = set(unknown_basis(p.shape, p.caps, p.sector))
        inside = [
            w for w in coboundary_span_env(p.shape, p.env(), p.caps.phi)
            if witness_coeff_map(w).keys() <= keys
        ]
        # shape 1's one image is zero where alpha + gamma = delta = 0
        assert inside or (p.shape == 1 and p.alpha + p.gamma == p.delta == 0)
        if inside:
            image = data.draw(st.sampled_from(inside))
            assert not independent_mod_coboundaries(p, [*basis, image])


@settings(max_examples=20, deadline=None)
@given(_problems(), _SMALL.filter(bool))
def test_brute_dims_leaves_nothing_for_the_next_call(p2, step):
    p1 = replace(p2, delta=p2.delta + step)
    namespace = dict(vars(oracle))
    alone = brute_dims(p2)
    assert [brute_dims(p1), brute_dims(p2)] == [brute_dims(p1), alone]
    # no module-level name was rebound or added, so no cache outlives a call
    assert vars(oracle).keys() == namespace.keys()
    assert all(vars(oracle)[name] is value for name, value in namespace.items())


# ---------------------------------------------------------------------------
# the residuals against the oracle's action composed literally from scratch
# ---------------------------------------------------------------------------


class _LiteralModel:
    """Reference: the oracle's six identities composed from scratch, with
    every shift, product, substitution and right-hand side computed afresh
    on every use and nothing remembered between them."""

    def __init__(self, shape, env, w):
        self.shape = shape
        self.alpha = env["alpha"]
        self.b = env.get("b")
        self.gamma = env.get("gamma")
        self.abar = env.get("abar")
        self.delta = env["delta"]
        self.dbar = env.get("dbar")
        self.f = w.f
        self.g = w.g
        self.h = w.h if w.h is not None else MultiPoly.zero()

    def apply_d(self, elem):
        top, sub = elem
        if self.shape == 1:
            return (D * top, self.gamma * sub)
        if self.shape == 2:
            return (self.gamma * top, top * self.h + D * sub)
        return (D * top, D * sub)

    def apply_gen(self, gen, slot, elem):
        top, sub = elem
        fs, gs = self.f.subst("l", slot), self.g.subst("l", slot)
        quot = D + self.alpha + self.delta * slot
        if self.shape == 1:
            shifted = top.shift("d", slot)
            new_top = shifted * quot if gen == "L" else MultiPoly.zero()
            new_sub = (shifted * (fs if gen == "L" else gs)).subst("d", self.gamma)
            return (new_top, new_sub)
        if self.shape == 2:
            if gen == "L":
                new_sub = top * fs + sub.shift("d", slot) * quot
            else:
                new_sub = top * gs
            return (MultiPoly.zero(), new_sub)
        shifted = top.shift("d", slot)
        if gen == "L":
            sub_act = D + self.abar + self.dbar * slot
            return (shifted * quot, shifted * fs + sub.shift("d", slot) * sub_act)
        return (MultiPoly.zero(), shifted * gs)

    @staticmethod
    def _sub(e1, e2):
        return (e1[0] - e2[0], e1[1] - e2[1])

    @staticmethod
    def _scale(c, e):
        return (c * e[0], c * e[1])

    def commutator_residual(self, a, bgen, elem):
        e1 = self.apply_gen(a, L, self.apply_gen(bgen, U, elem))
        e2 = self.apply_gen(bgen, U, self.apply_gen(a, L, elem))
        comm = self._sub(e1, e2)
        if a == "L" and bgen == "L":
            rhs = self._scale(L - U, self.apply_gen("L", L + U, elem))
        elif a == "L" and bgen == "H":
            rhs = self._scale(-(self.b * L + U), self.apply_gen("H", L + U, elem))
        elif a == "H" and bgen == "L":
            rhs = self._scale(L + self.b * U, self.apply_gen("H", L + U, elem))
        else:
            rhs = (MultiPoly.zero(), MultiPoly.zero())
        return self._sub(comm, rhs)

    def translation_residual(self, a, elem):
        e1 = self.apply_d(self.apply_gen(a, L, elem))
        e2 = self.apply_gen(a, L, self.apply_d(elem))
        return self._sub(self._sub(e1, e2), self._scale(-L, self.apply_gen(a, L, elem)))

    def all_residuals(self):
        gens = ("L",) if self.b is None else ("L", "H")
        one, zero = MultiPoly.const(1), MultiPoly.zero()
        out = {}
        for tag, elem in (("top", (one, zero)), ("sub", (zero, one))):
            for a in gens:
                for bgen in gens:
                    out[f"[{a},{bgen}] on {tag}"] = self.commutator_residual(a, bgen, elem)
            for a in gens:
                out[f"[d,{a}] on {tag}"] = self.translation_residual(a, elem)
        return out


def _assert_same_residuals(got, want):
    assert list(got) == list(want)
    for label, (top, sub) in want.items():
        assert got[label][0] == top, ("top", label)
        assert got[label][1] == sub, ("sub", label)
        assert (str(got[label][0]), str(got[label][1])) == (str(top), str(sub)), label


def _unit_witness(p, part, j, k):
    mono, zero = MultiPoly.monomial((j, k, 0, 0)), MultiPoly.zero()
    return CocycleWitness(
        f=mono if part == "f" else zero,
        g=mono if part == "g" else zero,
        h=(mono if part == "h" else zero) if p.shape == 2 else None,
    )


def _column(residuals):
    """One unit witness's residuals as {(label, top/sub, exponents): value}."""
    return {
        (label, part_tag, exps[:3]): c
        for label, pair in residuals.items()
        for part_tag, poly in zip("ts", pair)
        for exps, c in poly.terms.items()
    }


def _columns_as_rows(columns):
    """Sparse {column: value} rows, sorted by (label, top/sub, exponents),
    of per-column {position: value} maps: the layout _residual_rows uses."""
    positions = sorted({pos for col in columns for pos in col})
    return [{c: col[pos] for c, col in enumerate(columns) if pos in col} for pos in positions]


@settings(max_examples=40, deadline=None)
@given(_problems())
def test_tagged_witness_matrix_equals_the_literal_unit_witness_columns(p):
    """The residual matrix brute_dims ranks, read from its one tagged
    witness, is the matrix of the unit witnesses' own residuals composed
    from scratch, entry for entry and in row order."""
    env = p.env()
    unknowns = oracle._unknowns(p)
    columns = []
    for part, j, k in unknowns:
        residuals = _LiteralModel(p.shape, env, _unit_witness(p, part, j, k)).all_residuals()
        columns.append(_column(residuals))
    want = _columns_as_rows(columns)
    got = oracle._residual_rows(p.shape, env, unknowns)
    assert got == want
    assert brute_dims(p)[0] == len(unknowns) - _rank(want)


@settings(max_examples=25, deadline=None)
@given(_problems(), st.randoms(use_true_random=False))
def test_one_tagged_model_gives_each_unit_witness_its_own_column(p, rnd):
    """The tagged witness runs every unit witness through one model; in any
    column order, each column is the one that unit witness's own model
    gives."""
    env = p.env()
    unknowns = oracle._unknowns(p)
    rnd.shuffle(unknowns)
    columns = []
    for part, j, k in unknowns:
        residuals = oracle._Model(p.shape, env, _unit_witness(p, part, j, k)).all_residuals()
        columns.append(_column(residuals))
    assert oracle._residual_rows(p.shape, env, unknowns) == _columns_as_rows(columns)


@settings(max_examples=20, deadline=None)
@given(_problems(), st.randoms(use_true_random=False))
def test_unit_witness_residuals_in_one_tagged_model_equal_the_literal_composition(p, rnd):
    """One model on the tagged witness sum_c t^(c+1) * unit_c: the t^(c+1)
    part of its residuals plus the untagged t^0 part is, label for label
    and in label order, unit_c's residuals composed from scratch."""
    env = p.env()
    unknowns = oracle._unknowns(p)
    rnd.shuffle(unknowns)
    tagged = {"f": {}, "g": {}, "h": {}}
    for c, (part, j, k) in enumerate(unknowns):
        tagged[part][(j, k, 0, c + 1)] = Fraction(1)
    f, g, h = (MultiPoly(tagged[part]) for part in "fgh")
    w = CocycleWitness(f=f, g=g, h=h if p.shape == 2 else None)
    shared = oracle._Model(p.shape, env, w).all_residuals()

    def tag_part(poly, c):
        terms = {}
        for (e0, e1, e2, e3), x in poly.terms.items():
            if e3 in (0, c + 1):
                key = (e0, e1, e2, 0)
                terms[key] = terms.get(key, 0) + x
        return MultiPoly(terms)

    for c, (part, j, k) in enumerate(unknowns):
        got = {label: (tag_part(top, c), tag_part(sub, c)) for label, (top, sub) in shared.items()}
        want = _LiteralModel(p.shape, env, _unit_witness(p, part, j, k)).all_residuals()
        _assert_same_residuals(got, want)


@st.composite
def _problems_and_witnesses(draw):
    """A problem and a witness with random terms inside its caps, almost
    never a cocycle, so that most identities leave a residual."""
    p = draw(_problems())
    coeff = st.one_of(st.just(Fraction(0)), _SMALL)

    def part(name):
        mono = oracle._monomials(p.shape, name, p.caps)
        cs = draw(st.lists(coeff, min_size=len(mono), max_size=len(mono)))
        exps = [(j, 0, 0, 0) if name == "h" else (j, k, 0, 0) for j, k in mono]
        return MultiPoly(dict(zip(exps, cs)))

    h = part("h") if p.shape == 2 else None
    return p, CocycleWitness(f=part("f"), g=part("g"), h=h)


@settings(max_examples=40, deadline=None)
@given(_problems_and_witnesses())
def test_verify_witness_reports_the_literal_residuals(case):
    p, w = case
    report = verify_witness(p, w)
    want = _LiteralModel(p.shape, p.env(), w).all_residuals()
    _assert_same_residuals(report.residuals, want)
    violations = [label for label, (top, sub) in want.items() if top or sub]
    assert report.violations == violations
    assert report.passed == (not violations)
    expected = oracle.VerifyReport(passed=not violations, residuals=want, violations=violations)
    assert str(report) == str(expected)


@st.composite
def _scan_lines_and_witnesses(draw):
    """A scan line's Q[t] environment, in either chart and any sector, and a
    witness inside small caps whose coefficients are polynomials in t of
    degree at most 2.  Now and then the witness is the line's own g-sector
    family (a cocycle over Q[t]), so both verdicts occur."""
    b = draw(_SMALL.filter(bool))
    sector = draw(st.sampled_from(("full", "f", "g")))
    m = draw(st.integers(0, 2))
    family = sector != "f" and draw(st.booleans())
    diff = m + b if family else draw(_SMALL)
    chart = draw(st.sampled_from((scanner.scan_dbar, scanner.scan_delta)))
    caps = Caps(2, 2, 2, 2)
    env = chart(b, diff, sector=sector, caps=caps).env_t()
    if family:
        return env, scanner.g_family_witness(m, b, dbar=env["dbar"])
    coeff = st.one_of(st.just(Fraction(0)), _SMALL)
    parts = {"full": "fg", "f": "f", "g": "g"}[sector]

    def part(name):
        if name not in parts:
            return MultiPoly.zero()
        terms = {}
        for j, k in oracle._monomials(3, name, caps):
            for e in range(3):
                terms[(j, k, 0, e)] = draw(coeff)
        return MultiPoly(terms)

    return env, CocycleWitness(f=part("f"), g=part("g"))


@settings(max_examples=40, deadline=None)
@given(_scan_lines_and_witnesses())
def test_verify_witness_env_over_q_t_reports_the_literal_residuals(case):
    """The scanner's line-family check: over Q[t], verify_witness_env reports
    the residuals and violations of the literal composition."""
    env, w = case
    report = oracle.verify_witness_env(3, env, w)
    want = _LiteralModel(3, env, w).all_residuals()
    _assert_same_residuals(report.residuals, want)
    violations = [label for label, (top, sub) in want.items() if top or sub]
    assert report.violations == violations
    assert report.passed == (not violations)
