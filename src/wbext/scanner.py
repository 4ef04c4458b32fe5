"""Parametric weight scans: generic dimensions over Q(t) and special values.

A scan line fixes ``delta - dbar`` and promotes one weight to a polynomial
variable ``t``, in one of two charts: ``t = dbar`` (:func:`scan_dbar`) or
``t = delta`` (:func:`scan_delta`).  Lines are homogeneous: both shift
parameters vanish, which loses nothing, since an equal shift of alpha and
abar moves no dimension.  The cocycle system then has entries in Q[t] and
splits into independent blocks by part and degree.

The systems of every line with one caps are built once, for all three
sectors and both charts, as one integer template (:func:`_line_template`):
the one transcription of the full sector's equations and basis-change
images runs over the solver's weight names ``b``, ``delta`` and ``dbar`` as
affine symbols, so each entry is ``c0 + c_b*b + c_delta*delta +
c_dbar*dbar`` with integer coefficients; its equations, each row kept once
up to a non-zero constant factor (the build writes each identity with its
swapped twin), are split into their blocks there, once per caps, and an f-
or g-sector line reads the blocks of its own part.  No f block and no image
involves b, so a line's b-free part, those matrices ranked as below,
depends only on its weights at t = 0 and is shared by every line through
them, whatever its b (:func:`_f_part`); only the g blocks are ranked for
each line.  In both charts t raises delta and dbar by 1, so a line lowers
it at its weights at t = 0, with ``c_t = c_delta + c_dbar``, to the
package's one sparse row format (see :mod:`wbext.linalg`) over Z[t]: every
row is scaled by a positive constant to primitive integer coefficients, so
a value is a tuple of ``int`` coefficients of a non-zero polynomial in
Z[t], and the rows are those of the line's direct build so scaled, less
each whose template is a multiple of an earlier row's.  Scaling a row moves
no rank, at t or at any point, and a row that is a multiple of another as a
template is one on every line and at every point of it.  A line keeps one
list of matrices (the equation blocks that do not vanish on it, then the
full and the overflow coboundary matrices) and one formula that turns their
ranks into an ext dimension.  That list feeds two consumers:

* Bareiss fraction-free elimination over Z[t] (:func:`fraction_free_rank`),
  with every entry packed into one ``int``, its value at t = 2**K
  (Kronecker substitution), so each step is one integer expression and one
  ``divmod``.  The width K, from a Hadamard-type bound on every minor, makes
  the packing unique, reads each entry's degree off its bit length, and
  lets a bound on the quotient's digits prove each division exact in Z[t],
  not only in Z; an inexact one raises ``ArithmeticError``.  The recorded pivot
  polynomials certify the result: at any rational or quadratic-irrational
  point where no pivot vanishes, the elimination replays verbatim and the
  dimension equals the generic one, so every jump hides among the
  certificate's roots.  The pivots are integer-scaled (non-zero constants
  times those of the unscaled rational rows); the certificate, the product
  of their square-free primitive parts, is the same.  It is built in Z[t]:
  a linear pivot, irreducible, joins it unless one exact division shows it
  already divides it, and the other pivots through gcds by the primitive
  remainder sequence.  :func:`uni_factor_special` finds each new factor's
  rational roots and quadratic factors there too, by exact division.  A
  line keeps its pivots as ``int`` coefficient tuples; the pivots
  :func:`fraction_free_rank` returns and the certificate in
  :class:`ScanReport` are ``UniPoly`` values over those same ``int``
  coefficients.
* The exact point check :func:`ext_dim_at` at each candidate root t0.  By
  Sylvester's identity every Bareiss pivot is a minor of the input, and
  the last one of a matrix of generic rank r is a non-zero r x r minor.
  Where it does not vanish at t0 that minor survives, so the rank at t0
  is r: specialising t can only lower a rank.  Only the matrices whose
  last pivot vanishes at t0 are evaluated there, by the solver's template
  evaluator, and ranked, so each reported value and dimension is exact:
  in integers at a rational t0, in Z[sqrt(d)] at a quadratic one.

:func:`line_family` is the one derivation of a line's second-generator
family; it verifies the family before returning it, and both
:func:`classify` and the command line use it.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product, repeat, zip_longest
from math import comb, gcd, isqrt, lcm, prod
from operator import mul

from . import engine
from .equations import (
    LinearSystem,
    affine_symbols,
    assemble_linear_system,
    build_equations_env,
    unknown_basis,
)
from .linalg import rank as matrix_rank
from .oracle import verify_witness_env
from .poly import MultiPoly, T, UniPoly
from .problems import SECTORS, Caps, CocycleWitness, ExtProblem, _rational_b
from .qext import QuadExt, quad, scalar

__all__ = [
    "ClassifyReport",
    "LineEntry",
    "ScanProblem",
    "ScanReport",
    "SpecialPoint",
    "candidate_diffs",
    "classify",
    "ext_dim_at",
    "fraction_free_rank",
    "g_family_witness",
    "line_family",
    "scan_dbar",
    "scan_delta",
    "special_values",
]

_PROMOTE = ("delta", "dbar")
_MAX_G_DEGREE = 3  # the g-sector degree law: g families only on diff = m + b, m in 0..3


@dataclass(frozen=True)
class ScanProblem:
    """A two-free-generator extension problem with one weight made variable.

    ``promote`` picks one of two charts of the line ``delta - dbar = diff``:
    ``"dbar"`` sets the sub-module weight to t and the quotient weight
    follows at the fixed difference; ``"delta"`` sets the quotient weight to
    t and the sub-module weight follows.  Both shifts ``alpha`` and ``abar``
    are zero.
    """

    base: ExtProblem
    promote: str = "dbar"

    def __post_init__(self):
        if self.base.shape != 3:
            raise ValueError("weight scans need shape 3 (two free generators)")
        if self.promote not in _PROMOTE:
            raise ValueError(f"promote must be one of {_PROMOTE}, not {self.promote!r}")
        if self.base.alpha != 0 or self.base.abar != 0:
            raise ValueError(
                "scan lines have zero shifts alpha = abar = 0; an equal shift "
                "of both moves no dimension, so scan the unshifted line"
            )
        for name in ("b", "delta", "dbar"):
            if isinstance(getattr(self.base, name), QuadExt):
                raise ValueError("scan lines must have rational parameters")

    @property
    def diff(self) -> Fraction:
        return Fraction(self.base.delta) - Fraction(self.base.dbar)

    def env_t(self) -> dict:
        """Parameter environment with the scan variable t substituted."""
        env = self.base.env()
        env["delta"], env["dbar"] = _chart(self.promote, T, self.diff)
        return env

    def weights_at(self, t0):
        """(delta, dbar) at the point t = t0, an int, a Fraction or a
        QuadExt; any other t0 raises ``ValueError``."""
        scalar(t0, "t0")
        return _chart(self.promote, t0, self.diff)

    def specialize(self, t0) -> ExtProblem:
        delta, dbar = self.weights_at(t0)
        return replace(self.base, delta=delta, dbar=dbar)


def _chart(promote: str, t, diff):
    """(delta, dbar) on the line delta - dbar = diff in the ``promote`` chart."""
    return (t + diff, t) if promote == "dbar" else (t, t - diff)


def scan_dbar(b, diff, sector="full", caps=None) -> ScanProblem:
    """Scan along the line delta - dbar = diff with t = dbar."""
    caps = caps if caps is not None else Caps()
    base = ExtProblem(
        shape=3, b=b, alpha=0, abar=0, delta=diff, dbar=0, caps=caps, sector=sector
    )
    return ScanProblem(base=base, promote="dbar")


def scan_delta(b, diff, sector="full", caps=None) -> ScanProblem:
    """Scan along the line delta - dbar = diff with t = delta."""
    sp = scan_dbar(b, diff, sector=sector, caps=caps)
    return ScanProblem(base=sp.base, promote="delta")


def _freeze(obj, *names) -> None:
    """Store the named fields of a frozen dataclass as tuples."""
    for name in names:
        object.__setattr__(obj, name, tuple(getattr(obj, name)))


@dataclass(frozen=True)
class ScanReport:
    """Generic dimension on a scan line plus all confirmed jump points.

    ``certificate`` is a square-free primitive ``UniPoly`` in t, with ``int``
    coefficients, whose roots contain every parameter value where any
    elimination pivot vanishes; all its rational and quadratic-irrational
    roots were specialized and tested.
    ``special_values`` holds ``(value, ext dimension at value)`` pairs with
    the dimension strictly above ``generic_dim``.  Reports are shared
    through the classification cache, so they are immutable, with tuple
    fields.
    """

    problem: ScanProblem
    generic_dim: int
    special_values: tuple
    certificate: UniPoly
    notes: tuple = ()

    def __post_init__(self):
        _freeze(self, "special_values", "notes")


# ---------------------------------------------------------------------------
# integer row form over Z[t]
# ---------------------------------------------------------------------------

def _mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _sub(a, b):
    out = [x - y for x, y in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _quotient(num, den):
    """``num / den`` in Z[t], or None unless the division is exact."""
    if not num:
        return ()
    lead = den[-1]
    rem = list(num)
    quo = [0] * max(len(num) - len(den) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        q, r = divmod(rem[k + len(den) - 1], lead)
        if r:
            return None
        quo[k] = q
        for j, c in enumerate(den):
            rem[k + j] -= q * c
    if any(rem):
        return None
    return tuple(quo)


def _exact_quotient(num, den):
    """``num / den`` in Z[t]; raises ``ArithmeticError`` unless it is exact."""
    quo = _quotient(num, den)
    if quo is None:
        raise ArithmeticError(f"inexact division in Z[t]: {num} by {den}")
    return quo


def _primitive(p):
    """A non-zero ``p`` in Z[t] divided by its content, with a positive lead."""
    c = gcd(*p) if p[-1] > 0 else -gcd(*p)
    return tuple(x // c for x in p)


def _gcd(a, b):
    """The primitive gcd of non-zero ``a`` and ``b`` in Z[t], by the
    primitive remainder sequence (Collins 1967; Brown 1971): each
    pseudo-remainder is divided by its content."""
    b = _primitive(b)
    while True:
        while len(a) >= len(b):  # a's pseudo-remainder by b
            a = _sub(_mul(a, (b[-1],)), (0,) * (len(a) - len(b)) + _mul(b, (a[-1],)))
        if not a:
            return b
        a, b = b, _primitive(a)


def _pack(e, k: int) -> int:
    """The coefficient tuple ``e`` evaluated at t = 2**k."""
    v = 0
    for c in reversed(e):
        v = (v << k) + c
    return v


def _unpack(v: int, k: int) -> tuple:
    """The coefficient tuple whose value at t = 2**k is ``v``, read in
    balanced base-2**k digits, each in [-2**(k-1), 2**(k-1))."""
    half, mask = 1 << (k - 1), (1 << k) - 1
    out = []
    while v:
        c = ((v + half) & mask) - half
        out.append(c)
        v = (v - c) >> k
    return tuple(out)


def _packed_step(k: int, m: int, n: int):
    """The Bareiss row step on entries packed at t = 2**k, with its checked
    exact division.

    ``step(row, prow, col, prev)`` pops column ``col`` of ``row``, c, and
    returns the new row ``{j: (pivot*a - c*b) / prev}`` over the other
    columns, where ``pivot = prow[col]``, a is ``row``'s entry and b is
    ``prow``'s; zero entries are left out.  Each division must be exact in
    Z[t], which :func:`fraction_free_rank` reduces to: ``divmod`` leaves no
    remainder and the quotient has at most ``n`` balanced digits, each in
    [-2**m, 2**m).  Otherwise it raises ``ArithmeticError``.  The digit
    test is O(1) big-int operations: adding ``bias``, 2**m in each of the
    ``n`` digit fields, maps the admissible quotients onto the numbers v
    with 0 <= v < 2**(k*n) (so ``v >> top`` is 0; it is negative for a
    negative v) and every field below 2**(m+1) (so no bit of ``mask``,
    bits m+1 .. k-1 of every field, is set).
    """
    ones = ((1 << (k * n)) - 1) // ((1 << k) - 1)  # a 1 in each of n fields
    bias = ones << m
    mask = (((1 << k) - 1) ^ ((1 << (m + 1)) - 1)) * ones
    top = k * n

    def step(row: dict, prow: dict, col, prev: int) -> dict:
        piv, ci = prow[col], row.pop(col, 0)
        new = {}
        for j in (row.keys() | prow.keys()) if ci else row:
            if j != col:
                e = piv * row.get(j, 0) - ci * prow.get(j, 0)
                if e:
                    q, rem = divmod(e, prev)
                    v = q + bias
                    if rem or v & mask or v >> top:
                        raise ArithmeticError(
                            f"inexact division in Z[t]: {_unpack(e, k)} by {_unpack(prev, k)}"
                        )
                    new[j] = q
        return new

    return step


def fraction_free_rank(rows) -> tuple[int, list]:
    """Bareiss elimination over Z[t]; returns (rank, pivot polynomials).

    ``rows`` are sparse rows over Z[t] (see :func:`_lower`), worked as
    ``{column: entry}`` dicts over the occupied columns in ascending order.
    Each new entry is ``(pivot*a - c*b) / previous pivot``, a minor of the
    input and hence in Z[t]; an inexact division raises ``ArithmeticError``.
    The pivot is the lowest-degree candidate in its column, ties to the
    first row.  At any point t0 where no returned pivot vanishes the same
    row operations replay over Q, so the specialized rank can differ from
    the generic one only at pivot roots.  The pivots are those of the same
    elimination over the unscaled rational rows times non-zero constants
    (the row scales), so their square-free primitive parts, and with them
    the certificate, do not depend on the scaling.  Rows that cancel to
    zero stay in place, empty, so ties break as in plain Bareiss.

    Every entry is packed as one ``int``, its value at t = 2**K
    (Kronecker substitution).  Evaluation is a ring map, so each step is
    one integer expression and one ``divmod``; only the pivots are
    unpacked.  The width K makes this exact:

    * *Width.*  Let H be the product of the n = min(rows, columns) largest
      row 1-norms, each summed over every coefficient of every entry of
      the row (so at least 1).  Every minor of size at most n, hence every entry and pivot
      (Sylvester), has coefficient 1-norm at most H.  With L =
      H.bit_length() and K = 2L + 3, every numerator ``pivot*a - c*b`` has
      coefficients of absolute value at most 2*H**2 < 2**(K-2).  Two
      polynomials with coefficients below 2**(K-1) in absolute value that
      agree at 2**K are equal (their balanced base-2**K digits), so a
      packed entry or numerator stands for exactly one polynomial.
    * *Degree.*  A packed entry v of degree d has top digit 0 < |c_d| <
      2**L, and its lower digits sum to less than 2**(Kd - L - 2) in
      absolute value, so 2**(Kd - 1) <= |v| < 2**(Kd + L + 1).  As L + 1 <
      K, ``v.bit_length() // K`` is exactly d: the pivot rule needs no
      unpacking.
    * *Division.*  A zero integer remainder alone is weaker than
      divisibility in Z[t]: t + 1 packs to a multiple of 3 at every odd K.
      So each quotient q must also have at most N = maxdeg*n + 2 balanced
      digits, each in [-2**m, 2**m) with m = L + 1 (see
      :func:`_packed_step`).  Suppose every entry so far is the packing of
      the true Bareiss entry, so the numerator E is the true one.  A true
      quotient, a minor of degree at most maxdeg*n with 1-norm at most H <
      2**m, passes.  Conversely a q that passes unpacks to R with
      ``prev*R`` coefficients at most H * 2**m < 2**(K-2) in absolute
      value; ``prev*R`` and E agree at 2**K, so prev*R = E in Z[t] and R is
      the true entry.  By induction the check passes exactly when every
      division is exact in Z[t], as an unpacked division would check.
    """
    work = [row for row in rows if row]
    cols = sorted({j for row in work for j, _e in row})
    n = min(len(work), len(cols))
    if not n:
        return 0, []
    norms = sorted(sum(abs(c) for _j, e in row for c in e) for row in work)
    bits = prod(norms[-n:]).bit_length()
    k = 2 * bits + 3
    maxdeg = max(len(e) for row in work for _j, e in row) - 1
    step = _packed_step(k, bits + 1, maxdeg * n + 2)
    work = [{j: _pack(e, k) for j, e in row} for row in work]
    pivots = []
    r = 0
    prev = 1
    for col in cols:
        if r == len(work):
            break
        piv_i = low = None
        for i in range(r, len(work)):
            e = work[i].get(col)
            if e:
                # the lowest-degree entry; bit_length() // k is its degree
                d = e.bit_length() // k
                if piv_i is None or d < low:
                    piv_i, low = i, d
        if piv_i is None:
            continue
        work[r], work[piv_i] = work[piv_i], work[r]
        prow = work[r]
        piv = prow[col]
        pivots.append(UniPoly(_unpack(piv, k)))
        work[r + 1 :] = [step(row, prow, col, prev) if row else row for row in work[r + 1 :]]
        prev = piv
        r += 1
    return r, pivots


@dataclass(frozen=True)
class _LineData:
    """Everything reusable about one scan line's systems over Q[t].

    ``matrices`` holds ``(template system, generic rank, last pivot)`` for
    the equation blocks of the line's sector that do not vanish on it, f
    blocks before g blocks, then the full and the overflow coboundary
    matrices (empty, of rank 0, in the g sector): systems of
    :func:`_line_template`, and the rank and pivots of their rows lowered
    by :func:`_lower`.  The last pivot, None for a matrix of rank 0, is the
    minor that keeps the generic rank wherever it does not vanish.
    ``pivots`` are the pivot polynomials of all of them, in that order: the
    certificate input, kept as the ``int`` coefficient tuples of
    :func:`fraction_free_rank`'s pivots, like row entries.  Every field is
    a tuple, as the b-free part is shared (see :func:`_f_part`).
    """

    nunk: int
    matrices: tuple
    pivots: tuple
    g_generic: int  # basis moves never produce g-parts: no coboundary term

    def ext_dim(self, ranks) -> int:
        """Ext dimension from the ranks of ``matrices``, in their order."""
        *blocks, full, over = ranks
        return (self.nunk - sum(blocks)) - (full - over)

    @property
    def generic_ext(self) -> int:
        return self.ext_dim([rank for _system, rank, _last in self.matrices])


def _line_point(sp: ScanProblem, t0) -> tuple:
    """The line's weights at t = t0 in the order of a line template value's
    components, ``(b, delta, dbar)``, with b = 0 where the line has none (an
    f-sector line, which never reads b)."""
    return (Fraction(sp.base.b or 0), *sp.weights_at(t0))


# One template per caps, shared by every line at those caps in every sector
# and both charts: classify, the Virasoro layer and ``wbext scan`` build it
# once.  At the default caps its 151 equation rows (302 before the
# proportional repeats are dropped), split into blocks once, take 0.03 MB,
# their values shared tuples.
@lru_cache(maxsize=8)
def _line_template(caps: Caps) -> tuple:
    """``(keys, equation blocks as (part, system), images, overflow)`` of
    every line at ``caps``, each system a :class:`LinearSystem` whose values
    are integer tuples ``(c0, c_b, c_delta, c_dbar)``: the full sector's
    direct build without alpha and abar, as the shifts are zero, each row
    kept once up to a non-zero constant factor (:func:`engine._distinct`):
    the build writes each identity with its swapped twin, so half its rows
    repeat an earlier one.  Without them every generic rank is the same and
    every Bareiss pivot the same up to a constant factor, so the
    certificates are too (the test suite checks this on random lines).

    It is the full sector's; a line of another sector reads its own part's
    slices, which are that sector's own build: the f sector's keys are the
    f keys, which come first, and its blocks are the f blocks with the
    images and the overflow; the g sector's are the g keys and the g
    blocks, and it has no images.

    Built by the one transcription of the equations,
    :func:`build_equations_env`, split once by :func:`_block_split`, and
    the one image construction the solver's templates share,
    :func:`engine.image_rows`: the images laid out overflow-first, the
    overflow block, which ``overflow`` cuts them to, holding every
    out-of-cap key some line reaches.  No f block or image (and so no
    overflow) entry involves b: each has ``c_b = 0``, checked here once, so
    their ranks on a line depend only on its weights and :func:`_f_part`
    keys them without b.  An entry with ``c_b != 0`` raises
    ``ArithmeticError``.
    """
    env = affine_symbols(("b", "delta", "dbar"))
    env["alpha"] = env["abar"] = 0
    keys = tuple(unknown_basis(3, caps, "full"))
    system = assemble_linear_system(build_equations_env(3, env, caps, "full"), keys)
    system = LinearSystem(engine._distinct(system.rows))
    blocks = tuple((part, LinearSystem(rows)) for part, rows in _block_split(keys, system.rows))
    images, over = engine.image_rows(3, env, caps, "full", keys)
    b_free = [ls.rows for part, ls in blocks if part == "f"] + [images]
    if any(vec[1] for rows in b_free for row in rows for _j, vec in row):
        raise ArithmeticError("an f block or image of the line template involves b")
    overflow = tuple(tuple((j, e) for j, e in row if j < over) for row in images)
    return keys, blocks, LinearSystem(images), LinearSystem(overflow)


def _lower(rows, point) -> list:
    """Template rows on the line through ``point``, its weights at t = 0,
    as sparse rows (see :mod:`wbext.linalg`) over Z[t].

    The value ``(c0, c1, ..., ck)`` stands for ``c0 + c1*t + ... + ck*t^k``
    with ``ck != 0``; t raises delta and dbar by 1, so ``c1 = c_delta +
    c_dbar``.  Each entry is evaluated times the common denominator of
    ``point``, and each row is then divided by the gcd of its coefficients:
    the primitive positive scaling of the line's own rows, which moves no
    rank, at t or at any point.  Entries and then rows that vanish on the
    line are dropped.
    """
    den = lcm(*(w.denominator for w in point))
    nums = (den, *[w.numerator * (den // w.denominator) for w in point])
    out = []
    for row in rows:
        lowered = []
        for j, vec in row:
            c0, ct = sum(map(mul, vec, nums)), (vec[-2] + vec[-1]) * den
            if ct:
                lowered.append((j, (c0, ct)))
            elif c0:
                lowered.append((j, (c0,)))
        if lowered:
            content = gcd(*[c for _j, e in lowered for c in e])
            out.append(tuple([(j, tuple([c // content for c in e])) for j, e in lowered]))
    return out


def _block_split(keys, rows):
    """Split into independent blocks keyed by (part, homogeneous degree).

    Sound because scan lines are homogeneous (both shift parameters vanish):
    every identity then maps a homogeneous witness monomial to equations of
    a single adjacent degree, so distinct degrees never mix and each small
    block can be eliminated on its own.  Returns ``(part, block-local rows)``
    per block.  A mixed row would break that argument, so it raises
    ``ArithmeticError``; on a template that checks every line at once.
    """
    group_of = [(key[0], key[1] + key[2]) for key in keys]
    buckets: dict = {}
    for row in rows:
        support = {group_of[j] for j, _e in row}
        if len(support) > 1:
            raise ArithmeticError("homogeneous block split saw a mixed row")
        buckets.setdefault(support.pop(), []).append(row)
    blocks = []
    for group in sorted(buckets):
        # block-local columns, in key order
        local = {j: k for k, j in enumerate(j for j, g in enumerate(group_of) if g == group)}
        rows = tuple(tuple((local[j], e) for j, e in row) for row in buckets[group])
        blocks.append((group[0], rows))
    return tuple(blocks)


def _ranked(system: LinearSystem, rows) -> tuple:
    """``(system, generic rank, pivots)`` of ``rows``, ``system``'s rows
    lowered on a line, each pivot an ``int`` coefficient tuple."""
    rank, pivots = fraction_free_rank(rows)
    return system, rank, tuple(p.coeffs for p in pivots)


def _ranked_blocks(blocks, part: str, point) -> list:
    """:func:`_ranked` of every equation block of ``part`` that does not
    vanish on the line through ``point``."""
    return [_ranked(ls, rows) for p, ls in blocks if p == part and (rows := _lower(ls.rows, point))]


# The b-free part of every line through one point at t = 0, whatever its b
# or sector (the point fixes the chart: (diff, 0) or (0, -diff)).  The 167
# lines of the 40 seeded classify inputs of perfbench's seed 101 (160 per-b
# lines and the Virasoro layer's 7) pass through 78 points: 89 hits, 78
# misses; at seed 404, 82 points.  128 entries keep every hit of such a
# sweep, 64 lose 1 at seed 101 and 9 at seed 404; an entry takes about 5 KB
# at the default caps.
@lru_cache(maxsize=128)
def _f_part(caps: Caps, weights: tuple) -> tuple:
    """``(system, generic rank, pivots)`` of the f blocks that do not vanish
    on the lines through ``weights``, their (delta, dbar) at t = 0, then of
    the images and of the overflow: the matrices of a line that never read
    b (see :func:`_line_template`), ranked once for all those lines."""
    _keys, blocks, images, overflow = _line_template(caps)
    point = (0, *weights)
    tail = [_ranked(ls, _lower(ls.rows, point)) for ls in (images, overflow)]
    return (*_ranked_blocks(blocks, "f", point), *tail)


# The g sector's images and overflow: none, of rank 0.
_NO_IMAGES = ((LinearSystem(()), 0, ()),) * 2


# Each line is built once and then re-read by its own special_values,
# line_family and ext_dim_at calls, and by ``wbext scan``'s family pass
# (perfbench's 40 seed-101 classify inputs: 3455 hits, 167 misses, one per
# line); only its g blocks are ranked for it, its b-free part comes from
# _f_part.  Eviction keeps a long sweep over b bounded.
@lru_cache(maxsize=16)
def _line_data(sp: ScanProblem) -> _LineData:
    caps, sector = sp.base.caps, sp.base.sector
    keys, blocks, _images, _overflow = _line_template(caps)
    parts = ("f", "g") if sector == "full" else (sector,)
    *f_blocks, images, overflow = _f_part(caps, sp.weights_at(0)) if "f" in parts else _NO_IMAGES
    g_blocks = _ranked_blocks(blocks, "g", _line_point(sp, 0)) if "g" in parts else []
    matrices = (*f_blocks, *g_blocks, images, overflow)
    keys = [k for k in keys if k[0] in parts]
    return _LineData(
        nunk=len(keys),
        matrices=tuple((system, rank, piv[-1] if piv else None) for system, rank, piv in matrices),
        pivots=tuple(p for _s, _r, piv in matrices for p in piv),
        g_generic=sum(1 for k in keys if k[0] == "g") - sum(r for _s, r, _p in g_blocks),
    )


# ---------------------------------------------------------------------------
# the point check: generic ranks where the last pivot survives, else exact
# ---------------------------------------------------------------------------


def ext_dim_at(sp: ScanProblem, t0) -> int:
    """Exact ext dimension at t = t0, from the specialized line systems.

    A matrix whose last pivot does not vanish at t0 (or that has none, at
    rank 0) keeps its generic rank there: that pivot is a non-zero minor of
    the generic rank's size, and specialising t raises no rank.  Only the
    other matrices are ranked, each evaluated at t0's weights by
    :meth:`LinearSystem.concrete_rows`, the solver's own evaluator.  A last
    pivot is affine in t, t**2, ..., so all of them are evaluated as one
    row, a column per matrix, by one more ``concrete_rows`` call at those
    powers of t0: in integers at a rational t0.  The result equals
    solve_ext on the specialized problem, at a fraction of the cost; works
    for int, Fraction and QuadExt points; any other t0 raises
    ``ValueError``.
    """
    point = _line_point(sp, t0)
    data = _line_data(sp)
    lasts = tuple((i, last) for i, (_s, _r, last) in enumerate(data.matrices) if last)
    deg = max((len(last) for _i, last in lasts), default=1) - 1
    powers = tuple(accumulate(repeat(t0, deg), mul))
    kept = {i for row in LinearSystem((lasts,)).concrete_rows(powers) for i, _v in row}
    return data.ext_dim(
        [
            rank if last is None or i in kept else matrix_rank(system.concrete_rows(point))
            for i, (system, rank, last) in enumerate(data.matrices)
        ]
    )


# The root finder's search limits; a search cut short by either leaves a note.
_DIVISOR_LIMIT = 10**12  # largest coefficient whose divisors are scanned
_QUADRATIC_BUDGET = 200_000  # most candidates one quadratic search may try


def _divisors(n: int) -> list[int] | None:
    """The positive divisors of ``|n|`` in ascending order, or None if ``n``
    is 0 or above ``_DIVISOR_LIMIT``."""
    n = abs(n)
    if n == 0 or n > _DIVISOR_LIMIT:
        return None
    small = [i for i in range(1, isqrt(n) + 1) if n % i == 0]
    return small + [n // i for i in reversed(small) if i * i != n]


def uni_factor_special(p) -> tuple[list, list, list]:
    """Rational roots and quadratic factors of ``p`` in Z[t].

    ``p`` is a square-free primitive coefficient tuple with a positive lead.
    Returns ``(roots, quadratics, notes)``: the rational roots as
    ``Fraction`` values, the quadratic factors as primitive tuples ``(c, b,
    a)`` of ``a*t^2 + b*t + c`` with ``a > 0``, and a note for each search
    cut short and for a factor of degree >= 3 left unresolved.

    Every candidate is tested by exact division in Z[t], and by Gauss's
    lemma each quotient is again primitive with a positive lead.  A root
    ``a/q`` has ``a | p(0)`` and ``q | lead``, and then ``q*t - a`` divides
    ``p``; a candidate not in lowest terms has content and never divides.
    A quadratic factor has ``a | lead``, ``c | p(0)`` and ``a + b + c |
    p(1)``.  Once no rational root is left, a remaining cubic is
    irreducible and a remaining quadratic is one of the quadratic factors.
    """
    roots: list = []
    quadratics: list = []
    notes: list = []
    if not p[0]:
        roots.append(Fraction(0))
        p = p[1:]
    if len(p) > 1:
        consts, leads = _divisors(p[0]), _divisors(p[-1])
        if consts is None or leads is None:
            notes.append("rational-root search incomplete: coefficients too large")
        else:
            one, minus_one = sum(p), sum(p[::2]) - sum(p[1::2])
            for q, c in product(leads, consts):
                for a in (c, -c):
                    # if q*t - a divides p, q - a divides p(1) and q + a divides p(-1)
                    if (q - a and one % (q - a)) or (q + a and minus_one % (q + a)):
                        continue
                    rest = _quotient(p, (-a, q))
                    if rest is not None:
                        roots.append(Fraction(a, q))
                        p = rest
    while len(p) > 4:
        leads, consts, ones = _divisors(p[-1]), _divisors(p[0]), _divisors(sum(p))
        if leads is None or consts is None or ones is None:
            notes.append("quadratic-factor search incomplete: coefficients too large")
            break
        if len(leads) * len(consts) * len(ones) * 4 > _QUADRATIC_BUDGET:
            notes.append("quadratic-factor search incomplete: candidate budget exceeded")
            break
        candidates = (
            (c, s - a - c, a)
            for a in leads
            for c0 in consts
            for c in (c0, -c0)
            for s0 in ones
            for s in (s0, -s0)
        )
        for factor in candidates:
            rest = _quotient(p, factor)
            if rest is not None:
                quadratics.append(factor)
                p = rest
                break
        else:
            break
    if len(p) == 3:
        quadratics.append(p)
    elif len(p) > 3:
        notes.append(f"unresolved factor of degree {len(p) - 1}")
    return roots, quadratics, notes


def _factor_pivots(pivots):
    """Factor the pivot product incrementally; (candidates, cert, notes).

    The certificate is built in Z[t].  Each pivot's square-free part ``p /
    gcd(p, p')`` is reduced by what previous pivots already contributed, so
    only small new factors ever reach :func:`uni_factor_special`; the
    accumulated product is exactly the square-free pivot certificate.  Every
    factor is primitive with a positive lead, and so, by Gauss's lemma, is
    the product.  The candidates are the factors' rational roots and both
    roots of each quadratic factor; the factors are pairwise coprime, so
    none repeats.

    A linear pivot, most of them, needs no gcd: its primitive part is
    irreducible, so its gcd with the certificate is itself or 1, and as both
    are primitive it divides the certificate in Q[t] exactly when one
    :func:`_quotient` in Z[t] is exact.  Pivots of higher degree take the
    gcds by the primitive remainder sequence of :func:`_gcd`.
    """
    cert = (1,)
    candidates: list = []
    notes: list = []
    for p in pivots:
        if len(p) < 2:
            continue
        if len(p) == 2:
            # irreducible: its gcd with the certificate is itself or 1
            extra = _primitive(p)
            if _quotient(cert, extra) is not None:
                continue
        else:
            dp = tuple(k * c for k, c in enumerate(p))[1:]
            sf = _primitive(_exact_quotient(p, _gcd(p, dp)))
            extra = _exact_quotient(sf, _gcd(cert, sf))
            if len(extra) < 2:
                continue
        cert = _mul(cert, extra)
        roots, quadratics, found = uni_factor_special(extra)
        candidates.extend(roots)
        for c, b, a in quadratics:
            for s in (1, -1):
                candidates.append(quad(Fraction(-b, 2 * a), Fraction(s, 2 * a), b * b - 4 * a * c))
        notes.extend(found)
    return candidates, UniPoly(cert), notes


def _value_sort_key(v):
    if isinstance(v, QuadExt):
        return (1, v.p, v.q)
    return (0, Fraction(v), Fraction(0))


def special_values(sp: ScanProblem) -> ScanReport:
    """Scan one line: generic dimension, certificate, and confirmed jumps.

    Every rational root of the certificate, and both conjugates of every
    irreducible quadratic factor, goes through the exact point check
    :func:`ext_dim_at`; only values whose ext dimension exceeds the generic
    one are reported.  A residual certificate factor of degree >= 3 is
    surfaced as a note rather than silently dropped.
    """
    data = _line_data(sp)
    generic = data.generic_ext
    candidates, cert, notes = _factor_pivots(data.pivots)
    specials = []
    for value in sorted(candidates, key=_value_sort_key):
        dim = ext_dim_at(sp, value)
        if dim > generic:
            specials.append((value, dim))
            if sp.specialize(value).degenerate_weights():
                notes.append(
                    f"special value t={value} makes a weight vanish; the module "
                    "there is outside the irreducible classification"
                )
        elif dim < generic:
            notes.append(
                f"certificate root t={value} lowers the dimension to {dim}; "
                "no extra extensions there"
            )
    return ScanReport(
        problem=sp,
        generic_dim=generic,
        special_values=specials,
        certificate=cert,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# per-b classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpecialPoint:
    delta: object
    dbar: object
    t_value: object
    dim: int
    degenerate: bool
    witnesses: tuple = ()  # engine class representatives

    def __post_init__(self):
        _freeze(self, "witnesses")


@dataclass(frozen=True)
class LineEntry:
    """One candidate line delta - dbar = diff in a classification.

    Layer entries are cached and shared by every later classify at the same
    caps, so entries are immutable, with tuple fields.
    """

    report: ScanReport
    g_generic: int
    families: tuple = ()  # (CocycleWitness, note)
    specials: tuple = ()  # SpecialPoint

    def __post_init__(self):
        _freeze(self, "families", "specials")

    @property
    def diff(self) -> Fraction:
        return self.report.problem.diff

    @property
    def generic_dim(self) -> int:
        return self.report.generic_dim


@dataclass(frozen=True)
class ClassifyReport:
    """Everything classify(b) found: the b-independent layer (witnesses with
    no second-generator deformation, identical for every b) and the per-b
    lines tied to the g-sector degree law."""

    b: Fraction
    layer: tuple
    per_b: tuple

    def __post_init__(self):
        _freeze(self, "layer", "per_b")

    def family_diffs(self) -> list[Fraction]:
        """Per-b lines carrying a one-parameter family with g-content."""
        return [e.diff for e in self.per_b if e.g_generic > 0]

    def isolated_points(self) -> list[tuple]:
        """Non-degenerate isolated (delta, dbar) jumps on the per-b lines."""
        return [
            (s.delta, s.dbar)
            for e in self.per_b
            for s in e.specials
            if not s.degenerate
        ]


def _scan_b(b) -> Fraction:
    """``b`` as :func:`problems._rational_b` takes it, a ``QuadExt`` refused
    in the scan's words."""
    if isinstance(b, QuadExt):
        raise ValueError("scan lines must have rational parameters")
    return _rational_b(b)


def g_family_witness(m: int, b, dbar=None) -> CocycleWitness:
    """The homogeneous degree-m g-sector family on the line diff = m + b.

    Coefficients follow the recursion b*a_i = -a_0*C(m, i+1) - a_0*dbar*C(m, i)
    with a_0 = 1.  ``dbar`` is a concrete weight (an ``int``, a ``Fraction``
    or a ``QuadExt``) or a polynomial in t; the default is the scan variable
    t itself (the ``t = dbar`` chart).  ``m`` is a non-negative ``int`` and
    ``b`` an ``int`` or a ``Fraction``, as ``classify`` takes it; any other
    value of the three raises ``ValueError``.
    """
    if isinstance(m, bool) or not isinstance(m, int) or m < 0:
        raise ValueError(f"m must be a non-negative int, got {m!r}")
    b = _scan_b(b)
    if dbar is None:
        dbar = T
    elif not isinstance(dbar, MultiPoly):
        if isinstance(dbar, bool) or not isinstance(dbar, (int, Fraction, QuadExt)):
            raise ValueError(
                f"dbar must be a MultiPoly, an int, a Fraction or a QuadExt, got {dbar!r}"
            )
        dbar = MultiPoly.const(dbar)
    g = MultiPoly.monomial((m, 0, 0, 0), Fraction(1))
    for i in range(1, m + 1):
        coeff = (MultiPoly.const(Fraction(comb(m, i + 1))) + dbar * comb(m, i)) * (
            Fraction(-1) / b
        )
        g = g + coeff * MultiPoly.monomial((m - i, i, 0, 0), Fraction(1))
    return CocycleWitness(f=MultiPoly.zero(), g=g)


def line_family(sp: ScanProblem) -> CocycleWitness | None:
    """The verified g family on a line diff = m + b, or None if it has none.

    A line carries a family when it has generic g-sector solutions; the
    degree law puts those only on lines where m = diff - b is an integer in
    0..3.  The family is built at the line's own ``dbar`` (t in one chart,
    t - diff in the other) and checked by substitution with t left free.  A
    line off the degree law, or a failed check, raises ``ArithmeticError``.
    """
    if _line_data(sp).g_generic <= 0:
        return None
    m = sp.diff - Fraction(sp.base.b)
    if m.denominator != 1 or not 0 <= m <= _MAX_G_DEGREE:
        raise ArithmeticError(f"generic g-sector solutions at m = {m}, off the degree law")
    env = sp.env_t()
    fam = g_family_witness(int(m), sp.base.b, dbar=env["dbar"])
    if not verify_witness_env(3, env, fam).passed:
        raise ArithmeticError(f"derived degree-{m} family fails verification over Q[t]")
    return fam


def _solve_at(sp: ScanProblem, t0):
    """The engine's solve of the line at t = t0, unstabilized and oracle-checked."""
    return engine.solve_ext(sp.specialize(t0), stabilize=False)


def _line_specials(sp: ScanProblem, rep: ScanReport) -> list:
    out = []
    for value, dim in rep.special_values:
        point = sp.specialize(value)
        degenerate = bool(point.degenerate_weights())
        witnesses = ()
        if not degenerate:
            sol = _solve_at(sp, value)
            if sol.ext_dim != dim:
                raise ArithmeticError(
                    "scan specialization and direct solve disagree "
                    f"at t={value}: {dim} vs {sol.ext_dim}"
                )
            witnesses = sol.basis
        out.append(
            SpecialPoint(
                delta=point.delta,
                dbar=point.dbar,
                t_value=value,
                dim=dim,
                degenerate=degenerate,
                witnesses=witnesses,
            )
        )
    return out


def _sample_t(sp: ScanProblem, rep: ScanReport) -> Fraction:
    """First small integer t that avoids certificate roots and zero weights."""
    t0 = Fraction(1)
    while sp.specialize(t0).degenerate_weights() or not rep.certificate.eval(t0):
        t0 += 1
    return t0


def _line_entry(b, diff, sector, caps) -> LineEntry:
    sp = scan_dbar(b, diff, sector=sector, caps=caps)
    rep = special_values(sp)
    g_generic = _line_data(sp).g_generic
    families = []
    fam = line_family(sp)
    if fam is not None:
        families.append((fam, "g family, valid for every t on the line"))
    if rep.generic_dim > g_generic:
        t0 = _sample_t(sp, rep)
        for w in _solve_at(sp, t0).basis:
            if w.g.is_zero():
                families.append((w, f"f family member at sample t={t0}"))
    return LineEntry(rep, g_generic, families, _line_specials(sp, rep))


# The b-independent layer is the same for every b at one caps setting;
# classify pays for it once per caps and reuses it for every later b.
@lru_cache(maxsize=4)
def _virasoro_layer(caps) -> tuple:
    return tuple(_line_entry(None, diff, "f", caps) for diff in candidate_diffs(None, "f"))


def candidate_diffs(b, sector: str) -> list[Fraction]:
    """Candidate weight-difference lines for a sector.

    The g-sector law confines deformations of the second generator to
    diff = m + b with m <= 3; the first-generator sector is blind to b and
    lives on integer differences 0..6.  Both bounds are theorems re-checked
    by the test suite's off-line probes, not heuristics.  ``b`` is None, an
    ``int`` or a ``Fraction``; ``sector`` is one of ``SECTORS``.
    """
    if sector not in SECTORS:
        raise ValueError(f"sector must be one of {SECTORS}, got {sector!r}")
    g_lines = []
    if b is not None:
        b = _scan_b(b)
        g_lines = [m + b for m in range(_MAX_G_DEGREE + 1)]
    f_lines = [Fraction(s) for s in range(7)]
    if sector == "g":
        return g_lines
    if sector == "f":
        return f_lines
    return sorted(set(g_lines) | set(f_lines))


def classify(b, caps=None) -> ClassifyReport:
    """Classify all extension lines and isolated points for one rational b,
    an ``int`` or a ``Fraction``; any other value raises ``ValueError``.

    Runs scans over every candidate line: the b-independent layer (f-only
    witnesses) once, and the four g-sector lines diff = m + b with their
    f-companions.  Entries record generic dimensions, one-parameter family
    witnesses, and confirmed isolated jumps with engine witnesses.
    """
    b = _scan_b(b)
    caps = caps if caps is not None else Caps()
    per_b = [_line_entry(b, diff, "full", caps) for diff in candidate_diffs(b, "g")]
    return ClassifyReport(b=b, layer=_virasoro_layer(caps), per_b=per_b)
