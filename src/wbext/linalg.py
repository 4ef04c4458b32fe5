"""Exact Gaussian elimination over Q and Q(sqrt D), in integer arithmetic.

Every row and vector the package builds, from assembly to this kernel, is a
*sparse row*: a tuple of ``(column, value)`` pairs in strictly ascending
column order, every value non-zero; the zero row is ``()``.  The systems are
about 2% non-zero, and iterating a sparse row visits exactly those entries.

Values that go in may be ``int``, ``Fraction`` or ``QuadExt``, or ``a +
b*sqrt(D)`` numerators (:class:`_Root`), mixed freely; a row scaled by a
non-zero constant spans the same line, so a caller may hand in integer (or
Z[sqrt D]) numerators over a common denominator it leaves out.  Values
that come out (:attr:`RowSpace.rows`, :meth:`RowSpace.reduce`, :func:`rref`
and :func:`nullspace`) are ``Fraction``, or ``QuadExt`` where irrational.

Inside, each row has its denominators cleared: ``{column: numerator}`` over
one positive ``int`` denominator, the numerators in Z, or in Z[sqrt D]
(:class:`_Root`) once a Q(sqrt D) value arrives.  A stored row's numerator
at its lead column *is* its denominator, so its lead value is 1; a new row
gets there by multiplying by its lead's conjugate (when irrational) and the
lead's sign.  Clearing a column multiplies a row by the least factor that
lets the pivot row's multiple be subtracted in integers; after every update
that scaled it, the row is divided by the gcd of its denominator and its
numerators' integer components, which keeps the numbers small.  No
``Fraction`` is built until a value is handed back.

The one elimination kernel, :class:`RowSpace`, holds the reduced row-echelon
form (RREF) of everything added to it; :meth:`RowSpace.reduce` is the one
reduction of a vector modulo a row space, and membership is
``not rs.reduce(vec)``.  The RREF of a matrix is unique, so pivots, RREF
rows, nullspace bases and reduction residues depend only on the row space,
never on the order in which rows arrive or are eliminated: repeated runs
give identical bases.  This is fraction-free elimination with each row kept
primitive (Geddes, Czapor & Labahn 1992, ch. 9), not Bareiss: a row is
touched only when a pivot row meets it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .qext import QuadExt, quad

__all__ = ["rref", "rank", "nullspace", "numerators", "RowSpace"]


class _Root:
    """``a + b*sqrt(disc)`` with integers ``a`` and ``b != 0``: an irrational
    numerator.  Sums, products and differences collapse to ``int`` when the
    irrational part cancels (see :func:`_root`), so a ``_Root`` is never zero
    and never equal to an ``int``."""

    __slots__ = ("a", "b", "disc")
    denominator = 1  # a numerator already, like an ``int``

    def __init__(self, a: int, b: int, disc: int):
        self.a, self.b, self.disc = a, b, disc

    def __add__(self, other):
        if type(other) is int:
            return _Root(self.a + other, self.b, self.disc)
        return _root(self.a + other.a, self.b + other.b, self.disc)

    __radd__ = __add__

    def __mul__(self, other):
        if type(other) is int:
            return _root(self.a * other, self.b * other, self.disc)
        a, b = other.a, other.b
        return _root(self.a * a + self.disc * self.b * b, self.a * b + self.b * a, self.disc)

    __rmul__ = __mul__

    def __sub__(self, other):
        if type(other) is int:
            return _Root(self.a - other, self.b, self.disc)
        return _root(self.a - other.a, self.b - other.b, self.disc)

    def __rsub__(self, other):
        return _Root(other - self.a, -self.b, self.disc)

    def __neg__(self):
        return _Root(-self.a, -self.b, self.disc)

    def __floordiv__(self, g: int):
        return _Root(self.a // g, self.b // g, self.disc)

    def conj(self) -> "_Root":
        return _Root(self.a, -self.b, self.disc)


def _root(a: int, b: int, disc: int):
    return _Root(a, b, disc) if b else a


def _root_gcd(*values) -> int:
    """The gcd of the integer components of numerators in Z or Z[sqrt D]."""
    return gcd(*[x for v in values for x in ((v.a, v.b) if type(v) is _Root else (v,))])


def _root_of(v, den: int) -> "_Root":
    """The numerator over ``den`` of a ``QuadExt``, or of a numerator ``_Root``
    already over 1."""
    if type(v) is _Root:
        return v if den == 1 else v * den
    p, q = v.p, v.q
    return _Root(p.numerator * (den // p.denominator), q.numerator * (den // q.denominator), v.disc)


def numerators(vec, root_of=_root_of) -> tuple[dict, int]:
    """``vec`` as ``({column: numerator}, denominator)``: its values times
    their least common denominator, in Z or in Z[sqrt D] (:class:`_Root`).

    Values may be ``int``, ``Fraction``, ``QuadExt`` or ``_Root``; ``root_of``
    makes an irrational value's numerator (the kernel's also checks its
    field).
    """
    den = lcm(
        *[
            lcm(v.p.denominator, v.q.denominator) if type(v) is QuadExt else v.denominator
            for _c, v in vec
        ]
    )
    row = {
        c: v * den
        if type(v) is int
        else v.numerator * (den // v.denominator)
        if type(v) is Fraction
        else root_of(v, den)
        for c, v in vec
    }
    return row, den


def _value(num, den: int):
    """The entry ``num / den`` as a ``Fraction`` or ``QuadExt``."""
    if type(num) is _Root:
        return quad(Fraction(num.a, den), Fraction(num.b, den), num.disc)
    return Fraction(num, den)


class RowSpace:
    """Incrementally maintained RREF row space over sparse rows.

    Each added row is reduced against the current pivot rows, normalised at
    its leading column and back-substituted into the other pivot rows, so
    the stored rows always form the RREF of the span.
    """

    def __init__(self):
        self._prows: dict[int, dict] = {}  # pivot column -> RREF row, numerators
        self._disc = None  # D once a Q(sqrt D) value has arrived
        self._gcd = gcd  # the content of numerators in Z, or in Z[sqrt D]

    def _clear(self, vec) -> tuple[dict, int]:
        """``vec`` as ``({column: numerator}, denominator)``; see :func:`numerators`."""
        return numerators(vec, self._root_of)

    def _root_of(self, v, den: int) -> _Root:
        """:func:`_root_of`, once ``v``'s field is known to be this row
        space's: all of its values must lie in one field Q(sqrt D)."""
        if v.disc != self._disc:
            if self._disc is not None:
                raise ValueError(f"mixed quadratic fields: sqrt({self._disc}) vs sqrt({v.disc})")
            self._disc = v.disc
            self._gcd = _root_gcd
        return _root_of(v, den)

    def _step(self, row: dict, col: int, prow: dict, den: int = 0) -> int:
        """Clear ``row[col]`` with the pivot row ``prow``: ``row := m*row -
        x*prow`` in place, for the least such ``m``.  Then, if ``m != 1``,
        divide ``row`` and its denominator ``den`` by their content; returns
        the new denominator.  A stored row's denominator is its lead, so it
        passes none (0)."""
        x, m = row[col], prow[col]
        g = self._gcd(x, m)
        if g != 1:
            x, m = x // g, m // g
        if m != 1:
            for c in row:
                row[c] = m * row[c]
        for c, v in prow.items():
            old = row.get(c)
            if old is None:
                row[c] = -x * v
            else:
                new = old - x * v
                if new:
                    row[c] = new
                else:
                    del row[c]
        return den if m == 1 else self._shrink(row, den * m)

    def _shrink(self, row: dict, den: int = 0) -> int:
        """Divide ``row`` and ``den`` by their common content; returns ``den``."""
        g = self._gcd(den, *row.values())
        if g != 1:
            for c in row:
                row[c] = row[c] // g
            den //= g
        return den

    def _reduce(self, row: dict, den: int) -> int:
        """Reduce ``row`` over ``den`` in place against the RREF rows; returns
        the new denominator.

        Each RREF row is zero at every other pivot column, so one pass over the
        pivot columns present in ``row`` clears them all.
        """
        prows = self._prows
        for col in [c for c in row if c in prows]:
            den = self._step(row, col, prows[col], den)
        return den

    def _insert(self, row: dict, den: int) -> bool:
        self._reduce(row, den)
        if not row:
            return False
        lead = min(row)
        x = row[lead]
        if type(x) is _Root:
            conj = x.conj()
            for c in row:
                row[c] = row[c] * conj
            x = row[lead]
        if x < 0:
            for c in row:
                row[c] = -row[c]
        self._shrink(row)
        for prow in self._prows.values():
            if lead in prow:
                self._step(prow, lead, row)
        self._prows[lead] = row
        return True

    def add(self, vec) -> bool:
        """Insert ``vec`` if independent of the current span.  Returns True if added."""
        return self._insert(*self._clear(vec))

    def reduce(self, vec) -> tuple:
        """Residue of ``vec`` modulo the span; zero at every pivot column."""
        row, den = self._clear(vec)
        den = self._reduce(row, den)
        return tuple([(c, _value(v, den)) for c, v in sorted(row.items())])

    def dim(self) -> int:
        return len(self._prows)

    @property
    def pivots(self) -> list[int]:
        return sorted(self._prows)

    @property
    def rows(self) -> list[tuple]:
        """RREF rows in pivot order."""
        out = []
        for p in self.pivots:
            prow = self._prows[p]
            out.append(tuple([(c, _value(v, prow[p])) for c, v in sorted(prow.items())]))
        return out


def _eliminate(rows) -> RowSpace:
    rs = RowSpace()
    for row in rows:
        rs._insert(*rs._clear(row))
    return rs


def rref(rows):
    """Reduced row-echelon form.  Returns ``(rref_rows, pivot_cols)``.

    Zero rows are dropped; input rows are not mutated.
    """
    rs = _eliminate(rows)
    return rs.rows, rs.pivots


def rank(rows) -> int:
    return _eliminate(rows).dim()


def nullspace(rows, ncols: int):
    """Canonical nullspace basis; ``ncols`` counts the columns.

    One vector per free column, ordered by free-column index; each vector is
    scaled so its first nonzero coordinate equals 1.
    """
    prows = _eliminate(rows)._prows
    # free column -> [(pivot column, numerator, denominator)], pivot columns ascending
    entries: dict[int, list] = {}
    for pcol in sorted(prows):
        prow = prows[pcol]
        den = prow[pcol]
        for c, v in prow.items():
            if c != pcol:
                entries.setdefault(c, []).append((pcol, v, den))
    basis = []
    for fc in range(ncols):
        if fc in prows:
            continue
        col = entries.get(fc)
        if not col:
            basis.append(((fc, Fraction(1)),))
            continue
        # the vector is e_fc minus the RREF column; every pivot column that
        # meets fc lies left of it, so the first of them leads.  Dividing by
        # that lead y/d0 multiplies by d0*conj(y)/norm(y), norm(y) an int.
        _p0, y, d0 = col[0]
        conj = y.conj() if type(y) is _Root else 1
        norm = y * conj
        basis.append(
            tuple(
                [(pcol, _value(v * d0 * conj, den * norm)) for pcol, v, den in col]
                + [(fc, _value(-d0 * conj, norm))]
            )
        )
    return basis
