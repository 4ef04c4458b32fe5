"""Exact Gaussian elimination over any field with Python operator support.

Entries are ``Fraction`` or ``QuadExt`` values.  Every row and vector the
package builds, from assembly to this kernel, is a *sparse row*: a tuple of
``(column, value)`` pairs in strictly ascending column order, every value
non-zero; the zero row is ``()``.  The systems are about 2% non-zero, and
iterating a sparse row visits exactly those entries.  The one elimination
kernel, :class:`RowSpace`, reduces rows as ``{column: value}`` dicts;
:meth:`RowSpace.reduce` is the one reduction of a vector modulo a row
space, and membership is ``not rs.reduce(vec)``.

The kernel holds the reduced row-echelon form (RREF) of everything added to
it.  The RREF of a matrix is unique, so pivots, RREF rows, nullspace bases
and reduction residues depend only on the row space, never on the order in
which rows arrive or are eliminated: repeated runs give identical bases.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["rref", "rank", "nullspace", "RowSpace"]


def _pairs(row: dict) -> tuple:
    return tuple(sorted(row.items()))


def _subtract(row: dict, factor, prow: dict) -> None:
    """``row -= factor * prow`` in place, dropping entries that cancel."""
    for c, v in prow.items():
        old = row.get(c)
        if old is None:
            row[c] = -factor * v
        else:
            new = old - factor * v
            if new:
                row[c] = new
            else:
                del row[c]


def _reduce(row: dict, prows: dict) -> dict:
    """Reduce ``row`` in place against RREF rows keyed by pivot column.

    Each RREF row is zero at every other pivot column, so one pass over the
    pivot columns present in ``row`` clears them all.
    """
    for col in [c for c in row if c in prows]:
        _subtract(row, row[col], prows[col])
    return row


class RowSpace:
    """Incrementally maintained RREF row space over sparse rows.

    Each added row is reduced against the current pivot rows, normalised at
    its leading column and back-substituted into the other pivot rows, so
    the stored rows always form the RREF of the span.
    """

    def __init__(self):
        self._prows: dict[int, dict] = {}  # pivot column -> RREF row as a dict

    def _insert(self, row: dict) -> bool:
        row = _reduce(row, self._prows)
        if not row:
            return False
        lead = min(row)
        scale = row[lead]
        if scale != 1:
            row = {c: v / scale for c, v in row.items()}
        for prow in self._prows.values():
            factor = prow.get(lead)
            if factor is not None:
                _subtract(prow, factor, row)
        self._prows[lead] = row
        return True

    def add(self, vec) -> bool:
        """Insert ``vec`` if independent of the current span.  Returns True if added."""
        return self._insert(dict(vec))

    def reduce(self, vec) -> tuple:
        """Residue of ``vec`` modulo the span; zero at every pivot column."""
        return _pairs(_reduce(dict(vec), self._prows))

    def dim(self) -> int:
        return len(self._prows)

    @property
    def pivots(self) -> list[int]:
        return sorted(self._prows)

    @property
    def rows(self) -> list[tuple]:
        """RREF rows in pivot order."""
        return [_pairs(self._prows[p]) for p in self.pivots]


def _eliminate(rows) -> RowSpace:
    rs = RowSpace()
    for row in rows:
        rs._insert(dict(row))
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
    # free column -> [(pivot column, RREF entry)], pivot columns ascending
    entries: dict[int, list] = {}
    for pcol in sorted(prows):
        for c, v in prows[pcol].items():
            if c != pcol:
                entries.setdefault(c, []).append((pcol, v))
    basis = []
    for fc in range(ncols):
        if fc in prows:
            continue
        col = entries.get(fc, [])
        # the vector is e_fc minus the RREF column; every pivot column that
        # meets fc lies left of it, so the first of them leads
        lead = -col[0][1] if col else Fraction(1)
        basis.append(tuple([(pcol, -v / lead) for pcol, v in col] + [(fc, 1 / lead)]))
    return basis
