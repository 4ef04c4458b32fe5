"""Exact scalar arithmetic: rationals and real quadratic-extension elements.

Every number in this package is either a ``fractions.Fraction`` (kept in
lowest terms with positive denominator by the stdlib) or a :class:`QuadExt`
value ``p + q*sqrt(disc)`` with rational ``p``, ``q`` and a fixed non-square
integer ``disc``.  Floating point never appears anywhere.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "QuadExt",
    "quad",
    "scalar",
    "parse_rational",
    "split_square",
]

_RAT_RE = re.compile(r"([+-]?[0-9]+)(?:\s*/\s*(-?[0-9]+))?\Z")
_TRIAL_BOUND = 100_000  # split_square's largest trial divisor


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or an integer literal in ASCII decimal digits.
    Decimal/float forms, digit separators (``1_0``) and non-ASCII digits are
    rejected."""
    m = _RAT_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not an exact rational (use p/q or an integer): {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator in rational: {text!r}")
    return Fraction(num, den)


# every QuadExt splits its disc when it is built, and quad() every sum,
# difference and product's; a run meets only a handful of discs
@lru_cache(maxsize=256)
def split_square(n: int) -> tuple[int, int]:
    """Write ``n = s^2 * r`` with ``r`` square-free (best effort) and return ``(s, r)``.

    Trial division stops at ``_TRIAL_BOUND``; a larger square factor stays
    inside ``r``.  That only affects normalisation, never exactness: the
    field Q(sqrt(r)) is the same either way.
    """
    if n == 0:
        return 0, 0
    sign = -1 if n < 0 else 1
    n = abs(n)
    s = 1
    p = 2
    while p * p <= n and p <= _TRIAL_BOUND:
        while n % (p * p) == 0:
            n //= p * p
            s *= p
        p += 1 if p == 2 else 2
    # the remainder may still be a perfect square (one large prime squared)
    r = math.isqrt(n)
    if r * r == n:
        s *= r
        n = 1
    return s, sign * n


def _check_disc(disc) -> None:
    """Refuse a ``disc`` that is not a plain ``int``, a ``bool`` included."""
    if type(disc) is not int:
        raise ValueError(f"disc must be an int, got {disc!r}")


class QuadExt:
    """An element ``p + q*sqrt(disc)`` of a quadratic extension of Q.

    Instances always have ``q != 0``; purely rational results collapse back to
    ``Fraction`` (see :func:`quad`), so equality and hashing never straddle the
    two types.  ``disc`` is a non-square ``int`` (no other type is taken,
    here or by :func:`quad`), negative values allowed
    (a square one is refused: :func:`quad` makes that value a ``Fraction``),
    whose square part :func:`split_square` folds into ``q``, so one field
    has one ``disc``: ``QuadExt(0, 1, 12)`` is ``QuadExt(0, 2, 3)``.
    Elements over different fields cannot be mixed.
    """

    __slots__ = ("p", "q", "disc")

    def __init__(self, p, q, disc: int):
        _check_disc(disc)
        p = Fraction(p)
        q = Fraction(q)
        if q == 0:
            raise ValueError("QuadExt requires q != 0; use quad() for general construction")
        s, r = split_square(disc)
        if r in (0, 1):
            msg = f"invalid discriminant {disc}: sqrt({disc}) is rational"
            raise ValueError(f"{msg}; use quad() for general construction")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q * s)
        object.__setattr__(self, "disc", r)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    # -- helpers -----------------------------------------------------------

    def _match(self, other):
        """Coerce ``other`` into (p, q) parts over this element's field."""
        if isinstance(other, QuadExt):
            if other.disc != self.disc:
                raise ValueError(
                    f"mixed quadratic fields: sqrt({self.disc}) vs sqrt({other.disc})"
                )
            return other.p, other.q
        if isinstance(other, (int, Fraction)):
            return Fraction(other), Fraction(0)
        return None

    def norm(self) -> Fraction:
        """Field norm ``p^2 - disc*q^2`` (rational, nonzero for nonzero elements)."""
        return self.p * self.p - self.disc * self.q * self.q

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        parts = self._match(other)
        if parts is None:
            return NotImplemented
        op, oq = parts
        return quad(self.p + op, self.q + oq, self.disc)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.p, -self.q, self.disc)

    def __sub__(self, other):
        parts = self._match(other)
        if parts is None:
            return NotImplemented
        op, oq = parts
        return quad(self.p - op, self.q - oq, self.disc)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        parts = self._match(other)
        if parts is None:
            return NotImplemented
        op, oq = parts
        return quad(
            self.p * op + self.q * oq * self.disc,
            self.p * oq + self.q * op,
            self.disc,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero norm in quadratic field inverse")
        return QuadExt(self.p / n, -self.q / n, self.disc)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError
            return QuadExt(self.p / other, self.q / other, self.disc)
        if isinstance(other, QuadExt):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        inv = self.inverse()
        return inv * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = Fraction(1)
        base = self
        while n:
            if n & 1:
                out = base * out
            base = base * base
            n >>= 1
        return out

    # -- comparison / formatting ------------------------------------------

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return (self.p, self.q, self.disc) == (other.p, other.q, other.disc)
        if isinstance(other, (int, Fraction)):
            return False  # q != 0 always
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.q, self.disc))

    def __bool__(self):
        return True

    def __str__(self):
        root = f"sqrt({self.disc})"
        if self.q == 1:
            qs = root
        elif self.q == -1:
            qs = f"-{root}"
        else:
            qs = f"{self.q}*{root}"
        if self.p == 0:
            return qs
        sign = "-" if self.q < 0 else "+"
        mag = qs.lstrip("-") if self.q < 0 else qs
        return f"{self.p}{sign}{mag}"

    def __repr__(self):
        return f"QuadExt({self.p!r}, {self.q!r}, {self.disc})"


def quad(p, q, disc: int):
    """Construct ``p + q*sqrt(disc)``, collapsing to ``Fraction`` when exact.

    ``q = 0``, ``disc = 0`` and a perfect-square ``disc`` yield a plain
    rational; any other value is a :class:`QuadExt`, which folds the square
    part of ``disc`` into ``q``, so ``quad(0, 1, 12) == quad(0, 2, 3)``.
    """
    _check_disc(disc)
    p = Fraction(p)
    q = Fraction(q)
    if q == 0 or disc == 0:
        return p
    s, r = split_square(disc)
    if r == 1:
        return p + q * s
    return QuadExt(p, q, disc)


def scalar(x, name: str):
    """``x`` as an exact weight: a ``QuadExt`` as is, an ``int`` or a
    ``Fraction`` as ``Fraction``.  Any other value, a ``bool`` included,
    raises ``ValueError`` naming it ``name``."""
    if isinstance(x, QuadExt):
        return x
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise ValueError(f"{name} must be an int, a Fraction or a QuadExt, got {x!r}")
    return Fraction(x)
