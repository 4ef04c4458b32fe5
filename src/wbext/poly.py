"""Exact multivariate polynomials over a fixed four-variable universe.

The variable universe is fixed once and for all: ``d`` (the translation
generator, displayed elsewhere as the symbol usually written with a curly
partial), ``l`` and ``u`` (the two bracket parameters lambda and mu) and ``t``
(the scan parameter a weight gets promoted to).  Keeping the universe fixed
makes substitution, coefficient extraction and rendering entirely canonical.

Coefficients are ``Fraction`` or :class:`~wbext.qext.QuadExt`; mixing the two
promotes rationals into the quadratic field, while two different quadratic
fields refuse to mix.

Every ``MultiPoly`` holds a ``terms`` dict with 4-tuple int exponents and
non-zero ``Fraction`` or ``QuadExt`` coefficients, never ``int``.  The public
constructor establishes this by validating its input: an ``int`` becomes a
``Fraction``, and any other coefficient (a ``float``, a ``bool`` or a
``str``, say) raises ``ValueError``.  The arithmetic in this module (``+``,
``-``, negation, ``*`` by a polynomial or a scalar, and ``subst``) builds
dicts that already hold it and wraps them with the private
``MultiPoly._clean``, which checks nothing; no other code may call it.

The product of two polynomials relies on that invariant.  It writes each
operand once as integer numerators over the lcm of its denominators (``a``
over Q, or ``a + b*sqrt(disc)`` when the coefficients lie in one field
Q(sqrt(disc))), sums the term-pair products as plain ``int``
multiply-adds, and builds one coefficient per output term, through
:func:`~wbext.qext.quad` when it is irrational.  The terms come out in the
order, and with the values, of the pairwise product in the coefficients'
own arithmetic.  That product still serves an operand of at most one term,
which leaves nothing to accumulate, and operands over two different
fields, whose ``ValueError`` it raises.

A polynomial in the scan variable alone is a :class:`UniPoly`, the public
type of the scanner's pivots and certificates: a read-only dense
coefficient tuple, in practice over Z, with its degree, equality and
evaluation at a ``Fraction`` or ``QuadExt`` point.  It has no arithmetic:
the scanner's products, gcds, square-free parts and root finding work on
plain integer coefficient tuples in Z[t] (see :mod:`wbext.scanner`).  Only
rendering goes through ``MultiPoly``, so both print alike.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .qext import QuadExt, quad

__all__ = [
    "VARS",
    "DegreeError",
    "MultiPoly",
    "D",
    "L",
    "U",
    "T",
    "UniPoly",
]

VARS = ("d", "l", "u", "t")
_VAR_INDEX = {v: i for i, v in enumerate(VARS)}
_ZERO4 = (0, 0, 0, 0)


def _is_scalar(x) -> bool:
    return isinstance(x, (int, Fraction, QuadExt)) and not isinstance(x, bool)


def _as_coeff(x):
    if isinstance(x, (Fraction, QuadExt)):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise ValueError(f"coefficient must be an int, a Fraction or a QuadExt, got {x!r}")


def _numerators(terms: dict):
    """``terms`` as integer numerators over one common denominator.

    Returns ``(den, disc, items)``: each ``(exps, a, b)`` in ``items`` stands
    for the coefficient ``(a + b*sqrt(disc)) / den``, in ``terms``' order.
    Over Q, ``disc`` is 0 and every ``b`` is 0.  Returns None when the
    ``QuadExt`` coefficients do not share one ``disc`` or a coefficient is
    neither a ``Fraction`` nor a ``QuadExt``.
    """
    disc = 0
    dens = []
    for c in terms.values():
        if type(c) is Fraction:
            dens.append(c.denominator)
        elif type(c) is QuadExt and disc in (0, c.disc):
            disc = c.disc
            dens.append(c.p.denominator)
            dens.append(c.q.denominator)
        else:
            return None
    den = math.lcm(*dens)
    if not disc:
        return den, 0, [(e, c.numerator * (den // c.denominator), 0) for e, c in terms.items()]
    items = []
    for e, c in terms.items():
        if type(c) is Fraction:
            items.append((e, c.numerator * (den // c.denominator), 0))
        else:
            p, q = c.p, c.q
            a = p.numerator * (den // p.denominator)
            items.append((e, a, q.numerator * (den // q.denominator)))
    return den, disc, items


class MultiPoly:
    """Sparse exact polynomial in the fixed universe ``d``, ``l``, ``u``, ``t``.

    Immutable; all arithmetic returns new instances.  Term order everywhere is
    graded lexicographic with ``d > l > u > t``, descending.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for exps, c in terms.items():
                c = _as_coeff(c)
                if c == 0:
                    continue
                clean[tuple(exps)] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _clean(cls, terms: dict) -> "MultiPoly":
        """Wrap a fresh dict that already holds the ``terms`` invariant (see
        the module docstring) as is, without validating it."""
        out = object.__new__(cls)
        object.__setattr__(out, "terms", terms)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "MultiPoly":
        return cls({_ZERO4: c})

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        exps = [0, 0, 0, 0]
        exps[_VAR_INDEX[name]] = 1
        return cls({tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, exps, c=Fraction(1)) -> "MultiPoly":
        return cls({tuple(exps): c})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int:
        """The largest total degree of a term; 0 for the zero polynomial."""
        return max(map(sum, self.terms), default=0)

    def uses_var(self, name: str) -> bool:
        i = _VAR_INDEX[name]
        return any(e[i] for e in self.terms)

    def constant_value(self):
        """The value of a constant polynomial (raises if any variable occurs)."""
        if not self.terms:
            return Fraction(0)
        if list(self.terms) != [_ZERO4]:
            raise ValueError(f"polynomial is not constant: {self}")
        return self.terms[_ZERO4]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            if not _is_scalar(other):
                return NotImplemented
            other = MultiPoly.const(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            acc = out.get(exps)
            acc = c if acc is None else acc + c
            if acc:
                out[exps] = acc
            else:
                del out[exps]
        return MultiPoly._clean(out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._clean({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            if not _is_scalar(other):
                return NotImplemented
            other = MultiPoly.const(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            acc = out.get(exps)
            acc = -c if acc is None else acc - c
            if acc:
                out[exps] = acc
            else:
                del out[exps]
        return MultiPoly._clean(out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            if not _is_scalar(other):
                return NotImplemented
            c = _as_coeff(other)
            if c == 0:
                return MultiPoly.zero()
            # a field has no zero divisors, so no product term vanishes
            return MultiPoly._clean({e: cc * c for e, cc in self.terms.items()})
        # with at most one term on a side there is nothing to accumulate, and
        # the pairwise loop is the cheaper one; a monomial of coefficient 1,
        # such as d or l, only shifts the other side's exponents
        if len(self.terms) < 2 or len(other.terms) < 2:
            for mono, rest in ((other, self), (self, other)):
                if len(mono.terms) == 1:
                    [(exps, c)] = mono.terms.items()
                    if c == 1:
                        return rest._shifted(exps)
            return self._pairwise_mul(other)
        views = (_numerators(self.terms), _numerators(other.terms))
        if None in views:
            return self._pairwise_mul(other)
        (den1, disc1, left), (den2, disc2, right) = views
        if disc1 and disc2 and disc1 != disc2:
            return self._pairwise_mul(other)
        den, disc = den1 * den2, disc1 or disc2
        out = {}
        get = out.get
        if not disc:
            for (a0, a1, a2, a3), n1, _ in left:
                for (b0, b1, b2, b3), n2, _ in right:
                    e = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
                    out[e] = get(e, 0) + n1 * n2
            return MultiPoly._clean({e: Fraction(n, den) for e, n in out.items() if n})
        # (p1 + q1*r)(p2 + q2*r) with r = sqrt(disc): rational parts in out,
        # irrational parts in irr, both keyed in the pairwise loop's order
        irr = {}
        iget = irr.get
        for (a0, a1, a2, a3), p1, q1 in left:
            dq1 = disc * q1
            for (b0, b1, b2, b3), p2, q2 in right:
                e = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
                out[e] = get(e, 0) + p1 * p2 + dq1 * q2
                irr[e] = iget(e, 0) + p1 * q2 + q1 * p2
        terms = {}
        for e, p in out.items():
            q = irr[e]
            c = quad(Fraction(p, den), Fraction(q, den), disc) if q else Fraction(p, den)
            if c:
                terms[e] = c
        return MultiPoly._clean(terms)

    def _shifted(self, exps) -> "MultiPoly":
        """The product with the monomial of exponents ``exps`` and coefficient
        1: every term's exponents raised by ``exps``, its coefficient and its
        place kept, as the pairwise loop leaves them."""
        b0, b1, b2, b3 = exps
        return MultiPoly._clean(
            {(a0 + b0, a1 + b1, a2 + b2, a3 + b3): c for (a0, a1, a2, a3), c in self.terms.items()}
        )

    def _pairwise_mul(self, other: "MultiPoly") -> "MultiPoly":
        """The product one term pair at a time, in the coefficients' own
        arithmetic: for an operand of at most one term, and for operands
        :func:`_numerators` cannot write over Z, such as two quadratic
        fields, whose mix ``QuadExt`` refuses with its own ``ValueError``."""
        out = {}
        get = out.get
        right = other.terms.items()
        for (a0, a1, a2, a3), c1 in self.terms.items():
            for (b0, b1, b2, b3), c2 in right:
                e = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
                acc = get(e)
                out[e] = c1 * c2 if acc is None else acc + c1 * c2
        return MultiPoly._clean({e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = MultiPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if _is_scalar(other):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- substitution ------------------------------------------------------

    def subst(self, name: str, value: "MultiPoly") -> "MultiPoly":
        """Substitute ``value`` for the variable ``name`` and re-expand.

        A variable absent from ``self`` is not an error; the polynomial is
        returned unchanged.
        """
        if _is_scalar(value):
            value = MultiPoly.const(value)
        i = _VAR_INDEX[name]
        if not self.uses_var(name):
            return self
        powers = {1: value}
        maxk = max(e[i] for e in self.terms)
        for k in range(2, maxk + 1):
            powers[k] = powers[k - 1] * value
        out = {}
        get = out.get
        for exps, c in self.terms.items():
            k = exps[i]
            rest = exps[:i] + (0,) + exps[i + 1 :]
            if not k:
                acc = get(rest)
                out[rest] = c if acc is None else acc + c
                continue
            r0, r1, r2, r3 = rest
            for (b0, b1, b2, b3), c2 in powers[k].terms.items():
                e = (r0 + b0, r1 + b1, r2 + b2, r3 + b3)
                acc = get(e)
                out[e] = c * c2 if acc is None else acc + c * c2
        return MultiPoly._clean({e: c for e, c in out.items() if c})

    def shift(self, name: str, by) -> "MultiPoly":
        """Substitute ``name -> name + by`` where ``by`` must not contain ``name``."""
        if _is_scalar(by):
            by = MultiPoly.const(by)
        if by.uses_var(name):
            raise ValueError(f"shift offset must not contain {name!r}: {by}")
        return self.subst(name, MultiPoly.var(name) + by)

    def rename(self, old: str, new: str) -> "MultiPoly":
        """Substitute ``old -> new`` (``new`` a plain variable)."""
        return self.subst(old, MultiPoly.var(new))

    def coeffs_by(self, names: tuple[str, ...]):
        """Group terms by their monomial in ``names``.

        Returns ``[(exps, coefficient_poly)]`` where ``exps`` runs over the
        distinct exponent patterns in ``names`` (tuple aligned with
        ``names``) and each coefficient is a polynomial in the others.  Pairs
        are sorted graded-lex descending on ``exps``.
        """
        idxs = [_VAR_INDEX[n] for n in names]
        groups: dict[tuple, dict] = {}
        for exps, c in self.terms.items():
            key = tuple(exps[i] for i in idxs)
            rest = list(exps)
            for i in idxs:
                rest[i] = 0
            groups.setdefault(key, {})[tuple(rest)] = c
        out = [(key, MultiPoly(terms)) for key, terms in groups.items()]
        out.sort(key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
        return out

    # -- rendering ---------------------------------------------------------

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda ec: (sum(ec[0]), ec[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for exps, c in self._sorted_terms():
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v for v, k in zip(VARS, exps) if k
            )
            if isinstance(c, QuadExt):
                body = f"({c})" + (f"*{mono}" if mono else "")
                sign = "+"
            else:
                sign = "-" if c < 0 else "+"
                a = abs(c)
                if not mono:
                    body = str(a)
                elif a == 1:
                    body = mono
                else:
                    body = f"{a}*{mono}"
            if not chunks:
                chunks.append(body if sign == "+" else f"-{body}")
            else:
                chunks.append(f" {sign} {body}")
        return "".join(chunks)

    def str_in(self, names: tuple[str, ...]) -> str:
        """Render as a polynomial in ``names``, folding every other variable
        into the coefficients (``d - t*l`` rather than ``-l*t + d``)."""
        if not self.terms:
            return "0"
        chunks = []
        for exps, coeff in self.coeffs_by(names):
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v for v, k in zip(names, exps) if k
            )
            neg = False
            if len(coeff.terms) > 1:
                lead = coeff._sorted_terms()[0][1]
                if not isinstance(lead, QuadExt) and lead < 0:
                    neg, coeff = True, -coeff
                body = f"({coeff})*{mono}" if mono else f"({coeff})"
            else:
                text = str(coeff)
                if text.startswith("-"):
                    neg, text = True, text[1:]
                if mono:
                    body = mono if text == "1" else f"{text}*{mono}"
                else:
                    body = text
            if not chunks:
                chunks.append(f"-{body}" if neg else body)
            else:
                chunks.append(f" - {body}" if neg else f" + {body}")
        return "".join(chunks)

    def __repr__(self):
        return f"MultiPoly({self})"

    @classmethod
    def parse(cls, text: str, max_degree: int | None = None) -> "MultiPoly":
        """Parse a rendering back to a polynomial.

        With ``max_degree``, every factor and product is refused with
        :class:`DegreeError` before it is expanded if its total degree would
        exceed it, so a short string of huge degree costs nothing.
        """
        return _parse_poly(text, max_degree)


D = MultiPoly.var("d")
L = MultiPoly.var("l")
U = MultiPoly.var("u")
T = MultiPoly.var("t")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>sqrt|[dlut])|(?P<op>[-+*/^()]))"
)
# Each parenthesis level costs three parser frames, so a bound far above any
# real input keeps a hostile string from exhausting Python's recursion limit.
_MAX_NESTING = 100


class DegreeError(ValueError):
    """A parsed polynomial would exceed its ``max_degree``."""

    def __init__(self, degree: int, bound: int):
        super().__init__(f"total degree {degree} exceeds {bound}")
        self.degree = degree


class _Tokens:
    def __init__(self, text: str, max_degree: int | None = None):
        self.toks = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                raise ValueError(f"cannot parse polynomial near {text[pos:pos+12]!r}")
            pos = m.end()
            self.toks.append(m)
        self.i = 0
        self.depth = 0
        self.max_degree = max_degree

    def check_degree(self, degree: int) -> None:
        if degree > self.max_degree:
            raise DegreeError(degree, self.max_degree)

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.i += 1
        return tok


def _parse_poly(text: str, max_degree: int | None = None) -> MultiPoly:
    """Parse the canonical rendering (and reasonable variants) back to a poly."""
    toks = _Tokens(text, max_degree)
    out = _parse_sum(toks)
    if toks.peek() is not None:
        raise ValueError(f"trailing input in polynomial: {text!r}")
    return out


def _parse_sum(toks) -> MultiPoly:
    total = MultiPoly.zero()
    sign = 1
    first = True
    pending = False
    while True:
        tok = toks.peek()
        if tok is None:
            if first or pending:
                raise ValueError("polynomial ends after a sign" if pending else "empty polynomial")
            break
        if tok.group("op") in ("+", "-"):
            toks.next()
            pending = True
            if tok.group("op") == "-":
                sign = -sign
            continue
        if tok.group("op") == ")":
            if pending:
                raise ValueError("missing term after a sign")
            break
        term = _parse_term(toks)
        total = total + (term * sign)
        sign = 1
        first = False
        pending = False
        nxt = toks.peek()
        if nxt is None or nxt.group("op") == ")":
            break
        if nxt.group("op") not in ("+", "-"):
            raise ValueError(f"expected + or - near {nxt.group(0)!r}")
    return total


def _parse_term(toks) -> MultiPoly:
    out = _parse_factor(toks)
    while True:
        tok = toks.peek()
        if tok is None or tok.group("op") != "*":
            return out
        toks.next()
        factor = _parse_factor(toks)
        if toks.max_degree is not None:
            toks.check_degree(out.total_degree() + factor.total_degree())
        out = out * factor


def _parse_factor(toks) -> MultiPoly:
    tok = toks.next()
    if tok is None:
        raise ValueError("unexpected end of polynomial")
    if tok.group("op") == "(":
        toks.depth += 1
        if toks.depth > _MAX_NESTING:
            raise ValueError(f"polynomial nests deeper than {_MAX_NESTING} parentheses")
        inner = _parse_sum(toks)
        toks.depth -= 1
        closing = toks.next()
        if closing is None or closing.group("op") != ")":
            raise ValueError("unbalanced parenthesis in polynomial")
        return _maybe_power(toks, inner)
    if tok.group("num"):
        num = Fraction(int(tok.group("num")))
        nxt = toks.peek()
        if nxt is not None and nxt.group("op") == "/":
            toks.next()
            den = toks.next()
            if den is None or not den.group("num"):
                raise ValueError("expected denominator after /")
            num = num / int(den.group("num"))
        return _maybe_power(toks, MultiPoly.const(num))
    name = tok.group("name")
    if name is None:
        raise ValueError(f"unexpected {tok.group()!r} in polynomial")
    if name == "sqrt":
        opener = toks.next()
        if opener is None or opener.group("op") != "(":
            raise ValueError("expected ( after sqrt")
        sign = 1
        tok2 = toks.next()
        if tok2 is not None and tok2.group("op") == "-":
            sign = -1
            tok2 = toks.next()
        if tok2 is None or not tok2.group("num"):
            raise ValueError("expected integer inside sqrt()")
        disc = sign * int(tok2.group("num"))
        closing = toks.next()
        if closing is None or closing.group("op") != ")":
            raise ValueError("unbalanced parenthesis in sqrt()")
        return _maybe_power(toks, MultiPoly.const(quad(0, 1, disc)))
    return _maybe_power(toks, MultiPoly.var(name))


def _maybe_power(toks, base: MultiPoly) -> MultiPoly:
    n = 1
    tok = toks.peek()
    if tok is not None and tok.group("op") == "^":
        toks.next()
        exp = toks.next()
        if exp is None or not exp.group("num"):
            raise ValueError("expected integer exponent after ^")
        n = int(exp.group("num"))
    if toks.max_degree is not None:
        toks.check_degree(base.total_degree() * n)
    return base if n == 1 else base**n


# ---------------------------------------------------------------------------
# dense univariate polynomials in t
# ---------------------------------------------------------------------------


class UniPoly:
    """A polynomial in ``t`` as a read-only value: the scanner's pivots and
    certificates, with ``int`` coefficients.

    ``coeffs`` holds the coefficients as given, lowest degree first, with
    trailing zeros stripped; nothing is coerced.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    def to_multipoly(self) -> MultiPoly:
        return MultiPoly({(0, 0, 0, k): c for k, c in enumerate(self.coeffs)})

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def eval(self, x):
        """Evaluate at a Fraction or QuadExt point via Horner."""
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __str__(self):
        return str(self.to_multipoly())

    def __repr__(self):
        return f"UniPoly({self.to_multipoly()})"
