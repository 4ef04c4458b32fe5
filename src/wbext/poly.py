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
constructor establishes this by validating its input.  The arithmetic in
this module (``+``, ``-``, negation, ``*`` by a polynomial or a scalar, and
``subst``) builds dicts that already hold it and wraps them with the private
``MultiPoly._clean``, which checks nothing; no other code may call it.

A polynomial in the scan variable alone is a :class:`UniPoly`: a dense
coefficient tuple in ``t`` over Q, with ring arithmetic, ``divmod``, the
monic and primitive forms, and evaluation at a ``Fraction`` or ``QuadExt``
point.  :func:`uni_factor_special` takes a ``UniPoly`` and reports its
factors as ``UniPoly`` values; only rendering goes through ``MultiPoly``,
so both print alike.  The scanner's gcds and square-free parts work on
integer coefficient tuples in Z[t] instead (see :mod:`wbext.scanner`).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .qext import QuadExt, quad

__all__ = [
    "VARS",
    "MultiPoly",
    "D",
    "L",
    "U",
    "T",
    "UniPoly",
    "FactorReport",
    "uni_factor_special",
]

VARS = ("d", "l", "u", "t")
_VAR_INDEX = {v: i for i, v in enumerate(VARS)}
_ZERO4 = (0, 0, 0, 0)


def _is_scalar(x) -> bool:
    return isinstance(x, (int, Fraction, QuadExt))


def _as_coeff(x):
    if isinstance(x, int):
        return Fraction(x)
    return x


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
    def parse(cls, text: str) -> "MultiPoly":
        return _parse_poly(text)


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


class _Tokens:
    def __init__(self, text: str):
        self.toks = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                raise ValueError(f"cannot parse polynomial near {text[pos:pos+12]!r}")
            pos = m.end()
            self.toks.append(m)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.i += 1
        return tok


def _parse_poly(text: str) -> MultiPoly:
    """Parse the canonical rendering (and reasonable variants) back to a poly."""
    toks = _Tokens(text)
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
    factors = [_parse_factor(toks)]
    while True:
        tok = toks.peek()
        if tok is not None and tok.group("op") == "*":
            toks.next()
            factors.append(_parse_factor(toks))
        else:
            break
    out = MultiPoly.const(1)
    for f in factors:
        out = out * f
    return out


def _parse_factor(toks) -> MultiPoly:
    tok = toks.next()
    if tok is None:
        raise ValueError("unexpected end of polynomial")
    if tok.group("op") == "(":
        inner = _parse_sum(toks)
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
    tok = toks.peek()
    if tok is not None and tok.group("op") == "^":
        toks.next()
        exp = toks.next()
        if exp is None or not exp.group("num"):
            raise ValueError("expected integer exponent after ^")
        return base ** int(exp.group("num"))
    return base


# ---------------------------------------------------------------------------
# dense univariate polynomials in t (scanner workhorse)
# ---------------------------------------------------------------------------


class UniPoly:
    """Dense univariate polynomial in ``t`` with ``Fraction`` coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def const(cls, c) -> "UniPoly":
        return cls((c,))

    @classmethod
    def t(cls) -> "UniPoly":
        return cls((0, 1))

    def to_multipoly(self) -> MultiPoly:
        return MultiPoly({(0, 0, 0, k): c for k, c in enumerate(self.coeffs)})

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == UniPoly((other,)).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly((other,))
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return UniPoly(
            [
                (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                for i in range(n)
            ]
        )

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly((other,))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return UniPoly()
            return UniPoly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = UniPoly((Fraction(1),))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def lead(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def monic(self) -> "UniPoly":
        lc = self.lead()
        if lc == 0 or lc == 1:
            return self
        return UniPoly([c / lc for c in self.coeffs])

    def primitive(self) -> tuple["UniPoly", Fraction]:
        """Integer-primitive form with positive leading coefficient.

        Returns ``(prim, content)`` with ``self == content * prim``.
        """
        if not self.coeffs:
            return self, Fraction(1)
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [c * den for c in self.coeffs]
        g = 0
        for c in ints:
            g = math.gcd(g, int(c))
        if g == 0:
            g = 1
        sign = -1 if ints[-1] < 0 else 1
        content = Fraction(sign * g, den)
        return UniPoly([c / content for c in self.coeffs]), content

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        dq = len(rem) - len(div)
        if dq < 0:
            return UniPoly(), self
        quo = [Fraction(0)] * (dq + 1)
        inv = 1 / div[-1]
        for k in range(dq, -1, -1):
            c = rem[k + len(div) - 1] * inv
            quo[k] = c
            if c:
                for j, dc in enumerate(div):
                    rem[k + j] -= c * dc
        return UniPoly(quo), UniPoly(rem)

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


# ---------------------------------------------------------------------------
# special-purpose factorisation in Q[t]
# ---------------------------------------------------------------------------


@dataclass
class FactorReport:
    """Outcome of :func:`uni_factor_special`, every factor a ``UniPoly``.

    ``poly == lead * prod((t - r)^m) * prod(quadratics) * residual`` with the
    quadratics monic and irreducible over Q.  ``residual`` keeps whatever the
    implemented method could not split (degree >= 3, no rational roots, no
    quadratic factor found); the reconstruction identity always holds exactly.
    """

    lead: Fraction
    roots: list  # [(Fraction root, int multiplicity)], sorted
    quadratics: list = field(default_factory=list)  # monic UniPoly
    residual: UniPoly = field(default_factory=lambda: UniPoly.const(1))
    notes: list = field(default_factory=list)


def _divisors(n: int, limit: int = 10**12) -> list[int] | None:
    """All positive divisors of ``|n|``, or None if ``n`` is too large to scan."""
    n = abs(n)
    if n == 0:
        return None
    if n > limit:
        return None
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def _rational_roots(p: UniPoly) -> tuple[list, UniPoly, list]:
    """Strip all rational roots (with multiplicity) off a monic polynomial.

    Returns ``(sorted roots, monic remainder, notes)``.  Root candidates come
    from the primitive integer form via the rational-root theorem, so the
    extraction is complete whenever the divisor scans fit the size limit.
    """
    roots: dict[Fraction, int] = {}
    notes: list[str] = []
    k = 0
    cs = list(p.coeffs)
    while cs and cs[0] == 0:
        cs.pop(0)
        k += 1
    p = UniPoly(cs)
    if k:
        roots[Fraction(0)] = k
    while p.degree() >= 1:
        prim, _ = p.primitive()
        num_divs = _divisors(int(prim.coeffs[0]))
        den_divs = _divisors(int(prim.coeffs[-1]))
        if num_divs is None or den_divs is None:
            notes.append("rational-root search incomplete: coefficients too large")
            break
        found = None
        for q in den_divs:
            for a in num_divs:
                for cand in (Fraction(a, q), Fraction(-a, q)):
                    if p.eval(cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        lin = UniPoly((-found, 1))
        mult = 0
        while True:
            quo, rem = p.divmod(lin)
            if rem.is_zero():
                p = quo
                mult += 1
            else:
                break
        roots[found] = roots.get(found, 0) + mult
    return sorted(roots.items()), p, notes


def _quadratic_factors(p: UniPoly, budget: int = 200_000) -> tuple[list, UniPoly, list]:
    """Split monic quadratic factors off a monic ``p`` with no rational roots.

    Candidates are found by divisor interpolation on the primitive integer
    form: an integer quadratic ``a*t^2 + b*t + c`` dividing it must have
    ``a | lc``, ``c | constant term`` and ``a+b+c | value at 1``.  The search
    is complete within the candidate budget; anything left stays in the
    residual.
    """
    quads: list[UniPoly] = []
    notes: list[str] = []
    while p.degree() >= 2:
        if p.degree() == 2:
            quads.append(p.monic())
            p = UniPoly.const(1)
            break
        if p.degree() == 3:
            # a cubic with no rational root is irreducible over Q
            break
        prim, _ = p.primitive()
        lc_divs = _divisors(int(prim.coeffs[-1]))
        c0_divs = _divisors(int(prim.coeffs[0]))
        p1 = prim.eval(Fraction(1))  # nonzero: 1 is not a root
        s_divs = _divisors(int(p1))
        if lc_divs is None or c0_divs is None or s_divs is None:
            notes.append("quadratic-factor search incomplete: coefficients too large")
            break
        if len(lc_divs) * len(c0_divs) * len(s_divs) * 4 > budget:
            notes.append("quadratic-factor search incomplete: candidate budget exceeded")
            break
        found = None
        for a in lc_divs:
            for c in c0_divs:
                for cs in (c, -c):
                    for s in s_divs:
                        for ss in (s, -s):
                            b = ss - a - cs
                            cand = UniPoly((cs, b, a)).monic()
                            quo, rem = p.divmod(cand)
                            if rem.is_zero():
                                found = (cand, quo)
                                break
                        if found:
                            break
                    if found:
                        break
                if found:
                    break
            if found:
                break
        if found is None:
            break
        cand, quo = found
        quads.append(cand)
        p = quo
    return quads, p, notes


def uni_factor_special(p: UniPoly) -> FactorReport:
    """Factor a ``UniPoly`` for special-value reporting.

    Extracts rational roots with multiplicity and monic irreducible quadratic
    factors (``UniPoly``); any remaining factor of degree >= 3 is reported
    unresolved in ``residual`` (a ``UniPoly``) rather than silently dropped.
    The reconstruction identity ``lead * roots * quadratics * residual == p``
    always holds exactly.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    lead = p.lead()
    monic = p.monic()
    if monic.degree() == 0:
        return FactorReport(lead=lead, roots=[])
    roots, rest, notes1 = _rational_roots(monic)
    quads, residual, notes2 = _quadratic_factors(rest)
    report = FactorReport(
        lead=lead,
        roots=list(roots),
        quadratics=quads,
        residual=residual if residual.degree() >= 1 else UniPoly.const(1),
        notes=notes1 + notes2,
    )
    if residual.degree() >= 3:
        report.notes.append(f"unresolved factor of degree {residual.degree()}")
    return report
