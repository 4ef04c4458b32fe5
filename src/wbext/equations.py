"""Functional-equation construction for the three extension shapes.

Each commutator identity, applied to the top generator of the extension,
yields a polynomial identity in ``(d, l, u)`` that is linear in the unknown
cocycle coefficients.  We represent an identity as a map

    unknown key  ->  polynomial multiplying that unknown

so the identity reads ``sum_k  c_k * cols[k] == 0`` over the unknown
coefficients ``c_k``.  Keys are ``("f", j, k)`` for the coefficient of
``d^j l^k`` in f, likewise ``("g", j, k)`` and ``("h", j, 0)``.

The builder works over a parameter environment whose values are polynomials,
so a weight promoted to the scan variable ``t`` flows through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .poly import D, L, U
from .problems import Caps, ExtProblem

__all__ = [
    "Identity",
    "unknown_basis",
    "key_rank",
    "build_equations",
    "build_equations_env",
    "LinearSystem",
    "assemble_linear_system",
    "constant_rows",
]


@dataclass
class Identity:
    name: str
    cols: dict  # unknown key -> MultiPoly in (d, l, u[, t])


_PART_ORDER = {"f": 0, "g": 1, "h": 2}


def key_rank(key):
    """Canonical unknown order: part (f, g, h), then graded-lex descending."""
    name, j, k = key
    return (_PART_ORDER[name], -(j + k), -j, -k)


def unknown_basis(shape: int, caps: Caps, sector: str) -> list:
    """The unknown keys in :func:`key_rank` order: the monomials of f and g up
    to their caps (in l alone for shape 1), and of h in d for shape 2."""
    parts = ("f", "g") if sector == "full" else (sector,)
    keys = [
        (name, j, k)
        for name in parts
        for j in range(1 if shape == 1 else getattr(caps, name) + 1)
        for k in range(getattr(caps, name) + 1 - j)
    ]
    if shape == 2 and sector != "g":
        keys.extend(("h", j, 0) for j in range(caps.h + 1))
    return sorted(keys, key=key_rank)


class _Powers:
    """Monomial images under the slot substitutions used by the identities."""

    def __init__(self, cap: int):
        n = cap + 2
        self.d = [D**j for j in range(n)]
        self.l = [L**k for k in range(n)]
        self.u = [U**k for k in range(n)]
        self.dl = [(D + L) ** j for j in range(n)]
        self.du = [(D + U) ** j for j in range(n)]
        self.lu = [(L + U) ** k for k in range(n)]

    def m(self, j, k):  # m(d, l)
        return self.d[j] * self.l[k]

    def m_u(self, j, k):  # m(d, u)
        return self.d[j] * self.u[k]

    def m_dl_u(self, j, k):  # m(d+l, u)
        return self.dl[j] * self.u[k]

    def m_du_l(self, j, k):  # m(d+u, l)
        return self.du[j] * self.l[k]

    def m_lu(self, j, k):  # m(d, l+u)
        return self.d[j] * self.lu[k]


# The powers depend only on the cap and MultiPoly is immutable, so every
# solve at one cap shares them; a solve and its caps+2 re-run use two caps.
@lru_cache(maxsize=16)
def _powers(cap: int) -> _Powers:
    return _Powers(cap)


def build_equations(p: ExtProblem) -> list:
    """Identities for a concrete problem; see :func:`build_equations_env`."""
    return build_equations_env(p.shape, p.env(), p.caps, p.sector)


def build_equations_env(shape: int, env: dict, caps: Caps, sector: str) -> list:
    """Build the identity list for one extension shape.

    Besides the defining identities (one per commutator used in the
    derivation), the list imposes the swapped L-H commutator forms: ``"HL"``
    for shapes 1 and 3, ``"LH"`` and ``"HL"`` for shape 2.  They are implied
    by the defining ones, so they leave the kernel unchanged and act as a
    cross-check on the transcription.
    """
    alpha = env["alpha"]
    b = env.get("b")
    delta = env.get("delta")
    keys = unknown_basis(shape, caps, sector)
    f_keys = [k for k in keys if k[0] == "f"]
    g_keys = [k for k in keys if k[0] == "g"]
    h_keys = [k for k in keys if k[0] == "h"]
    if g_keys and b is None:
        raise ValueError("the g sector needs the parameter b")
    identities: list[Identity] = []

    if shape == 1:
        gamma = env["gamma"]
        A = alpha + gamma
        pw = _powers(max(caps.f, caps.g))
        if f_keys:
            cols = {}
            for _, _, k in f_keys:
                cols[("f", 0, k)] = (
                    (A + L + delta * U) * pw.l[k]
                    - (A + U + delta * L) * pw.u[k]
                    - (L - U) * pw.lu[k]
                )
            identities.append(Identity("LL", cols))
        if g_keys:
            cols = {}
            for _, _, k in g_keys:
                cols[("g", 0, k)] = (b * L + U) * pw.lu[k] - (A + U + delta * L) * pw.u[k]
            identities.append(Identity("LH", cols))
            cols = {}
            for _, _, k in g_keys:
                cols[("g", 0, k)] = (L + b * U) * pw.lu[k] - (A + L + delta * U) * pw.l[k]
            identities.append(Identity("HL", cols))
        return identities

    if shape == 2:
        gamma = env["gamma"]
        pw = _powers(max(caps.f, caps.g, caps.h))
        act = D + alpha + delta * L  # L-action coefficient on the submodule generator
        act_u = D + alpha + delta * U
        if f_keys:
            cols = {}
            for _, j, k in f_keys:
                cols[("f", j, k)] = (
                    act * pw.m_dl_u(j, k)
                    - act_u * pw.m_du_l(j, k)
                    - (L - U) * pw.m_lu(j, k)
                )
            identities.append(Identity("LL", cols))
            cols = {}
            for _, j, k in f_keys:
                cols[("f", j, k)] = (D + L - gamma) * pw.m(j, k)
            for _, j, _ in h_keys:
                cols[("h", j, 0)] = -act * pw.dl[j]
            identities.append(Identity("dL", cols))
        if g_keys:
            cols = {}
            for _, j, k in g_keys:
                cols[("g", j, k)] = (D + L - gamma) * pw.m(j, k)
            identities.append(Identity("dH", cols))
            cols = {}
            for _, j, k in g_keys:
                cols[("g", j, k)] = act * pw.m_dl_u(j, k) + (b * L + U) * pw.m_lu(j, k)
            identities.append(Identity("LH", cols))
            cols = {}
            for _, j, k in g_keys:
                cols[("g", j, k)] = act_u * pw.m_du_l(j, k) + (L + b * U) * pw.m_lu(j, k)
            identities.append(Identity("HL", cols))
        return identities

    # shape 3
    abar = env["abar"]
    dbar = env["dbar"]
    pw = _powers(max(caps.f, caps.g))
    top_l = D + L + delta * U + alpha  # quotient action pieces
    top_u = D + U + delta * L + alpha
    sub_l = D + dbar * L + abar  # submodule action pieces
    sub_u = D + dbar * U + abar
    if f_keys:
        cols = {}
        for _, j, k in f_keys:
            cols[("f", j, k)] = (
                top_l * pw.m(j, k)
                + sub_l * pw.m_dl_u(j, k)
                - top_u * pw.m_u(j, k)
                - sub_u * pw.m_du_l(j, k)
                - (L - U) * pw.m_lu(j, k)
            )
        identities.append(Identity("LL", cols))
    if g_keys:
        cols = {}
        for _, j, k in g_keys:
            cols[("g", j, k)] = (
                sub_l * pw.m_dl_u(j, k) - top_u * pw.m_u(j, k) + (b * L + U) * pw.m_lu(j, k)
            )
        identities.append(Identity("LH", cols))
        cols = {}
        for _, j, k in g_keys:
            cols[("g", j, k)] = (
                top_l * pw.m(j, k) - sub_u * pw.m_du_l(j, k) - (L + b * U) * pw.m_lu(j, k)
            )
        identities.append(Identity("HL", cols))
    return identities


@dataclass
class LinearSystem:
    """Exact linear system: one row per (identity, monomial in d,l,u)."""

    rows: list  # sparse rows (see wbext.linalg) of MultiPoly values in t

    def concrete_rows(self):
        """The rows lowered to scalars; see :func:`constant_rows`."""
        return constant_rows(self.rows)


def constant_rows(rows) -> list[tuple]:
    """Sparse rows of constant ``MultiPoly`` values lowered to scalars."""
    return [tuple([(c, e.constant_value()) for c, e in row]) for row in rows]


def assemble_linear_system(identities, unknowns) -> LinearSystem:
    """Expand identities into sparse coefficient rows, one per monomial in (d, l, u).

    Row order is deterministic: identities in build order, monomials graded-lex
    descending.  Raises if an identity references an undeclared unknown.
    """
    index = {k: i for i, k in enumerate(unknowns)}
    rows = []
    for ident in identities:
        per_mono: dict[tuple, dict] = {}
        for key, poly in ident.cols.items():
            if key not in index:
                raise ValueError(f"identity {ident.name} uses undeclared unknown {key}")
            for mono, coeff in poly.coeffs_by(("d", "l", "u")):
                per_mono.setdefault(mono, {})[index[key]] = coeff
        for mono in sorted(per_mono, key=lambda m: (sum(m), m), reverse=True):
            rows.append(tuple(sorted(per_mono[mono].items())))
    return LinearSystem(rows=rows)
