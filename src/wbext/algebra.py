"""Bracket tables for the W(b) family and exact conformal-module axiom checks.

The algebra W(b) is a free rank-two module over the polynomial ring in ``d``
with generators ``L`` and ``H`` and brackets

    [L_l L] = (d + 2l) L
    [L_l H] = (d + (1-b) l) H
    [H_l H] = 0

(``d`` = translation generator, ``l`` = the bracket parameter).  Setting
``b = 0`` is refused here: that degenerate member behaves differently and is
out of scope.  Dropping ``H`` altogether gives the Virasoro table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .poly import D, L, U, MultiPoly
from .problems import _rational_b
from .qext import scalar

__all__ = [
    "AlgebraSpec",
    "ModuleSpec",
    "make_wb",
    "make_virasoro",
    "free_module",
    "trivial_module",
    "AxiomReport",
    "check_module_axioms",
    "check_algebra_axioms",
]

_MINUS_LU = -(L + U)  # the value a bracket's d-slot takes on composite actions


@dataclass
class AlgebraSpec:
    """Generators plus the full ordered bracket table.

    ``bracket[(a, b)]`` maps each generator name to its coefficient polynomial
    in ``(d, l)``; entries absent from the inner dict are zero.
    """

    generators: tuple
    bracket: dict
    b: Fraction | None = None  # None for the Virasoro table

    def bracket_coeff(self, a: str, bgen: str, target: str) -> MultiPoly:
        return self.bracket.get((a, bgen), {}).get(target, MultiPoly.zero())


@dataclass
class ModuleSpec:
    """A rank-one conformal module shape.

    ``kind == "free"``: free of rank one over the polynomial ring in ``d``,
    generator v, with generator actions ``actions[a] = P_a(d, l)`` meaning
    ``a_l v = P_a(d, l) v``; ``d`` itself acts by multiplication.

    ``kind == "trivial"``: one-dimensional over the scalars with ``d`` acting
    by the constant ``gamma``; the generator actions are polynomials in ``l``
    only (zero for the honest trivial module).
    """

    kind: str
    actions: dict
    alpha: Fraction | None = None
    delta: Fraction | None = None
    gamma: Fraction | None = None


def make_wb(b) -> AlgebraSpec:
    """The rank-two table above, for a non-zero ``int`` or ``Fraction`` b;
    any other b raises ``ValueError``, b = 0 (the out-of-scope degeneration)
    with ``ExtProblem``'s message."""
    b = _rational_b(b)
    lh = D + (1 - b) * L
    # [H_l L] follows from skew-symmetry: -(coefficient with l -> -d-l)
    hl = -(lh.subst("l", -(D + L)))
    table = {
        ("L", "L"): {"L": D + 2 * L},
        ("L", "H"): {"H": lh},
        ("H", "L"): {"H": hl},
        ("H", "H"): {},
    }
    return AlgebraSpec(generators=("L", "H"), bracket=table, b=b)


def make_virasoro() -> AlgebraSpec:
    return AlgebraSpec(
        generators=("L",),
        bracket={("L", "L"): {"L": D + 2 * L}},
        b=None,
    )


def free_module(alg: AlgebraSpec, alpha, delta) -> ModuleSpec:
    """The rank-one free module: ``L_l v = (d + alpha + delta*l) v``, ``H_l v = 0``."""
    alpha = scalar(alpha, "alpha")
    delta = scalar(delta, "delta")
    actions = {g: MultiPoly.zero() for g in alg.generators}
    actions["L"] = D + alpha + delta * L
    return ModuleSpec(kind="free", actions=actions, alpha=alpha, delta=delta)


def trivial_module(alg: AlgebraSpec, gamma) -> ModuleSpec:
    """The one-dimensional module: all generators act by zero, ``d`` by gamma."""
    actions = {g: MultiPoly.zero() for g in alg.generators}
    return ModuleSpec(kind="trivial", actions=actions, gamma=scalar(gamma, "gamma"))


@dataclass
class AxiomReport:
    passed: bool
    residuals: dict = field(default_factory=dict)  # label -> MultiPoly, all entries
    violations: list = field(default_factory=list)  # labels with nonzero residual

    def __str__(self):
        if self.passed:
            return f"all {len(self.residuals)} identities hold"
        lines = [f"{len(self.violations)} identity violation(s):"]
        for label in self.violations:
            lines.append(f"  {label}: residual {self.residuals[label]}")
        return "\n".join(lines)


def _compose(action_outer: MultiPoly, action_inner: MultiPoly, free: bool) -> MultiPoly:
    """Coefficient of ``a_l (b_u v)`` given the two generator actions.

    For a free module the inner result's coefficient polynomial passes through
    the outer action with ``d`` shifted by ``l``; on a one-dimensional module
    the coefficients are scalars in ``l``/``u`` and simply multiply.
    """
    inner = action_inner.rename("l", "u")
    if free:
        inner = inner.shift("d", L)
    return inner * action_outer


def _bracket_rhs(alg: AlgebraSpec, mod: ModuleSpec, a: str, bgen: str) -> MultiPoly:
    """Coefficient of ``[a_l b]_{l+u} v``: bracket coefficients are evaluated at
    ``d -> -(l+u)`` and the target action at parameter ``l+u``."""
    out = MultiPoly.zero()
    for target, coeff in alg.bracket.get((a, bgen), {}).items():
        action = mod.actions[target].subst("l", L + U)
        out = out + coeff.subst("d", _MINUS_LU) * action
    return out


def check_module_axioms(alg: AlgebraSpec, mod: ModuleSpec) -> AxiomReport:
    """Verify all commutator and translation identities on the module generator.

    For a rank-two algebra this is six identities: the four ordered generator
    pairs plus translation compatibility for each generator; residuals are
    exact polynomials and the report lists every nonzero one.
    """
    free = mod.kind == "free"
    if not free:
        for g, act in mod.actions.items():
            if act.uses_var("d"):
                raise ValueError(
                    f"one-dimensional module action for {g} may not involve d: {act}"
                )
    residuals: dict[str, MultiPoly] = {}
    for a in alg.generators:
        for bgen in alg.generators:
            Pa = mod.actions[a]
            Pb = mod.actions[bgen]
            # a_l (b_u v): inner coefficient P_b(d+l, u), outer action P_a(d, l)
            t1 = _compose(Pa, Pb, free)
            # b_u (a_l v): inner coefficient P_a(d+u, l), outer action P_b(d, u)
            inner = Pa.shift("d", U) if free else Pa
            t2 = inner * Pb.rename("l", "u")
            residuals[f"[{a},{bgen}]"] = t1 - t2 - _bracket_rhs(alg, mod, a, bgen)
    for a in alg.generators:
        # translation compatibility: [d, a_l] = -l a_l applied to the generator
        Pa = mod.actions[a]
        if free:
            # d (a_l v) = d P_a v; a_l (d v) = (d+l) P_a v
            lhs = D * Pa - (D + L) * Pa
        else:
            g = mod.gamma
            lhs = g * Pa - Pa * g
        residuals[f"[d,{a}]"] = lhs - (-L * Pa)
    violations = [k for k, v in residuals.items() if not v.is_zero()]
    return AxiomReport(passed=not violations, residuals=residuals, violations=violations)


def check_algebra_axioms(alg: AlgebraSpec) -> AxiomReport:
    """Skew-symmetry and Jacobi checks on the bracket table itself."""
    residuals: dict[str, MultiPoly] = {}
    gens = alg.generators
    for a in gens:
        for b in gens:
            for target in gens:
                lhs = alg.bracket_coeff(a, b, target)
                rhs = -(alg.bracket_coeff(b, a, target).subst("l", -(D + L)))
                residuals[f"skew[{a},{b}]->{target}"] = lhs - rhs
    for a in gens:
        for b in gens:
            for c in gens:
                for target in gens:
                    acc = MultiPoly.zero()
                    for e in gens:
                        # a_l acting on [b_u c] components
                        acc = acc + alg.bracket_coeff(b, c, e).rename("l", "u").shift(
                            "d", L
                        ) * alg.bracket_coeff(a, e, target)
                        # minus b_u acting on [a_l c] components
                        acc = acc - alg.bracket_coeff(a, c, e).shift("d", U) * (
                            alg.bracket_coeff(b, e, target).rename("l", "u")
                        )
                        # minus [[a_l b] at parameter l+u acting on c]
                        acc = acc - alg.bracket_coeff(a, b, e).subst("d", _MINUS_LU) * (
                            alg.bracket_coeff(e, c, target).subst("l", L + U)
                        )
                    residuals[f"jacobi[{a},{b},{c}]->{target}"] = acc
    violations = [k for k, v in residuals.items() if not v.is_zero()]
    return AxiomReport(passed=not violations, residuals=residuals, violations=violations)
