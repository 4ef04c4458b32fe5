"""Problem and result containers for the extension solver."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from types import MappingProxyType

from .poly import MultiPoly
from .qext import QuadExt, scalar

__all__ = ["Caps", "ExtProblem", "CocycleWitness", "ExtSolution", "PARAM_FIELDS", "SECTORS"]

SECTORS = ("full", "f", "g")
# the weight parameters of a problem, in the order documents list them
PARAM_FIELDS = ("b", "alpha", "gamma", "abar", "delta", "dbar")


@dataclass(frozen=True)
class Caps:
    """Total-degree caps for the polynomial unknowns."""

    f: int = 8
    g: int = 5
    h: int = 8
    phi: int = 8

    def bumped(self, by: int = 2) -> "Caps":
        return Caps(self.f + by, self.g + by, self.h + by, self.phi + by)

    def validate(self):
        for name in ("f", "g", "h", "phi"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"cap {name} must be a positive integer, got {v!r}")


@dataclass(frozen=True)
class ExtProblem:
    """One extension problem between irreducible-shape conformal modules.

    shape 1:  one-dimensional module on top of a free rank-one module
              (parameters alpha, gamma, delta)
    shape 2:  free rank-one module on top of a one-dimensional module
              (parameters alpha, gamma, delta)
    shape 3:  free rank-one on free rank-one (alpha, abar, delta, dbar)

    ``sector`` restricts the unknowns: "f" drops the H-generator data (the
    Virasoro reduction), "g" keeps only it, "full" solves both.  ``b`` may be
    None only in the "f" sector, where it never enters the equations.
    """

    shape: int
    b: Fraction | None
    alpha: Fraction = Fraction(0)
    gamma: Fraction | None = None
    abar: Fraction | None = None
    delta: Fraction | None = None
    dbar: Fraction | None = None
    caps: Caps = field(default_factory=Caps)
    sector: str = "full"

    def __post_init__(self):
        if type(self.shape) is not int or self.shape not in (1, 2, 3):
            raise ValueError(f"shape must be 1, 2 or 3, got {self.shape!r}")
        if self.sector not in SECTORS:
            raise ValueError(f"sector must be one of {SECTORS}, got {self.sector!r}")
        params = [getattr(self, name) for name in PARAM_FIELDS]
        for name, v in zip(PARAM_FIELDS, params):
            if isinstance(v, bool) or not isinstance(v, (int, Fraction, QuadExt, type(None))):
                raise ValueError(f"{name} must be an int, a Fraction or a QuadExt, got {v!r}")
        if len({v.disc for v in params if isinstance(v, QuadExt)}) > 1:
            raise ValueError("parameters must lie in one quadratic field Q(sqrt(D))")
        if self.b is None:
            if self.sector != "f":
                raise ValueError("b may be omitted only for the f-only sector")
        elif scalar(self.b) == 0:
            raise ValueError("b = 0 is excluded: out of scope for this family")
        self.caps.validate()
        if self.shape in (1, 2):
            if any(v is None for v in (self.alpha, self.gamma, self.delta)):
                raise ValueError(f"shape {self.shape} needs alpha, gamma and delta")
            if self.abar is not None or self.dbar is not None:
                raise ValueError(f"shape {self.shape} takes no abar/dbar parameters")
        else:
            if any(v is None for v in (self.alpha, self.abar, self.delta, self.dbar)):
                raise ValueError("shape 3 needs alpha, abar, delta and dbar")
            if self.gamma is not None:
                raise ValueError("shape 3 takes no gamma parameter")

    def env(self) -> dict:
        """Parameter environment as constant polynomials (scanner overrides some)."""
        out = {"alpha": MultiPoly.const(scalar(self.alpha))}
        if self.b is not None:
            out["b"] = MultiPoly.const(scalar(self.b))
        for name in ("gamma", "abar", "delta", "dbar"):
            v = getattr(self, name)
            if v is not None:
                out[name] = MultiPoly.const(scalar(v))
        return out

    def with_caps(self, caps: Caps) -> "ExtProblem":
        return replace(self, caps=caps)

    def degenerate_weights(self) -> list[str]:
        """Weights at which the rank-one module fails to be irreducible."""
        notes = []
        if self.delta == 0:
            notes.append("delta = 0: quotient-side module is not irreducible")
        if self.shape == 3 and self.dbar == 0:
            notes.append("dbar = 0: submodule-side module is not irreducible")
        return notes


@dataclass(frozen=True)
class CocycleWitness:
    """Cocycle data: ``f`` and ``g`` polynomials, plus ``h`` for shape 2."""

    f: MultiPoly
    g: MultiPoly
    h: MultiPoly | None = None

    def parts(self) -> dict:
        out = {"f": self.f, "g": self.g}
        if self.h is not None:
            out["h"] = self.h
        return out

    def is_zero(self) -> bool:
        return self.f.is_zero() and self.g.is_zero() and (self.h is None or self.h.is_zero())

    def __str__(self):
        bits = [f"f = {self.f}", f"g = {self.g}"]
        if self.h is not None:
            bits.append(f"h = {self.h}")
        return "; ".join(bits)


@dataclass(frozen=True)
class ExtSolution:
    """Outcome of one extension-space computation, all dimensions exact.

    Solutions are cached and shared between callers, so they are immutable:
    ``basis`` is stored as a tuple and ``diagnostics`` as a read-only view of
    a private copy.
    """

    problem: ExtProblem
    cocycle_dim: int
    coboundary_dim: int
    ext_dim: int
    basis: tuple  # CocycleWitness representatives mod coboundaries
    diagnostics: MappingProxyType = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        object.__setattr__(self, "diagnostics", MappingProxyType(dict(self.diagnostics)))
