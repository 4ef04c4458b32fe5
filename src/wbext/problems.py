"""Problem and result containers for the extension solver."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

from .poly import MultiPoly
from .qext import QuadExt, scalar

__all__ = ["Caps", "ExtProblem", "CocycleWitness", "ExtSolution",
           "PARAM_FIELDS", "SECTORS", "SHAPE_WEIGHTS"]

SECTORS = ("full", "f", "g")
# ExtProblem's refusal of b = 0, which every other b check repeats word for word
_B_ZERO_MESSAGE = "b = 0 is excluded: out of scope for this family"
# the weight parameters of a problem, in the order documents list them
PARAM_FIELDS = ("b", "alpha", "gamma", "abar", "delta", "dbar")
# the weights each shape needs besides b; it takes none of the others
SHAPE_WEIGHTS = {
    1: ("alpha", "gamma", "delta"),
    2: ("alpha", "gamma", "delta"),
    3: ("alpha", "abar", "delta", "dbar"),
}


def _rational_b(b) -> Fraction:
    """``b`` as a ``Fraction``: a non-zero ``int`` or ``Fraction`` is taken,
    any other value raises ``ValueError``, b = 0 with ``ExtProblem``'s
    message."""
    if isinstance(b, bool) or not isinstance(b, (int, Fraction)):
        raise ValueError(f"b must be an int or a Fraction, got {b!r}")
    if b == 0:
        raise ValueError(_B_ZERO_MESSAGE)
    return Fraction(b)


@dataclass(frozen=True)
class Caps:
    """Total-degree caps for the polynomial unknowns."""

    f: int = 8
    g: int = 5
    h: int = 8
    phi: int = 8

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
            if v is not None:
                scalar(v, name)
        if len({v.disc for v in params if isinstance(v, QuadExt)}) > 1:
            raise ValueError("parameters must lie in one quadratic field Q(sqrt(D))")
        if self.b is None:
            if self.sector != "f":
                raise ValueError("b may be omitted only for the f-only sector")
        elif scalar(self.b, "b") == 0:
            raise ValueError(_B_ZERO_MESSAGE)
        if not isinstance(self.caps, Caps):
            raise ValueError(f"caps must be a Caps, got {self.caps!r}")
        self.caps.validate()
        needed = SHAPE_WEIGHTS[self.shape]
        if any(getattr(self, name) is None for name in needed):
            *most, last = needed
            raise ValueError(f"shape {self.shape} needs {', '.join(most)} and {last}")
        extra = [name for name in PARAM_FIELDS[1:] if name not in needed]
        if any(getattr(self, name) is not None for name in extra):
            noun = "parameter" if len(extra) == 1 else "parameters"
            raise ValueError(f"shape {self.shape} takes no {'/'.join(extra)} {noun}")

    def env(self) -> dict:
        """Parameter environment as constant polynomials (scanner overrides some)."""
        return {
            name: MultiPoly.const(scalar(v, name))
            for name in PARAM_FIELDS
            if (v := getattr(self, name)) is not None
        }

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
