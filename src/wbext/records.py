"""Structured solve documents: JSON machine format and aligned tables.

A solve result is packaged as an :class:`OutputRecord`; the same record
serializes to a JSON document (exact rationals as ``"p/q"`` strings,
polynomials as canonical strings) and renders as an aligned text table, so
both outputs carry identical data.  Parsing is strict and lossless: every
malformed entry raises :class:`RecordError` naming the offending field, and
``parse_record(record.to_json())`` reproduces the record exactly.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .poly import DegreeError, MultiPoly
from .problems import PARAM_FIELDS, Caps, CocycleWitness, ExtProblem, ExtSolution
from .qext import QuadExt, parse_rational, quad

__all__ = [
    "OutputRecord",
    "RecordError",
    "parse_poly",
    "parse_record",
    "parse_scalar",
    "scalar_str",
]


class RecordError(ValueError):
    """A document field failed to parse; ``field`` names the culprit."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"field '{field_name}': {message}")
        self.field = field_name


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


def scalar_str(x) -> str:
    """Canonical string for an exact scalar: ``p``, ``p/q``, or ``a+b*sqrt(n)``."""
    if isinstance(x, QuadExt):
        return str(x)
    return str(Fraction(x))


_QUAD_RE = re.compile(
    r"^\s*(?:(?P<p>-?[0-9]+(?:/[0-9]+)?)\s*(?P<sign>[+-])\s*)?"
    r"(?P<qsign>-)?(?:(?P<q>[0-9]+(?:/[0-9]+)?)\*)?sqrt\((?P<disc>-?[0-9]+)\)\s*$"
)


def parse_scalar(text: str, field_name: str = "value"):
    """Parse ``p/q`` or ``a+b*sqrt(n)`` back to Fraction / QuadExt.

    Floating-point literals are rejected; both directions compose with
    :func:`scalar_str` to the identity.
    """
    if not isinstance(text, str):
        raise RecordError(field_name, f"expected a string scalar, got {text!r}")
    try:
        return parse_rational(text)
    except ValueError:
        pass
    m = _QUAD_RE.match(text)
    if m is None or (m.group("sign") and m.group("qsign")):
        raise RecordError(field_name, f"not an exact scalar: {text!r}")
    try:
        p = Fraction(m.group("p")) if m.group("p") else Fraction(0)
        q = Fraction(m.group("q")) if m.group("q") else Fraction(1)
    except ZeroDivisionError:
        raise RecordError(field_name, f"zero denominator in scalar: {text!r}") from None
    if m.group("sign") == "-" or m.group("qsign"):
        q = -q
    return quad(p, q, int(m.group("disc")))


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def parse_poly(text: str, field_name: str = "poly", cap: tuple | None = None) -> MultiPoly:
    """Parse a canonical polynomial string in d, l, u and t.

    ``cap`` is a ``(name, degree)`` pair; a polynomial whose total degree
    would exceed it is refused before it is expanded.
    """
    if not isinstance(text, str):
        raise RecordError(field_name, f"expected a polynomial string, got {text!r}")
    try:
        return MultiPoly.parse(text, cap and cap[1])
    except DegreeError as exc:
        raise RecordError(
            field_name, f"total degree {exc.degree} exceeds the cap {cap[0]} = {cap[1]}"
        ) from None
    except ValueError as exc:
        raise RecordError(field_name, str(exc)) from None
    except ZeroDivisionError:
        raise RecordError(field_name, f"division by zero in {text!r}") from None


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


@dataclass
class OutputRecord:
    """One solve, ready for printing: problem echo, dimensions, basis.

    ``diagnostics`` carries the solver's caps echo, the stabilization flag,
    and degenerate-weight tags, exactly as produced by the solver.
    """

    problem: ExtProblem
    cocycle_dim: int
    coboundary_dim: int
    ext_dim: int
    basis: list
    diagnostics: dict = field(default_factory=dict)

    @classmethod
    def from_solution(cls, problem: ExtProblem, sol: ExtSolution) -> "OutputRecord":
        return cls(
            problem=problem,
            cocycle_dim=sol.cocycle_dim,
            coboundary_dim=sol.coboundary_dim,
            ext_dim=sol.ext_dim,
            basis=list(sol.basis),
            diagnostics=dict(sol.diagnostics),
        )

    # -- serialization -----------------------------------------------------

    def to_mapping(self) -> dict:
        p = self.problem
        problem = {"shape": p.shape, "sector": p.sector}
        for name in PARAM_FIELDS:
            value = getattr(p, name)
            problem[name] = None if value is None else scalar_str(value)
        problem["caps"] = [p.caps.f, p.caps.g, p.caps.h, p.caps.phi]
        diagnostics = dict(self.diagnostics)
        if "caps" in diagnostics:
            diagnostics["caps"] = list(diagnostics["caps"])
        return {
            "problem": problem,
            "cocycle_dim": self.cocycle_dim,
            "coboundary_dim": self.coboundary_dim,
            "ext_dim": self.ext_dim,
            "basis": [_witness_mapping(w) for w in self.basis],
            "diagnostics": diagnostics,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_mapping(), indent=2) + "\n"

    # -- table rendering ---------------------------------------------------

    def render_table(self) -> str:
        p = self.problem
        rows = [("shape", str(p.shape)), ("sector", p.sector)]
        for name in PARAM_FIELDS:
            value = getattr(p, name)
            if value is not None:
                rows.append((name, scalar_str(value)))
        rows.append(("caps", "f=%d g=%d h=%d phi=%d" % (p.caps.f, p.caps.g, p.caps.h, p.caps.phi)))
        rows.append(("cocycle_dim", str(self.cocycle_dim)))
        rows.append(("coboundary_dim", str(self.coboundary_dim)))
        rows.append(("ext_dim", str(self.ext_dim)))
        for key in sorted(self.diagnostics):
            if key == "caps":
                continue
            rows.append((key, _diag_str(self.diagnostics[key])))
        width = max(len(k) for k, _ in rows)
        lines = [f"{k.ljust(width)}  {v}" for k, v in rows]
        if self.basis:
            lines.append("basis:")
            lines.extend(f"  [{i}] {w}" for i, w in enumerate(self.basis))
        else:
            lines.append("basis: (none)")
        return "\n".join(lines) + "\n"


def _diag_str(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (list, tuple)):
        return "; ".join(str(v) for v in value)
    return str(value)


def _witness_mapping(w: CocycleWitness) -> dict:
    out = {"f": str(w.f), "g": str(w.g)}
    if w.h is not None:
        out["h"] = str(w.h)
    return out


def _parse_witness(entry, index: int, caps: Caps) -> CocycleWitness:
    where = f"basis[{index}]"
    if not isinstance(entry, dict):
        raise RecordError(where, "expected an object with f/g entries")
    unknown = set(entry) - {"f", "g", "h"}
    if unknown:
        raise RecordError(where, f"unknown entries {sorted(unknown)}")
    parts = {
        name: parse_poly(entry.get(name, "0"), f"{where}.{name}", (name, getattr(caps, name)))
        for name in (("f", "g", "h") if "h" in entry else ("f", "g"))
    }
    return CocycleWitness(**parts)


def _parse_int(mapping, key: str, field_name: str | None = None) -> int:
    value = mapping.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise RecordError(field_name or key, f"expected an integer, got {value!r}")
    return value


def _require_int(mapping, key: str) -> int:
    if key not in mapping:
        raise RecordError(key, "missing")
    return _parse_int(mapping, key)


def _parse_problem(mapping) -> ExtProblem:
    if not isinstance(mapping, dict):
        raise RecordError("problem", "expected an object")
    kwargs = {"shape": _parse_int(mapping, "shape", "problem.shape")}
    for name in PARAM_FIELDS:
        value = mapping.get(name)
        kwargs[name] = None if value is None else parse_scalar(value, f"problem.{name}")
    caps = mapping.get("caps")
    if caps is not None:
        if not (isinstance(caps, list) and len(caps) == 4 and all(type(c) is int for c in caps)):
            raise RecordError("problem.caps", f"expected four integers, got {caps!r}")
        kwargs["caps"] = Caps(*caps)
    if "sector" in mapping:
        kwargs["sector"] = mapping["sector"]
    try:
        return ExtProblem(**kwargs)
    except (TypeError, ValueError) as exc:
        raise RecordError("problem", str(exc)) from None


def parse_record(text: str) -> OutputRecord:
    """Parse a machine-format document back into an OutputRecord.

    Inverse of :meth:`OutputRecord.to_json`; raises :class:`RecordError`
    naming the offending field on any malformed content, on a witness part
    above the document's degree cap for it, refused while parsing before any
    expansion (every solver witness lies inside its caps, and expanding or
    checking a far larger one can take arbitrarily long), and
    on dimensions that contradict each other: a negative one, an ``ext_dim`` other than
    ``cocycle_dim - coboundary_dim`` when both are given, or a ``basis`` whose
    length is not ``ext_dim``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RecordError("document", f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise RecordError("document", "top level must be an object")
    if "problem" not in doc:
        raise RecordError("problem", "missing")
    problem = _parse_problem(doc["problem"])
    basis_doc = doc.get("basis", [])
    if not isinstance(basis_doc, list):
        raise RecordError("basis", "expected a list")
    basis = [_parse_witness(entry, i, problem.caps) for i, entry in enumerate(basis_doc)]
    diagnostics = doc.get("diagnostics", {})
    if not isinstance(diagnostics, dict):
        raise RecordError("diagnostics", "expected an object")
    diagnostics = dict(diagnostics)
    if "caps" in diagnostics and isinstance(diagnostics["caps"], list):
        diagnostics["caps"] = tuple(diagnostics["caps"])
    dims = {key: _parse_int(doc, key) for key in ("cocycle_dim", "coboundary_dim") if key in doc}
    dims["ext_dim"] = _require_int(doc, "ext_dim")
    for key, value in dims.items():
        if value < 0:
            raise RecordError(key, f"a dimension cannot be negative, got {value}")
    if len(dims) == 3 and dims["cocycle_dim"] - dims["coboundary_dim"] != dims["ext_dim"]:
        raise RecordError(
            "ext_dim",
            f"{dims['ext_dim']} is not cocycle_dim - coboundary_dim = "
            f"{dims['cocycle_dim']} - {dims['coboundary_dim']}",
        )
    if "basis" in doc and len(basis) != dims["ext_dim"]:
        raise RecordError("basis", f"lists {len(basis)} witness(es) but ext_dim is {dims['ext_dim']}")
    return OutputRecord(
        problem=problem,
        cocycle_dim=dims.get("cocycle_dim", 0),
        coboundary_dim=dims.get("coboundary_dim", 0),
        ext_dim=dims["ext_dim"],
        basis=basis,
        diagnostics=diagnostics,
    )
