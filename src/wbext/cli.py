"""Command-line front end.

Subcommands: ``solve`` a single extension problem, ``scan`` weight lines
for generic dimensions and jump points, ``replay`` the classification
tables, ``check-axioms`` for the bracket/module identities, and ``verify``
to re-check witnesses from a result document.

All numeric flags take exact rationals (``p/q`` or integers; floats are
rejected).  ``WB_EXT_CAPS="f,g,h,phi"`` overrides the default degree caps;
explicit ``--cap-*`` flags win over the environment.  Output goes to
stdout or ``--out <path>`` and is byte-deterministic for fixed inputs.
Exit codes: 0 success, 1 mathematical mismatch or failed verification,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import scanner
from .engine import solve_ext
from .oracle import _sector_parts, brute_dims, independent_mod_coboundaries, verify_witness
from .problems import PARAM_FIELDS, SHAPE_WEIGHTS, Caps, ExtProblem
from .qext import parse_rational
from .records import OutputRecord, RecordError, parse_record, scalar_str

__all__ = ["main"]


class UsageError(Exception):
    pass


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _caps(args) -> Caps:
    default = Caps()
    vals = [default.f, default.g, default.h, default.phi]
    env = os.environ.get("WB_EXT_CAPS")
    if env:
        parts = env.split(",")
        if len(parts) != 4:
            raise UsageError(
                f"WB_EXT_CAPS must be four comma-separated integers 'f,g,h,phi', got {env!r}"
            )
        try:
            vals = [int(p) for p in parts]
        except ValueError:
            raise UsageError(f"WB_EXT_CAPS entries must be integers, got {env!r}") from None
    for i, name in enumerate(("cap_f", "cap_g", "cap_h", "cap_phi")):
        flag = getattr(args, name, None)
        if flag is not None:
            vals[i] = flag
    try:
        caps = Caps(*vals)
        caps.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return caps


class _TableNames:
    """The ``replay --table`` choices.  argparse reads them only to check a
    value or print help, so :mod:`wbext.tables` is imported then, and no
    other command pays for it."""

    def __iter__(self):
        from . import tables

        return iter(tables.table_names())

    def __contains__(self, name) -> bool:
        return name in iter(self)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wbext",
        description="Exact extension classification for a rank-two family "
        "of Lie conformal algebras and its Virasoro reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_caps(p):
        p.add_argument("--cap-f", type=int, help="degree cap for the first-part polynomial")
        p.add_argument("--cap-g", type=int, help="degree cap for the second-part polynomial")
        p.add_argument("--cap-h", type=int, help="degree cap for the translation deformation")
        p.add_argument("--cap-phi", type=int, help="degree cap for basis-change moves")

    def add_out(p):
        p.add_argument("--out", help="write the output document to this path instead of stdout")

    p_solve = sub.add_parser("solve", help="solve one extension problem exactly")
    p_solve.add_argument("--type", dest="shape", type=int, required=True, choices=(1, 2, 3))
    p_solve.add_argument("--b", type=_rational, required=True)
    p_solve.add_argument("--alpha", type=_rational, required=True)
    p_solve.add_argument("--gamma", type=_rational)
    p_solve.add_argument("--abar", type=_rational)
    p_solve.add_argument("--delta", type=_rational)
    p_solve.add_argument("--dbar", type=_rational)
    add_caps(p_solve)
    p_solve.add_argument("--json", action="store_true", help="machine-readable output")
    add_out(p_solve)

    p_scan = sub.add_parser("scan", help="scan weight lines for dimension jumps")
    p_scan.add_argument("--b", type=_rational, required=True)
    p_scan.add_argument("--sector", required=True, choices=("f", "g", "full"))
    p_scan.add_argument("--promote", default="dbar", choices=("delta", "dbar"))
    p_scan.add_argument("--diff", type=_rational, help="scan only this weight difference")
    add_caps(p_scan)
    p_scan.add_argument("--json", action="store_true", help="machine-readable output")
    add_out(p_scan)

    p_replay = sub.add_parser("replay", help="re-verify the classification tables")
    p_replay.add_argument("--table", required=True, choices=_TableNames())
    add_out(p_replay)

    p_axioms = sub.add_parser("check-axioms", help="check bracket and module identities")
    p_axioms.add_argument("--b", type=_rational, required=True)
    p_axioms.add_argument("--alpha", type=_rational)
    p_axioms.add_argument("--delta", type=_rational)
    add_out(p_axioms)

    p_verify = sub.add_parser("verify", help="re-verify witnesses from a result document")
    p_verify.add_argument("--input", required=True, help="path to a solve output document")
    add_out(p_verify)

    # Let negative rationals such as ``--b -2/3`` pass as option values; by
    # default argparse only recognises plain integers and decimals.
    matcher = re.compile(r"^-\d+(?:/\d+)?$|^-\d*\.\d+$")
    for p in (parser, p_solve, p_scan, p_replay, p_axioms, p_verify):
        p._negative_number_matcher = matcher
    return parser


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _cmd_solve(args) -> tuple[str, int]:
    needed = SHAPE_WEIGHTS[args.shape]
    for name in needed:
        if getattr(args, name) is None:
            raise UsageError(f"--type {args.shape} requires --{name}")
    for name in PARAM_FIELDS[1:]:
        if name not in needed and getattr(args, name) is not None:
            raise UsageError(f"--type {args.shape} does not take --{name}")
    try:
        problem = ExtProblem(
            shape=args.shape,
            b=args.b,
            alpha=args.alpha,
            gamma=args.gamma,
            abar=args.abar,
            delta=args.delta,
            dbar=args.dbar,
            caps=_caps(args),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    record = OutputRecord.from_solution(problem, solve_ext(problem))
    return (record.to_json() if args.json else record.render_table()), 0


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def _scan_lines(args, caps):
    maker = scanner.scan_delta if args.promote == "delta" else scanner.scan_dbar
    diffs = scanner.candidate_diffs(args.b, args.sector) if args.diff is None else [args.diff]
    return [scanner.special_values(maker(args.b, d, sector=args.sector, caps=caps)) for d in diffs]


def _cmd_scan(args) -> tuple[str, int]:
    try:
        caps = _caps(args)
        lines = _scan_lines(args, caps)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    t_role = "quotient weight" if args.promote == "delta" else "sub-module weight"
    if args.json:
        doc = {
            "b": scalar_str(args.b),
            "sector": args.sector,
            "promote": args.promote,
            "t_role": t_role,
            "lines": [],
        }
        for report in lines:
            sp = report.problem
            family = scanner.line_family(sp)
            doc["lines"].append(
                {
                    "diff": scalar_str(sp.diff),
                    "generic_dim": report.generic_dim,
                    "family_g": None if family is None else str(family.g),
                    "certificate": str(report.certificate),
                    "specials": [
                        {
                            "t": scalar_str(value),
                            "delta": scalar_str(sp.weights_at(value)[0]),
                            "dbar": scalar_str(sp.weights_at(value)[1]),
                            "ext_dim": dim,
                        }
                        for value, dim in report.special_values
                    ],
                    "notes": list(report.notes),
                }
            )
        return json.dumps(doc, indent=2) + "\n", 0
    out = [
        f"scan b={scalar_str(args.b)} sector={args.sector} promote={args.promote} "
        f"(t is the {t_role})"
    ]
    for report in lines:
        sp = report.problem
        out.append(f"line diff={scalar_str(sp.diff)}")
        out.append(f"  generic_dim {report.generic_dim}")
        family = scanner.line_family(sp)
        if family is not None:
            out.append(
                f"  family g = {family.g.str_in(('d', 'l'))}"
                "  [valid at every non-special t]"
            )
        out.append(f"  certificate: {report.certificate}")
        if report.special_values:
            out.append("  specials:")
            for value, dim in report.special_values:
                delta, dbar = sp.weights_at(value)
                out.append(
                    f"    t={scalar_str(value)} -> weights "
                    f"({scalar_str(delta)}, {scalar_str(dbar)}), ext_dim {dim}"
                )
        else:
            out.append("  specials: none")
        for note in report.notes:
            out.append(f"  note: {note}")
    return "\n".join(out) + "\n", 0


# ---------------------------------------------------------------------------
# replay / check-axioms / verify
# ---------------------------------------------------------------------------


def _cmd_replay(args) -> tuple[str, int]:
    from .tables import run_table

    result = run_table(args.table)
    return result.render(), 0 if result.passed else 1


def _cmd_check_axioms(args) -> tuple[str, int]:
    from .algebra import check_algebra_axioms, check_module_axioms, free_module, make_wb

    if (args.alpha is None) != (args.delta is None):
        raise UsageError("--alpha and --delta must be given together")
    try:
        alg = make_wb(args.b)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    out = []
    code = 0
    algebra_report = check_algebra_axioms(alg)
    out.append(f"bracket table (b = {scalar_str(args.b)}): {algebra_report}")
    if not algebra_report.passed:
        code = 1
    if args.alpha is not None:
        module_report = check_module_axioms(alg, free_module(alg, args.alpha, args.delta))
        out.append(
            f"free module (alpha = {scalar_str(args.alpha)}, "
            f"delta = {scalar_str(args.delta)}): {module_report}"
        )
        if not module_report.passed:
            code = 1
    return "\n".join(out) + "\n", code


def _cmd_verify(args) -> tuple[str, int]:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read --input file: {exc}") from None
    record = parse_record(text)  # RecordError propagates as a usage failure
    sector = record.problem.sector
    parts = _sector_parts(record.problem.shape, sector)  # the parts the oracle's checks read
    out = []
    outside = []
    failures = 0
    for i, witness in enumerate(record.basis):
        try:
            report = verify_witness(record.problem, witness)
        except ValueError as exc:  # a witness that does not fit the problem's shape
            raise UsageError(f"basis[{i}]: {exc}") from None
        outside += [
            f"claim FAILS: basis[{i}] has a non-zero {part} part, which sector {sector} excludes"
            for part, poly in witness.parts().items()
            if part not in parts and not poly.is_zero()
        ]
        verdict = "ok" if report.passed else "FAIL"
        out.append(f"witness [{i}] {witness}: {verdict}")
        if not report.passed:
            failures += 1
            for label in report.violations:
                top, sub = report.residuals[label]
                residual = sub if top.is_zero() else top
                out.append(f"  residual {label}: {residual}")
    if not record.basis:
        out.append("no witnesses listed; nothing to verify")
    else:
        out.append(
            f"{len(record.basis) - failures}/{len(record.basis)} witness(es) verified"
        )
    failures += len(outside)
    out += outside
    # the document's whole claim, re-derived by the oracle alone; a dimension
    # the document leaves out is not claimed
    claimed = json.loads(text)
    found = dict(zip(("cocycle_dim", "coboundary_dim", "ext_dim"), brute_dims(record.problem)))
    for key, dim in found.items():
        if key in claimed and getattr(record, key) != dim:
            failures += 1
            out.append(f"claim FAILS: {key} = {getattr(record, key)}, the oracle finds {dim}")
    if not independent_mod_coboundaries(record.problem, record.basis):
        failures += 1
        out.append(
            f"claim FAILS: the {len(record.basis)} witness(es) are not independent "
            "modulo the coboundaries inside the caps"
        )
    return "\n".join(out) + "\n", 0 if failures == 0 else 1


_COMMANDS = {
    "solve": _cmd_solve,
    "scan": _cmd_scan,
    "replay": _cmd_replay,
    "check-axioms": _cmd_check_axioms,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text, code = _COMMANDS[args.command](args)
        if getattr(args, "out", None):
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise UsageError(f"cannot write --out file: {exc}") from None
        else:
            sys.stdout.write(text)
    except (UsageError, RecordError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"internal cross-check failed: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
