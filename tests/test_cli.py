"""End-to-end tests for the command-line interface.

Every test drives :func:`wbext.cli.main` directly with an argv list and
inspects the return code plus captured stdout/stderr, the same contract a
shell user sees: 0 success, 1 mathematical mismatch, 2 usage error.
"""

import copy
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbext import cli, scanner, tables
from wbext.cli import main
from wbext.engine import solve_ext
from wbext.oracle import verify_witness_env
from wbext.poly import MultiPoly
from wbext.problems import Caps, CocycleWitness, ExtProblem
from wbext.records import OutputRecord, parse_poly, parse_record

_SRC = Path(__file__).resolve().parents[1] / "src"

SOLVE_T1 = ["solve", "--type", "1", "--b", "1", "--alpha", "0", "--gamma", "0", "--delta", "1"]
SOLVE_T3 = [
    "solve", "--type", "3", "--b", "2",
    "--alpha", "0", "--abar", "0", "--delta", "3", "--dbar", "1",
]


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_solve_table_output(capsys):
    rc, out, err = run(capsys, SOLVE_T1)
    assert rc == 0
    assert err == ""
    assert "ext_dim         2" in out
    assert "shape           1" in out
    assert "basis:" in out
    assert "[0] f = " in out


def test_solve_json_round_trips(capsys):
    rc, out, _ = run(capsys, SOLVE_T3 + ["--json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["ext_dim"] == 2
    record = parse_record(out)
    assert record.problem == ExtProblem(
        shape=3, b=2, alpha=0, abar=0, delta=3, dbar=1, caps=Caps()
    )
    assert len(record.basis) == doc["ext_dim"]


def test_solve_json_and_table_agree(capsys):
    _, table, _ = run(capsys, SOLVE_T1)
    _, machine, _ = run(capsys, SOLVE_T1 + ["--json"])
    doc = json.loads(machine)
    assert f"ext_dim         {doc['ext_dim']}" in table
    for entry in doc["basis"]:
        assert entry["f"] in table


def test_missing_required_parameter_is_a_usage_error(capsys):
    rc, out, err = run(capsys, ["solve", "--type", "1", "--b", "1", "--alpha", "0", "--gamma", "0"])
    assert rc == 2
    assert out == ""
    assert "requires --delta" in err


def test_forbidden_parameter_is_a_usage_error(capsys):
    rc, _, err = run(capsys, SOLVE_T1 + ["--dbar", "1"])
    assert rc == 2
    assert "does not take --dbar" in err
    rc, _, err = run(capsys, SOLVE_T3 + ["--gamma", "0"])
    assert rc == 2
    assert "does not take --gamma" in err


def test_floats_are_rejected_by_the_flag_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--type", "1", "--b", "1.5", "--alpha", "0", "--gamma", "0", "--delta", "1"])
    assert exc.value.code == 2


def test_zero_b_is_a_usage_error(capsys):
    rc, _, err = run(capsys, ["solve", "--type", "1", "--b", "0", "--alpha", "0", "--gamma", "0", "--delta", "1"])
    assert rc == 2
    assert "error:" in err


def test_negative_rational_option_values_parse(capsys):
    # ``-2/3`` must be treated as a value for --b, not mistaken for a flag.
    rc, out, _ = run(
        capsys,
        ["scan", "--b", "-2/3", "--sector", "g", "--promote", "dbar", "--diff", "4/3"],
    )
    assert rc == 0
    assert "line diff=4/3" in out
    assert "t=-1/3" in out


def test_scan_single_line_text(capsys):
    rc, out, _ = run(capsys, ["scan", "--b", "1", "--sector", "g", "--diff", "2"])
    assert rc == 0
    assert "scan b=1 sector=g promote=dbar" in out
    assert "family g = d - t*l" in out
    assert "generic_dim 1" in out


def test_scan_json_schema(capsys):
    rc, out, _ = run(
        capsys,
        ["scan", "--b", "2", "--sector", "g", "--promote", "dbar", "--diff", "3", "--json"],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["b"] == "2" and doc["sector"] == "g" and doc["promote"] == "dbar"
    assert doc["t_role"] == "sub-module weight"
    (line,) = doc["lines"]
    assert set(line) == {"diff", "generic_dim", "family_g", "certificate", "specials", "notes"}
    assert line["diff"] == "3"
    assert line["family_g"] is not None
    for special in line["specials"]:
        assert set(special) == {"t", "delta", "dbar", "ext_dim"}
        assert Fraction(special["delta"]) - Fraction(special["dbar"]) == 3


def test_scan_delta_promotion_labels_t(capsys):
    rc, out, _ = run(
        capsys, ["scan", "--b", "2", "--sector", "f", "--promote", "delta", "--diff", "2"]
    )
    assert rc == 0
    assert "(t is the quotient weight)" in out


@pytest.mark.parametrize("promote", ["dbar", "delta"])
@pytest.mark.parametrize("b", ["2", "-2/3"])
def test_scan_family_verifies_on_its_own_line(capsys, promote, b):
    """Each printed family g is a cocycle on its line, in either chart: on
    the t = delta chart dbar is t - diff, not t."""
    rc, out, _ = run(capsys, ["scan", "--b", b, "--sector", "g", "--promote", promote, "--json"])
    assert rc == 0
    lines = json.loads(out)["lines"]
    assert [Fraction(line["diff"]) - Fraction(b) for line in lines] == [0, 1, 2, 3]
    maker = scanner.scan_delta if promote == "delta" else scanner.scan_dbar
    families = 0
    for line in lines:
        if line["family_g"] is None:
            continue
        sp = maker(Fraction(b), Fraction(line["diff"]), sector="g")
        fam = CocycleWitness(f=MultiPoly.zero(), g=parse_poly(line["family_g"]))
        assert verify_witness_env(3, sp.env_t(), fam).passed, line
        families += 1
    assert families == 2  # the degree-0 and degree-1 lines


def test_caps_environment_variable(capsys, monkeypatch):
    monkeypatch.setenv("WB_EXT_CAPS", "9,6,9,9")
    rc, out, _ = run(capsys, SOLVE_T1 + ["--json"])
    assert rc == 0
    assert json.loads(out)["diagnostics"]["caps"] == [9, 6, 9, 9]


def test_caps_flags_override_environment(capsys, monkeypatch):
    monkeypatch.setenv("WB_EXT_CAPS", "9,6,9,9")
    rc, out, _ = run(capsys, SOLVE_T1 + ["--json", "--cap-f", "10"])
    assert rc == 0
    assert json.loads(out)["diagnostics"]["caps"] == [10, 6, 9, 9]


def test_malformed_caps_environment_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("WB_EXT_CAPS", "1,2,3")
    rc, _, err = run(capsys, SOLVE_T1)
    assert rc == 2
    assert "WB_EXT_CAPS" in err

    monkeypatch.setenv("WB_EXT_CAPS", "a,b,c,d")
    rc, _, err = run(capsys, SOLVE_T1)
    assert rc == 2
    assert "WB_EXT_CAPS" in err


def test_replay_suite_passes(capsys):
    rc, out, _ = run(capsys, ["replay", "--table", "theo2"])
    assert rc == 0
    assert "summary: 1/1 passed" in out


def test_replay_rejects_unknown_table(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["replay", "--table", "bogus"])
    assert exc.value.code == 2


def test_importing_the_cli_leaves_the_tables_unimported():
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    script = "import sys, wbext.cli; print('wbext.tables' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("argv", [["replay", "--help"], ["replay", "--table", "nope"]])
def test_lazy_table_choices_print_what_the_name_list_prints(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")

    def exit_and_output():
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    lazy = exit_and_output()
    monkeypatch.setattr(cli, "_TableNames", tables.table_names)
    assert lazy == exit_and_output()
    if "nope" in argv:
        assert lazy[0] == 2 and lazy[2].endswith(
            "error: argument --table: invalid choice: 'nope' (choose from 'theo1', "
            "'theo2', 'theo3', 'lemma-g', 'vir-th2', 'vir-th3', 'vir-th4', 'all')\n"
        )


def test_check_axioms_bracket_only(capsys):
    rc, out, _ = run(capsys, ["check-axioms", "--b", "3"])
    assert rc == 0
    assert "bracket table (b = 3)" in out
    assert "free module" not in out


def test_check_axioms_with_module(capsys):
    rc, out, _ = run(capsys, ["check-axioms", "--b", "-2/3", "--alpha", "1", "--delta", "5/3"])
    assert rc == 0
    assert "free module (alpha = 1, delta = 5/3)" in out


def test_check_axioms_needs_both_module_parameters(capsys):
    rc, _, err = run(capsys, ["check-axioms", "--b", "2", "--alpha", "1"])
    assert rc == 2
    assert "--alpha and --delta must be given together" in err


def test_out_flag_writes_file_instead_of_stdout(capsys, tmp_path):
    target = tmp_path / "result.json"
    rc, out, _ = run(capsys, SOLVE_T1 + ["--json", "--out", str(target)])
    assert rc == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["ext_dim"] == 2


def test_out_file_in_a_missing_directory_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.txt"
    rc, out, err = run(capsys, ["check-axioms", "--b", "2", "--out", str(target)])
    assert (rc, out) == (2, "")
    assert err.startswith("error: cannot write --out file:")


def test_out_path_that_is_a_directory_is_a_usage_error(capsys, tmp_path):
    rc, out, err = run(capsys, ["check-axioms", "--b", "2", "--out", str(tmp_path)])
    assert (rc, out) == (2, "")
    assert err.startswith("error: cannot write --out file:")


def test_verify_input_that_is_not_utf8_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "result.json"
    target.write_bytes(b"\xff\xfe{")
    rc, out, err = run(capsys, ["verify", "--input", str(target)])
    assert (rc, out) == (2, "")
    assert err.startswith("error: cannot read --input file:")


def test_verify_accepts_solver_output(capsys, tmp_path):
    target = tmp_path / "result.json"
    main(SOLVE_T3 + ["--json", "--out", str(target)])
    capsys.readouterr()
    rc, out, _ = run(capsys, ["verify", "--input", str(target)])
    assert rc == 0
    assert "2/2 witness(es) verified" in out


def test_verify_flags_tampered_witness(capsys, tmp_path):
    target = tmp_path / "result.json"
    main(SOLVE_T3 + ["--json", "--out", str(target)])
    capsys.readouterr()
    doc = json.loads(target.read_text())
    doc["basis"][0]["f"] = "l^7"
    target.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, ["verify", "--input", str(target)])
    assert rc == 1
    assert "FAIL" in out
    assert "residual" in out
    assert "1/2 witness(es) verified" in out


def _zero_witness(doc):
    return {part: "0" for part in doc["basis"][0]}


def _sector_doc(tmp_path, sector):
    """The solve document of the shape-3 problem at b = -1, (alpha, abar,
    delta, dbar) = (0, 0, 1, 1) in one sector, which the CLI cannot pick."""
    p = ExtProblem(shape=3, b=-1, alpha=0, abar=0, delta=1, dbar=1, sector=sector)
    target = tmp_path / "result.json"
    target.write_text(OutputRecord.from_solution(p, solve_ext(p)).to_json())
    return target, json.loads(target.read_text())


@pytest.mark.parametrize(
    "sector, edit, claims",
    [
        (None, lambda d: {"basis": [d["basis"][0], d["basis"][0]]},
         ["witness(es) are not independent"]),
        (None, lambda d: {"basis": [_zero_witness(d)] * 2}, ["witness(es) are not independent"]),
        (
            None,
            lambda d: {"cocycle_dim": 11, "ext_dim": 3, "basis": d["basis"] + [_zero_witness(d)]},
            ["cocycle_dim = 11, the oracle finds 10", "ext_dim = 3, the oracle finds 2",
             "witness(es) are not independent"],
        ),
        # each witness satisfies the identities, but outside the sector's unknowns
        ("g", lambda d: {"basis": [{"f": "1", "g": "0"}]},
         ["basis[0] has a non-zero f part, which sector g excludes"]),
        ("f", lambda d: {"basis": [{"f": "0", "g": "d + l"}] + d["basis"][1:]},
         ["basis[0] has a non-zero g part, which sector f excludes"]),
    ],
    ids=["repeated-witness", "zero-witnesses", "dims-11-8-3", "f-part-in-g-sector",
         "g-part-in-f-sector"],
)
def test_verify_checks_the_whole_claim(capsys, tmp_path, sector, edit, claims):
    """Witnesses that each satisfy the identities but do not make up the
    claimed extension space are refused, with the failing claim printed."""
    if sector is None:
        target, doc = _solve_doc(tmp_path, SOLVE_T3)
        capsys.readouterr()
        assert (doc["cocycle_dim"], doc["coboundary_dim"], doc["ext_dim"]) == (10, 8, 2)
    else:
        target, doc = _sector_doc(tmp_path, sector)
        assert len(doc["basis"]) == doc["ext_dim"] == {"g": 1, "f": 2}[sector]
    doc.update(edit(doc))
    target.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, ["verify", "--input", str(target)])
    assert rc == 1
    n = len(doc["basis"])
    assert f"{n}/{n} witness(es) verified" in out
    failing = [line for line in out.splitlines() if line.startswith("claim FAILS: ")]
    assert len(failing) == len(claims)
    assert all(claim in line for claim, line in zip(claims, failing))


def test_verify_empty_basis_is_fine(capsys, tmp_path):
    # delta = 2 splits every extension: ext_dim 0 and an empty basis
    split = SOLVE_T3[:-4] + ["--delta", "2", "--dbar", "1"]
    target, doc = _solve_doc(tmp_path, split)
    capsys.readouterr()
    assert (doc["ext_dim"], doc["basis"]) == (0, [])
    rc, out, _ = run(capsys, ["verify", "--input", str(target)])
    assert rc == 0
    assert "no witnesses listed" in out


@pytest.mark.parametrize(
    "edit, named",
    [
        ({"ext_dim": 5}, "field 'ext_dim'"),
        ({"basis": []}, "field 'basis'"),
        ({"ext_dim": -1, "cocycle_dim": 6, "coboundary_dim": 7}, "field 'ext_dim'"),
    ],
    ids=["ext-dim", "empty-basis", "negative"],
)
def test_verify_contradictory_dimensions_are_a_usage_error(capsys, tmp_path, edit, named):
    target, doc = _solve_doc(tmp_path, SOLVE_T3)
    capsys.readouterr()
    doc.update(edit)
    target.write_text(json.dumps(doc))
    rc, out, err = run(capsys, ["verify", "--input", str(target)])
    assert rc == 2 and out == ""
    assert err.startswith("error:") and named in err


def test_verify_malformed_document_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "broken.json"
    target.write_text("{not json")
    rc, _, err = run(capsys, ["verify", "--input", str(target)])
    assert rc == 2
    assert "error:" in err

    target.write_text(json.dumps({"problem": {"shape": 1, "b": "x"}}))
    rc, _, err = run(capsys, ["verify", "--input", str(target)])
    assert rc == 2
    assert "problem.b" in err

    mixed = {"shape": 3, "b": "2", "abar": "0", "delta": "sqrt(2)", "dbar": "sqrt(3)"}
    target.write_text(json.dumps({"problem": mixed, "ext_dim": 0}))
    rc, _, err = run(capsys, ["verify", "--input", str(target)])
    assert rc == 2
    assert "field 'problem'" in err and "quadratic field" in err


def _solve_doc(tmp_path, argv):
    target = tmp_path / "result.json"
    assert main(argv + ["--json", "--out", str(target)]) == 0
    return target, json.loads(target.read_text())


def test_verify_document_without_alpha_is_a_usage_error(capsys, tmp_path):
    target, doc = _solve_doc(tmp_path, SOLVE_T3)
    capsys.readouterr()
    del doc["problem"]["alpha"]
    target.write_text(json.dumps(doc))
    rc, out, err = run(capsys, ["verify", "--input", str(target)])
    assert rc == 2 and out == ""
    assert err.startswith("error: field 'problem'") and "alpha" in err


@pytest.fixture(scope="module")
def t3_document(tmp_path_factory):
    return _solve_doc(tmp_path_factory.mktemp("t3"), SOLVE_T3)


def _doc_paths(node, path=()):
    """The path of every object member and list item in a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _doc_paths(child, path + (key,))


_DROP = object()


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_verify_survives_any_single_field_mutation(t3_document, data):
    """A document with one field dropped or of the wrong JSON type is
    verified, refused as a mismatch or refused as a usage error; it never
    raises."""
    target, doc = t3_document
    path = data.draw(st.sampled_from(list(_doc_paths(doc))))
    value = data.draw(st.sampled_from([_DROP, None, 0.5, True, False, [], ["1"], 7, -1]))
    doc = copy.deepcopy(doc)
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if value is _DROP:
        del parent[last]
    else:
        parent[last] = value
    target.write_text(json.dumps(doc))
    assert main(["verify", "--input", str(target)]) in (0, 1, 2)


def test_verify_reads_a_zero_square_root_as_zero(capsys, tmp_path):
    target, doc = _solve_doc(tmp_path, SOLVE_T1)
    capsys.readouterr()
    doc["problem"]["delta"] = "0"
    target.write_text(json.dumps(doc))
    expected = run(capsys, ["verify", "--input", str(target)])
    doc["problem"]["delta"] = "sqrt(0)"
    target.write_text(json.dumps(doc))
    assert run(capsys, ["verify", "--input", str(target)]) == expected


def test_verify_division_by_zero_in_a_witness_is_a_usage_error(capsys, tmp_path):
    target, doc = _solve_doc(tmp_path, SOLVE_T3)
    capsys.readouterr()
    doc["basis"][0]["f"] = "1/0*l"
    target.write_text(json.dumps(doc))
    rc, out, err = run(capsys, ["verify", "--input", str(target)])
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "basis[0].f" in err


def test_verify_deeply_nested_witness_is_a_usage_error(capsys, tmp_path):
    """Nesting past the parser's bound is reported against its field, with
    exit 2, rather than as a RecursionError."""
    target, doc = _solve_doc(tmp_path, SOLVE_T1)
    capsys.readouterr()
    doc["basis"][0]["f"] = "(" * 2000 + "l" + ")" * 2000
    target.write_text(json.dumps(doc))
    rc, out, err = run(capsys, ["verify", "--input", str(target)])
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "basis[0].f" in err


def test_verify_witness_above_its_cap_is_a_usage_error(capsys, tmp_path):
    """A short string of huge degree is refused against the document's cap
    before any checking starts, rather than expanded and verified."""
    target, doc = _solve_doc(tmp_path, SOLVE_T1)
    capsys.readouterr()
    doc["basis"][0]["f"] = "l^5000"
    target.write_text(json.dumps(doc))
    start = time.monotonic()
    rc, out, err = run(capsys, ["verify", "--input", str(target)])
    assert time.monotonic() - start < 5
    assert rc == 2 and out == ""
    assert err.startswith("error: field 'basis[0].f'") and "cap f = 8" in err


def test_verify_witness_above_its_cap_is_refused_before_expanding(capsys, tmp_path):
    """A short power whose expansion alone would take many seconds is refused
    by the parser's degree bound, before it is expanded."""
    target, doc = _solve_doc(tmp_path, SOLVE_T1)
    capsys.readouterr()
    doc["basis"][0]["f"] = "(d+l)^2000"
    target.write_text(json.dumps(doc))
    start = time.monotonic()
    rc, out, err = run(capsys, ["verify", "--input", str(target)])
    assert time.monotonic() - start < 2
    assert rc == 2 and out == ""
    assert err.startswith("error: field 'basis[0].f'")
    assert "total degree 2000 exceeds the cap f = 8" in err


def test_verify_witness_at_its_cap_still_verifies(capsys, tmp_path):
    # at caps f = 2, g = 1 the shape-1 basis is l^2 and 1, each at its cap
    target, doc = _solve_doc(tmp_path, SOLVE_T1 + ["--cap-f", "2", "--cap-g", "1"])
    capsys.readouterr()
    assert doc["basis"] == [{"f": "l^2", "g": "0"}, {"f": "0", "g": "1"}]
    rc, out, _ = run(capsys, ["verify", "--input", str(target)])
    assert rc == 0 and "2/2 witness(es) verified" in out
    doc["basis"][1]["g"] = "l^2"
    target.write_text(json.dumps(doc))
    rc, out, err = run(capsys, ["verify", "--input", str(target)])
    assert rc == 2 and out == ""
    assert err.startswith("error: field 'basis[1].g'") and "cap g = 1" in err


def test_verify_witness_of_the_wrong_shape_is_a_usage_error(capsys, tmp_path):
    for argv, index, entry in ((SOLVE_T1, 0, {"f": "d"}), (SOLVE_T3, 1, {"h": "d"})):
        target, doc = _solve_doc(tmp_path, argv)
        capsys.readouterr()
        doc["basis"][index].update(entry)
        target.write_text(json.dumps(doc))
        rc, out, err = run(capsys, ["verify", "--input", str(target)])
        assert rc == 2 and out == ""
        assert err.startswith("error:") and f"basis[{index}]" in err


@pytest.mark.parametrize(
    "witness, named",
    [
        ({"f": "0", "g": "u"}, "g uses u"),
        ({"f": "0", "g": "t"}, "g uses t"),
        ({"f": "t*l", "g": "0"}, "f uses t"),
    ],
    ids=["g-u", "g-t", "f-t"],
)
def test_verify_witness_in_u_or_t_is_a_usage_error(capsys, tmp_path, witness, named):
    target, doc = _solve_doc(tmp_path, SOLVE_T3)
    capsys.readouterr()
    doc["basis"][0] = witness
    target.write_text(json.dumps(doc))
    rc, out, err = run(capsys, ["verify", "--input", str(target)])
    assert rc == 2 and out == ""
    assert err.startswith("error: basis[0]:") and named in err


def test_verify_missing_file_is_a_usage_error(capsys, tmp_path):
    rc, _, err = run(capsys, ["verify", "--input", str(tmp_path / "absent.json")])
    assert rc == 2
    assert "cannot read --input" in err


def test_output_is_byte_deterministic(capsys):
    outputs = []
    for _ in range(2):
        rc, out, _ = run(capsys, SOLVE_T3 + ["--json"])
        assert rc == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    scans = []
    for _ in range(2):
        rc, out, _ = run(capsys, ["scan", "--b", "1", "--sector", "g", "--diff", "2", "--json"])
        assert rc == 0
        scans.append(out)
    assert scans[0] == scans[1]



_HASH_SCRIPT = """
import contextlib, hashlib, io
from wbext.cli import main
for argv in (
    "solve --type 1 --b 1 --alpha 0 --gamma 0 --delta 1 --json",
    "solve --type 2 --b 3 --alpha 1 --gamma -1 --delta 1 --json",
    "solve --type 3 --b 2 --alpha 0 --abar 0 --delta 3 --dbar 1 --json",
    "scan --b -2/3 --sector full --json",
    "scan --b 5 --sector full --json",
    "scan --b 2 --sector f --promote delta --diff 2",
    "scan --b 3 --sector full --promote delta --json",
    "scan --b -2/3 --sector g --promote delta --json",
):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv.split()) == 0
    print(hashlib.sha256(out.getvalue().encode()).hexdigest())
"""

# sha256 of each command's stdout above, in order; a change to any printed
# byte (a dimension, a basis polynomial, a certificate, a note) shows here
_PINNED_OUTPUT_HASHES = [
    "6784532625015caa5a50dd8ad505768032423b41f76eced41c2ab4e00e424eee",
    "5f6f2ac49212d0745db5a96f28a265ea56d2b83a9a1545f2a3e23ceca22c560c",
    "3c8ef7c0169fc78f333e1268e2f71a9c9c653b8006f68ad498db52015fd7eb06",
    "2ccc2458508cc3e5fbe307a2db526b39301fea85cbf427fa799b8bec1e2cf49f",
    "88c21d00c6addfb6a1c708158cbfc88f4601ba83dd2b36768e051ec95e1678c0",
    "bfb451c261d6a02f7cace9a2d0ef8d235f5d30b83f79e6cfdaad17f8393ac007",
    "fb9da1f30be964ed7f62f037f6ffc79dbbaf94df8abeb499119d7cdb49378894",
    "3089cc328e299a1c7f5898166dd58b592c4097e2d311895dd9ef5c5ad79fa759",
]


def test_output_bytes_do_not_depend_on_the_hash_seed():
    outputs = []
    for seed in ("1", "4242"):
        env = {**os.environ, "PYTHONPATH": str(_SRC), "PYTHONHASHSEED": seed}
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SCRIPT], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.split())
    assert outputs[0] == outputs[1] == _PINNED_OUTPUT_HASHES
