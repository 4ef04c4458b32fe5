"""Result documents: serialization, parsing, and field-level error reporting."""

import json
from fractions import Fraction

import pytest

from wbext.engine import solve_ext
from wbext.problems import Caps, ExtProblem
from wbext.qext import quad
from wbext.records import (
    OutputRecord,
    RecordError,
    parse_poly,
    parse_record,
    parse_scalar,
    scalar_str,
)


def _record(problem):
    return OutputRecord.from_solution(problem, solve_ext(problem))


def test_scalar_round_trip():
    for x in (Fraction(3), Fraction(-7, 2), quad(2, -1, 19), quad(0, Fraction(1, 2), 5)):
        assert parse_scalar(scalar_str(x), "x") == x


def test_parse_scalar_rejects_floats_and_noise():
    for bad in ("0.5", "sqrt(4", "1 + ", "2**3", ""):
        with pytest.raises(RecordError) as err:
            parse_scalar(bad, "problem.delta")
        assert err.value.field == "problem.delta"


def test_poly_round_trip_with_quadratic_coefficients():
    text = "(2-sqrt(19))*d^3*l^4 + 1/2*l"
    assert str(parse_poly(text, "f")) == text


def test_json_round_trip_rational():
    rec = _record(ExtProblem(shape=3, b=3, alpha=0, abar=0, delta=1, dbar=-4))
    again = parse_record(rec.to_json())
    assert again.to_json() == rec.to_json()
    assert again.ext_dim == 2
    assert again.problem == rec.problem


def test_json_round_trip_quadratic_weights():
    delta = quad(Fraction(7, 2), Fraction(1, 2), 19)
    rec = _record(
        ExtProblem(shape=3, b=None, sector="f", alpha=0, abar=0,
                   delta=delta, dbar=delta - 6)
    )
    again = parse_record(rec.to_json())
    assert again.problem.delta == delta
    assert again.to_json() == rec.to_json()


def test_table_and_json_encode_identical_data():
    rec = _record(ExtProblem(shape=2, b=3, alpha=1, gamma=-1, delta=1))
    table = rec.render_table()
    doc = json.loads(rec.to_json())
    assert f"ext_dim         {doc['ext_dim']}" in table
    for witness in doc["basis"]:
        assert witness["f"] in table
    assert str(doc["problem"]["b"]) in table


def test_parse_record_rejects_non_json():
    with pytest.raises(RecordError) as err:
        parse_record("not a document")
    assert err.value.field == "document"


def test_parse_record_names_offending_field():
    rec = _record(ExtProblem(shape=1, b=1, alpha=0, gamma=0, delta=1))
    doc = json.loads(rec.to_json())
    doc["basis"][0]["f"] = "1.5*l"
    with pytest.raises(RecordError) as err:
        parse_record(json.dumps(doc))
    assert err.value.field == "basis[0].f"


def test_parse_record_rejects_bad_problem_parameter():
    rec = _record(ExtProblem(shape=1, b=1, alpha=0, gamma=0, delta=1))
    doc = json.loads(rec.to_json())
    doc["problem"]["b"] = "x"
    with pytest.raises(RecordError) as err:
        parse_record(json.dumps(doc))
    assert err.value.field == "problem.b"


@pytest.mark.parametrize("cap", [True, False, 2.0, "8"])
def test_parse_record_rejects_non_integer_caps(cap):
    rec = _record(ExtProblem(shape=1, b=1, alpha=0, gamma=0, delta=1))
    doc = json.loads(rec.to_json())
    doc["problem"]["caps"][0] = cap
    with pytest.raises(RecordError) as err:
        parse_record(json.dumps(doc))
    assert err.value.field == "problem.caps"


@pytest.mark.parametrize(
    "bad",
    [{"alpha": None}, {"alpha": 0.1}, {"b": True}, {"b": "2"}, {"gamma": False}, {"delta": 1.0}],
    ids=["alpha-none", "alpha-float", "b-bool", "b-str", "gamma-bool", "delta-float"],
)
def test_problem_parameters_must_be_exact_numbers(bad):
    """Parameters are int, Fraction or QuadExt; a float would be read as its
    binary value, and a bool or a string is no weight at all."""
    with pytest.raises(ValueError):
        ExtProblem(**{"shape": 1, "b": 2, "alpha": 0, "gamma": 0, "delta": 1, **bad})


@pytest.mark.parametrize("shape", [True, 1.0, "1"], ids=["bool", "float", "str"])
def test_problem_shape_must_be_an_int(shape):
    """``shape=True`` or ``1.0`` would solve as shape 1 and then be written
    as a shape that ``parse_record`` rejects."""
    with pytest.raises(ValueError):
        ExtProblem(shape=shape, b=1, alpha=0, gamma=0, delta=1)


def test_boolean_caps_fail_validation():
    with pytest.raises(ValueError):
        Caps(True, 5, 8, 8).validate()


def test_parse_record_rejects_missing_dimension():
    rec = _record(ExtProblem(shape=1, b=1, alpha=0, gamma=0, delta=1))
    doc = json.loads(rec.to_json())
    del doc["ext_dim"]
    with pytest.raises(RecordError) as err:
        parse_record(json.dumps(doc))
    assert err.value.field == "ext_dim"


def _solved_doc():
    # cocycle_dim 9, coboundary_dim 7, ext_dim 2, two basis witnesses
    return json.loads(_record(ExtProblem(shape=3, b=2, alpha=0, abar=0, delta=3, dbar=1)).to_json())


@pytest.mark.parametrize("key", ["cocycle_dim", "coboundary_dim", "ext_dim"])
def test_parse_record_rejects_a_negative_dimension(key):
    doc = _solved_doc()
    doc[key] = -1
    with pytest.raises(RecordError, match="negative") as err:
        parse_record(json.dumps(doc))
    assert err.value.field == key


def test_parse_record_rejects_ext_dim_other_than_the_quotient_dimension():
    doc = _solved_doc()
    doc["ext_dim"] = 5
    with pytest.raises(RecordError) as err:
        parse_record(json.dumps(doc))
    assert err.value.field == "ext_dim"
    # without both quotient dimensions there is nothing to contradict, but
    # the basis still has to list ext_dim witnesses
    del doc["coboundary_dim"]
    with pytest.raises(RecordError) as err:
        parse_record(json.dumps(doc))
    assert err.value.field == "basis"
    doc["ext_dim"] = 2
    assert parse_record(json.dumps(doc)).ext_dim == 2


def test_parse_record_rejects_a_basis_of_the_wrong_length():
    doc = _solved_doc()
    basis = doc["basis"]
    for wrong in ([], basis[:1], basis + basis[:1]):
        doc["basis"] = wrong
        with pytest.raises(RecordError) as err:
            parse_record(json.dumps(doc))
        assert err.value.field == "basis"
    # a document that lists no basis at all is still read, as before
    del doc["basis"]
    assert parse_record(json.dumps(doc)).basis == []
    assert parse_record(json.dumps({"problem": doc["problem"], "ext_dim": 0})).ext_dim == 0


def test_parse_record_rejects_unknown_witness_entry():
    rec = _record(ExtProblem(shape=1, b=1, alpha=0, gamma=0, delta=1))
    doc = json.loads(rec.to_json())
    doc["basis"][0]["extra"] = "1"
    with pytest.raises(RecordError) as err:
        parse_record(json.dumps(doc))
    assert "basis[0]" in err.value.field


def test_output_is_byte_stable():
    p = ExtProblem(shape=3, b=5, alpha=0, abar=0, delta=1, dbar=-6)
    assert _record(p).to_json() == _record(p).to_json()
    assert _record(p).render_table() == _record(p).render_table()


def test_rationals_serialize_as_integer_ratio_strings():
    rec = _record(
        ExtProblem(shape=3, b=Fraction(-2, 3), alpha=0, abar=0,
                   delta=Fraction(5, 3), dbar=Fraction(-2, 3))
    )
    doc = json.loads(rec.to_json())
    assert doc["problem"]["b"] == "-2/3"
    assert doc["problem"]["delta"] == "5/3"
    assert doc["ext_dim"] == 1
