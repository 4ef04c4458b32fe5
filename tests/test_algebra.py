"""Bracket tables and module actions: the defining identities hold exactly."""

import random
from fractions import Fraction

import pytest

from wbext.algebra import (
    check_algebra_axioms,
    check_module_axioms,
    free_module,
    make_virasoro,
    make_wb,
    trivial_module,
)
from wbext.problems import _B_ZERO_MESSAGE
from wbext.qext import quad


def test_wb_bracket_satisfies_axioms():
    for b in (1, -1, 2, Fraction(-2, 3), Fraction(9, 7)):
        report = check_algebra_axioms(make_wb(b))
        assert report.passed, str(report)


def test_virasoro_bracket_satisfies_axioms():
    report = check_algebra_axioms(make_virasoro())
    assert report.passed, str(report)


def test_b_zero_is_rejected():
    for zero in (0, Fraction(0)):
        with pytest.raises(ValueError) as exc:
            make_wb(zero)
        assert str(exc.value) == _B_ZERO_MESSAGE


@pytest.mark.parametrize("bad", [0.5, True, quad(1, 1, 2)], ids=["float", "bool", "quadext"])
def test_make_wb_takes_only_an_int_or_a_fraction(bad):
    """A float is not converted to W(1/2), a bool is not read as W(1), and
    a Q(sqrt D) value is refused as well."""
    with pytest.raises(ValueError) as exc:
        make_wb(bad)
    assert str(exc.value) == f"b must be an int or a Fraction, got {bad!r}"
    assert make_wb(2).b == make_wb(Fraction(2)).b == 2



@pytest.mark.parametrize("bad", [0.5, True, "1"], ids=["float", "bool", "str"])
def test_module_weights_take_only_an_int_a_fraction_or_a_quadext(bad):
    """free_module and trivial_module refuse a float, a bool or a string
    weight in ExtProblem's words, rather than reading 0.5 as 1/2 or True
    as 1; an int is the Fraction it equals."""
    alg = make_wb(2)
    for name, call in (
        ("alpha", lambda: free_module(alg, bad, 1)),
        ("delta", lambda: free_module(alg, 1, bad)),
        ("gamma", lambda: trivial_module(alg, bad)),
    ):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == f"{name} must be an int, a Fraction or a QuadExt, got {bad!r}"
    module = free_module(alg, 1, quad(1, 1, 2))
    assert (module.alpha, module.delta) == (Fraction(1), quad(1, 1, 2))
    assert trivial_module(alg, 3).gamma == Fraction(3)

def test_free_module_axioms_random_parameters():
    rng = random.Random(20240814)
    for _ in range(15):
        b = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        if b == 0:
            continue
        alg = make_wb(b)
        alpha = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        delta = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        report = check_module_axioms(alg, free_module(alg, alpha, delta))
        assert report.passed, str(report)


def test_trivial_module_axioms():
    alg = make_wb(3)
    report = check_module_axioms(alg, trivial_module(alg, Fraction(-5, 2)))
    assert report.passed, str(report)


def test_virasoro_free_module_axioms():
    alg = make_virasoro()
    report = check_module_axioms(alg, free_module(alg, 0, Fraction(7, 2)))
    assert report.passed, str(report)


def test_report_counts_identities():
    alg = make_wb(2)
    mod = free_module(alg, 0, 1)
    report = check_module_axioms(alg, mod)
    # rank-two algebra: four ordered generator pairs plus two translation rules
    assert len(report.residuals) == 6
    assert "all 6 identities hold" in str(report)
    alg_report = check_algebra_axioms(alg)
    assert report.passed and alg_report.passed
    assert len(alg_report.residuals) == 24


def test_broken_bracket_is_caught():
    from wbext.poly import D, L

    alg = make_wb(1)
    # sabotage the mixed bracket: the skew/Jacobi identities must notice
    alg.bracket[("L", "H")] = {"H": D + 3 * L}
    report = check_algebra_axioms(alg)
    assert not report.passed
    assert report.violations
