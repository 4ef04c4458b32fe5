"""Scalar layer: exact rationals and quadratic-field elements."""

import math
import random
from fractions import Fraction

import pytest

from wbext.qext import QuadExt, parse_rational, quad, split_square


def test_parse_rational_accepts_integers_and_fractions():
    assert parse_rational("7") == 7
    assert parse_rational("-3/9") == Fraction(-1, 3)
    assert parse_rational(" 10/4 ") == Fraction(5, 2)
    assert parse_rational("+2") == 2


@pytest.mark.parametrize("bad", ["0.5", "1e3", "", "a/b", "1/0", "1/", "--2", "2 3"])
def test_parse_rational_rejects_non_rationals(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


# a ``\d`` pattern takes non-ASCII digits, and int() reads them
@pytest.mark.parametrize("bad", ["\uff11", "1/\uff12", "-\u0663"])
def test_parse_rational_takes_only_ascii_decimal_digits(bad):
    with pytest.raises(ValueError, match="not an exact rational"):
        parse_rational(bad)
    assert parse_rational(" -12/ 8 ") == Fraction(-3, 2)


def test_format_rational_round_trips():
    for x in (Fraction(0), Fraction(-7, 3), Fraction(22, 11)):
        assert parse_rational(str(x)) == x


def test_split_square_extracts_square_parts():
    assert split_square(12) == (2, 3)
    assert split_square(49) == (7, 1)
    assert split_square(19) == (1, 19)
    assert split_square(1) == (1, 1)
    assert split_square(0) == (0, 0)
    assert split_square(-8) == (2, -2)
    # one large prime squared, caught by the isqrt fallback
    assert split_square(10007 * 10007) == (10007, 1)


def test_quad_collapses_to_rational_when_possible():
    assert quad(3, 0, 19) == Fraction(3)
    assert quad(1, 2, 25) == Fraction(11)  # 1 + 2*5
    assert isinstance(quad(0, 1, 19), QuadExt)


def test_quad_normalizes_discriminant():
    assert quad(0, 1, 12) == quad(0, 2, 3)
    assert quad(0, 1, 12).disc == 3


def test_quadext_requires_nonzero_irrational_part():
    with pytest.raises(ValueError):
        QuadExt(1, 0, 19)
    with pytest.raises(ValueError):
        QuadExt(1, 1, 1)


def test_quadext_normalises_its_discriminant_as_quad_does():
    """A square part of ``disc`` goes into ``q`` when the element is built,
    so one field has one ``disc`` and its elements mix."""
    assert QuadExt(0, 1, 12) == quad(0, 1, 12) == QuadExt(0, 2, 3)
    assert (QuadExt(0, 1, 12).q, QuadExt(0, 1, 12).disc) == (2, 3)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    assert QuadExt(-5 * half, quarter, 76) == quad(-5 * half, half, 19)
    assert QuadExt(1, 1, -12).disc == -3
    assert QuadExt(0, 1, 12) + 1 - QuadExt(0, 1, 12) == 1
    names = {"QuadExt": QuadExt, "Fraction": Fraction}
    assert eval(repr(QuadExt(1, 1, 12)), names) == quad(1, 2, 3)


@pytest.mark.parametrize("disc", [0, 1, 4, 9, 12 * 12])
def test_quadext_refuses_a_rational_square_root(disc):
    """``QuadExt(1, 1, 4)`` would be 3 yet not equal to it; ``quad`` builds
    such a value as the ``Fraction`` it is, and the message says so."""
    with pytest.raises(ValueError) as exc:
        QuadExt(1, 1, disc)
    assert str(exc.value) == (
        f"invalid discriminant {disc}: sqrt({disc}) is rational; "
        "use quad() for general construction"
    )
    assert quad(1, 1, disc) == 1 + math.isqrt(disc)


@pytest.mark.parametrize("disc", [2.0, 8.0, True, "2", Fraction(8), Fraction(2, 1)])
def test_a_disc_that_is_not_an_int_is_refused(disc):
    """A float disc would reach ``math.isqrt`` and a ``Fraction`` one would
    be kept; both entry points refuse any disc but a plain ``int`` with a
    ``ValueError`` that names it, as every weight entry point does."""
    for build in (QuadExt, quad):
        with pytest.raises(ValueError) as exc:
            build(1, 1, disc)
        assert str(exc.value) == f"disc must be an int, got {disc!r}"


def test_quadext_is_immutable():
    x = quad(1, 1, 19)
    with pytest.raises(AttributeError):
        x.p = Fraction(2)


def test_mixed_fields_are_rejected():
    with pytest.raises(ValueError):
        quad(0, 1, 2) + quad(0, 1, 3)


def test_conjugate_and_norm():
    x = quad(Fraction(7, 2), Fraction(1, 2), 19)
    conj = quad(x.p, -x.q, x.disc)
    assert x * conj == x.norm()
    assert x.norm() == Fraction(49, 4) - Fraction(19, 4)
    assert x + conj == Fraction(7)


def test_sqrt19_squares_back():
    root = quad(0, 1, 19)
    assert root * root == Fraction(19)
    assert root**2 == Fraction(19)
    assert root**0 == Fraction(1)


def test_division_and_inverse():
    x = quad(2, -1, 19)
    assert x * x.inverse() == Fraction(1)
    assert (x / x) == Fraction(1)
    assert 1 / x == x.inverse()
    with pytest.raises(ZeroDivisionError):
        x / 0


def test_str_forms():
    assert str(quad(2, 1, 19)) == "2+sqrt(19)"
    assert str(quad(2, -1, 19)) == "2-sqrt(19)"
    assert str(quad(0, Fraction(-3, 2), 19)) == "-3/2*sqrt(19)"
    assert str(quad(Fraction(7, 2), Fraction(1, 2), 19)) == "7/2+1/2*sqrt(19)"


def test_equality_never_straddles_types():
    assert quad(1, 1, 19) != Fraction(1)
    assert quad(1, 1, 19) != 1
    assert hash(quad(1, 2, 19)) == hash(QuadExt(1, 2, 19))


def test_field_laws_random():
    rng = random.Random(20240811)
    for _ in range(60):
        disc = rng.choice([2, 3, 5, 19, -1])
        def draw():
            return quad(
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                disc,
            )
        x, y, z = draw(), draw(), draw()
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) - y == x
        if isinstance(x, QuadExt) and x.norm() != 0:
            assert x * x.inverse() == Fraction(1)


def test_norm_is_multiplicative():
    rng = random.Random(7)

    def norm_of(v):
        return v.norm() if isinstance(v, QuadExt) else Fraction(v) ** 2

    for _ in range(40):
        x = quad(rng.randint(-6, 6), rng.randint(-6, 6), 7)
        y = quad(rng.randint(-6, 6), rng.randint(-6, 6), 7)
        assert norm_of(x * y) == norm_of(x) * norm_of(y)
