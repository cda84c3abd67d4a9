from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cherloc import KappaMode, ParamScalar, format_rational, parse_rational, parse_scalar

RATIONAL = KappaMode.rational(Fraction(1, 2))
FORMAL = KappaMode.formal()

rationals = st.fractions(max_denominator=40)
modes = st.sampled_from([RATIONAL, FORMAL, KappaMode.rational(Fraction(-2, 3))])


@st.composite
def scalars(draw, mode=None):
    if mode is None:
        mode = draw(modes)
    return mode.scalar(draw(rationals), draw(rationals))


def test_rational_mode_substitutes_kappa_eagerly():
    x = RATIONAL.scalar(1, 3)  # 1 + 3*(1/2)
    assert (x.a, x.b) == (Fraction(5, 2), Fraction(0))


def test_formal_mode_keeps_kappa_coefficient():
    x = FORMAL.scalar(1, 3)
    assert (x.a, x.b) == (Fraction(1), Fraction(3))


def test_mixing_modes_is_an_error():
    with pytest.raises(ValueError):
        RATIONAL.scalar(1) + FORMAL.scalar(1)


def test_arithmetic_against_plain_rationals():
    x = FORMAL.scalar(Fraction(1, 2), 1)
    assert x + 1 == FORMAL.scalar(Fraction(3, 2), 1)
    assert 1 - x == FORMAL.scalar(Fraction(1, 2), -1)
    assert x * 2 == FORMAL.scalar(1, 2)
    assert x / 2 == FORMAL.scalar(Fraction(1, 4), Fraction(1, 2))


@given(x=scalars(), y=scalars())
def test_addition_commutes_within_one_mode(x, y):
    if x.mode != y.mode:
        y = x.mode.scalar(y.a, y.b)
    assert x + y == y + x
    assert (x + y) - y == x


@given(x=scalars(), q=rationals)
def test_scaling_distributes(x, q):
    assert (x + x) * q == x * q + x * q
    assert -x == x * -1


def test_in_integers_plus_rational_mode():
    # value 5/2 = 2 + 1/2
    x = RATIONAL.scalar(Fraction(5, 2))
    assert x.in_integers_plus(Fraction(1, 2))
    assert not x.in_integers_plus(Fraction(1, 3))
    assert x.in_integers_plus(Fraction(-1, 2))


def test_in_integers_plus_formal_mode_needs_zero_kappa_part():
    assert not FORMAL.kappa().in_integers_plus(0)
    assert FORMAL.scalar(Fraction(7, 3)).in_integers_plus(Fraction(1, 3))


@given(x=scalars(), offset=rationals, shift=st.integers(-5, 5))
def test_in_integers_plus_invariant_under_integer_offset_shift(x, offset, shift):
    assert x.in_integers_plus(offset) == x.in_integers_plus(offset + shift)


def test_rational_string_round_trip():
    assert parse_rational("-3/6") == Fraction(-1, 2)
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(0) == "0/1"
    assert format_rational(Fraction(4, 2)) == "2/1"
    with pytest.raises(ValueError):
        parse_rational("1.5")


@given(x=scalars())
def test_scalar_json_round_trip(x):
    assert ParamScalar.from_json(x.to_json(), x.mode) == x


def test_rational_json_omits_kappa_part():
    assert RATIONAL.scalar(1, 1).to_json() == {"a": "3/2"}
    assert FORMAL.scalar(1, 1).to_json() == {"a": "1/1", "b": "1/1"}


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3", (3, 0)),
        ("-1/2", (Fraction(-1, 2), 0)),
        ("k", (0, 1)),
        ("-k", (0, -1)),
        ("3/4k", (0, Fraction(3, 4))),
        ("1/2+3k", (Fraction(1, 2), 3)),
        ("1/2-k", (Fraction(1, 2), -1)),
        ("-1/2-3/4k", (Fraction(-1, 2), Fraction(-3, 4))),
    ],
)
def test_parse_scalar_syntax(text, expected):
    parsed = parse_scalar(text, FORMAL)
    assert (parsed.a, parsed.b) == (Fraction(expected[0]), Fraction(expected[1]))


def test_parse_scalar_rejects_junk():
    for bad in ("", "k+1", "1.5", "one"):
        with pytest.raises(ValueError):
            parse_scalar(bad, FORMAL)
