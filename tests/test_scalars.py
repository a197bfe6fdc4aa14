import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepgraph.scalars import GaussianRational, ScalarError, parse_scalar

rationals = st.builds(
    Fraction, st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=20)
)
gaussians = st.builds(GaussianRational, rationals, rationals)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3/2", GaussianRational.of(Fraction(3, 2))),
        ("-3", GaussianRational.of(-3)),
        ("i", GaussianRational.of(0, 1)),
        ("-i", GaussianRational.of(0, -1)),
        ("1/2i", GaussianRational.of(0, Fraction(1, 2))),
        ("3/2+1/2i", GaussianRational.of(Fraction(3, 2), Fraction(1, 2))),
        ("3/2-1/2i", GaussianRational.of(Fraction(3, 2), Fraction(-1, 2))),
        ("2-i", GaussianRational.of(2, -1)),
        ("1e-5", GaussianRational.of(Fraction(1, 10**5))),
        ("1e-5i", GaussianRational.of(0, Fraction(1, 10**5))),
        ("2-1e-5i", GaussianRational.of(2, Fraction(-1, 10**5))),
        ("-2.5E+2+1e2i", GaussianRational.of(-250, 100)),
        ("1e5-2E-3i", GaussianRational.of(10**5, Fraction(-2, 1000))),
        ("3/2-i", GaussianRational.of(Fraction(3, 2), -1)),
    ],
)
def test_parse(text, expected):
    assert parse_scalar(text) == expected


@pytest.mark.parametrize("text", ["", "3+2", "blah", "1//2", "1e", "e-5i", "2-1e-5"])
def test_parse_rejects(text):
    with pytest.raises(ScalarError):
        parse_scalar(text)


@pytest.mark.parametrize("text", ["1e5000", "1e-5000", "2-1e5000i", "1e00_5000"])
def test_an_exponent_past_the_bound_is_rejected_before_the_power_is_built(text):
    with pytest.raises(ScalarError, match="exponent of magnitude over 4300"):
        parse_scalar(text)


def test_an_exponent_at_the_bound_parses():
    assert parse_scalar("1e4300") == GaussianRational.of(10**4300)
    assert parse_scalar("-1e-4300i") == GaussianRational.of(0, Fraction(-1, 10**4300))


@given(gaussians)
def test_format_roundtrip(z):
    assert parse_scalar(str(z)) == z


@given(gaussians, gaussians)
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(gaussians, gaussians, gaussians)
def test_ring_identities(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) - b == a


def test_norm_is_positive():
    z = GaussianRational.of(Fraction(3, 5), Fraction(-2, 7))
    norm = z * z.conjugate()
    assert norm.im == 0 and norm.re > 0


# -- differential test against a (Fraction, Fraction) model --------------------

wide_rationals = st.builds(
    Fraction,
    st.integers(min_value=-(10**12), max_value=10**12),
    st.integers(min_value=1, max_value=10**6),
)
pairs = st.tuples(wide_rationals, wide_rationals)


def model_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def model_str(x):
    re, im = x
    if not im:
        return str(re)
    imag = "i" if abs(im) == 1 else f"{abs(im)}i"
    if not re:
        return imag if im > 0 else "-" + imag
    return f"{re}{'+' if im > 0 else '-'}{imag}"


def check_value(z, x):
    """``z`` represents the model value ``x`` and is in canonical form."""
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == x
    assert z._d > 0 and math.gcd(z._a, z._b, z._d) == 1
    assert z == GaussianRational(*x) and hash(z) == hash(GaussianRational(*x))
    assert bool(z) == bool(x[0] or x[1])
    assert str(z) == repr(z) == model_str(x)


@given(pairs, pairs, st.integers(min_value=-50, max_value=50), wide_rationals)
def test_matches_fraction_pair_model(x, y, k, q):
    a, b = GaussianRational(*x), GaussianRational(*y)
    check_value(a, x)
    check_value(a + b, (x[0] + y[0], x[1] + y[1]))
    check_value(a - b, (x[0] - y[0], x[1] - y[1]))
    check_value(a * b, model_mul(x, y))
    check_value(-a, (-x[0], -x[1]))
    check_value(a.conjugate(), (x[0], -x[1]))
    for factor in (k, q):
        check_value(a * factor, (x[0] * factor, x[1] * factor))
        check_value(factor * a, (x[0] * factor, x[1] * factor))
    check_value(a - a, (0, 0))
    assert (a == b) == (x == y)


def test_constructor_accepts_ints_and_fractions():
    z = GaussianRational(3, Fraction(-4, 6))
    assert z.re == 3 and z.im == Fraction(-2, 3)
    assert (z._a, z._b, z._d) == (9, -2, 3)
    assert GaussianRational(Fraction(2, 4), 0) == GaussianRational.of(Fraction(1, 2))
    assert GaussianRational.of(2) != 2
