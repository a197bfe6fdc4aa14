"""Gaussian rational scalars: exact elements of Q(i).

Every value the algebra operations produce lies in Q(i); keeping the scalars
exact means all comparisons downstream are plain equality.

A value is stored as three Python ints ``(a, b, d)`` meaning ``(a + b·i)/d``,
in canonical form: ``d > 0`` and ``gcd(a, b, d) = 1``.  Equal values therefore
have equal fields, so equality and hashing compare ints, and each arithmetic
result is normalised by a single ``math.gcd`` (none at all when ``d == 1``,
which is the common case: the rewriting coefficients are ±1).  The real and
imaginary parts are available as ``Fraction`` through ``re`` and ``im``.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd

from .graphs import QUOTE_LIMIT, quote


class ScalarError(ValueError):
    pass


class GaussianRational:
    """``(a + b·i)/d`` with ``d > 0`` and ``gcd(a, b, d) = 1``."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re, im):
        re, im = Fraction(re), Fraction(im)
        q, s = re.denominator, im.denominator
        d = q * s // gcd(q, s)
        # over the lcm of two reduced denominators the triple is already coprime
        self._a = re.numerator * (d // q)
        self._b = im.numerator * (d // s)
        self._d = d

    @staticmethod
    def of(re=0, im=0) -> "GaussianRational":
        return GaussianRational(re, im)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        d, f = self._d, other._d
        if d == f:
            return _canonical(self._a + other._a, self._b + other._b, d)
        return _canonical(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        d, f = self._d, other._d
        if d == f:
            return _canonical(self._a - other._a, self._b - other._b, d)
        return _canonical(self._a * f - other._a * d, self._b * f - other._b * d, d * f)

    def __neg__(self) -> "GaussianRational":
        return _canonical(-self._a, -self._b, self._d)

    def __mul__(self, other):
        if type(other) is GaussianRational:
            a, b, c, e = self._a, self._b, other._a, other._b
            return _canonical(a * c - b * e, a * e + b * c, self._d * other._d)
        if isinstance(other, int):
            return _canonical(self._a * other, self._b * other, self._d)
        if isinstance(other, Fraction):
            n = other.numerator
            return _canonical(self._a * n, self._b * n, self._d * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return _canonical(self._a, -self._b, self._d)

    def __eq__(self, other) -> bool:
        if type(other) is not GaussianRational:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __str__(self) -> str:
        re, im = self.re, self.im
        try:
            if not im:
                return str(re)
            imag = "i" if abs(im) == 1 else f"{abs(im)}i"
            if not re:
                return imag if im > 0 else "-" + imag
            sign = "+" if im > 0 else "-"
            return f"{re}{sign}{imag}"
        except ValueError:  # str() of an int past Python's int-string limit
            raise ScalarError(f"a coefficient has more than {sys.get_int_max_str_digits()} digits") from None

    __repr__ = __str__


def _canonical(a: int, b: int, d: int) -> GaussianRational:
    """``(a + b·i)/d`` for ``d > 0``, brought to canonical form."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    z = object.__new__(GaussianRational)
    z._a = a
    z._b = b
    z._d = d
    return z


ONE = GaussianRational.of(1)

# Fraction builds 10**exponent in full; a larger power could not be printed anyway
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)")
_NUMBER = re.compile(r"[\d_.]+")


def _parse_imag(token: str) -> Fraction:
    body = token[:-1]
    if body in ("", "+"):
        return Fraction(1)
    if body == "-":
        return Fraction(-1)
    return Fraction(body)


def parse_scalar(text: str) -> GaussianRational:
    """Parse literals like ``3/2``, ``-i``, ``1/2i``, ``3/2-1/2i`` or ``2-1e-5i``."""
    s = text.strip()
    if not s:
        raise ScalarError("empty scalar literal")
    # split at a +/- that separates the real from the imaginary part; a sign
    # after an exponent marker belongs to the exponent
    split = None
    for k in range(1, len(s)):
        if s[k] in "+-" and s[k - 1] not in "+-/eE":
            split = k
    try:
        for digits in _EXPONENT.findall(s):
            exponent = digits.replace("_", "").lstrip("0")
            if len(exponent) > len(str(MAX_EXPONENT)) or int(exponent or 0) > MAX_EXPONENT:
                raise ValueError(f"an exponent of magnitude over {MAX_EXPONENT}")
        if split is not None and s.endswith("i"):
            return GaussianRational(Fraction(s[:split]), _parse_imag(s[split:]))
        if s.endswith("i"):
            return GaussianRational(Fraction(0), _parse_imag(s))
        return GaussianRational(Fraction(s), Fraction(0))
    except (ValueError, ZeroDivisionError) as exc:
        limit = sys.get_int_max_str_digits()
        if 0 < limit < max((sum(map(str.isdigit, run)) for run in _NUMBER.findall(s)), default=0):
            raise ScalarError(f"a coefficient has more than {limit} digits") from None
        detail = f": {exc}" if len(text) <= QUOTE_LIMIT else ""  # else exc quotes it whole
        raise ScalarError(f"bad scalar literal {quote(text)}{detail}") from None
