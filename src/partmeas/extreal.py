"""Exact arithmetic on the extended real line.

Values are exact rationals of arbitrary precision extended with +inf and
-inf.  This is the value space for every set function in the package;
keeping it exact means every identity checked elsewhere is an equality
test with zero tolerance.

A finite value is stored as a numerator and a denominator, two ints in
lowest terms with a positive denominator.  Comparisons cross-multiply
them, and sums and differences reduce with one gcd, so no operation goes
through ``Fraction``; a ``Fraction`` is built only when ``as_fraction``
asks for one.

Addition is partial.  Infinities absorb finite terms and agree with
themselves, but combining +inf with -inf has no well-posed value, so
``+`` and ``sum`` raise :class:`IllPosedError` rather than produce a
NaN-like sentinel.

Text encoding, shared by all file formats: finite values are "p/q" in
lowest terms with "/1" omitted ("3/2", "-7", "0"); the infinities are
spelled "+inf" and "-inf".  ``parse`` accepts exactly that grammar and
``str(parse(s))`` reproduces the canonical spelling.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

from .errors import IllPosedError

__all__ = [
    "ExtReal",
    "PLUS_INF",
    "MINUS_INF",
    "ZERO",
    "sum",
    "parse",
    "parse_rational",
]

Rational = Union[int, Fraction]

# Kind markers are ordered so that plain integer comparison of kinds gives
# the total order -inf < finite < +inf.
_NEG, _FIN, _POS = -1, 0, 1

# ASCII digits only: a bare \d matches every Unicode decimal digit
_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?\Z", re.ASCII)


class ExtReal:
    """One point of the extended real line.  Immutable and hashable.

    A finite value is held as two ints, ``_n`` over ``_d``, with
    ``_d > 0`` and the pair in lowest terms; both are None at the
    infinities.
    """

    __slots__ = ("_kind", "_n", "_d")

    def __init__(self, value: Rational = 0):
        if type(value) is int:
            n, d = value, 1
        elif type(value) is Fraction:
            n, d = value.as_integer_ratio()
        elif isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise TypeError(f"exact rational required, got {type(value).__name__}")
        else:  # a subclass of int or Fraction
            n, d = value.as_integer_ratio()
        self._kind = _FIN
        self._n = n
        self._d = d

    @property
    def is_finite(self) -> bool:
        return self._kind == _FIN

    def as_fraction(self) -> Fraction:
        if self._kind != _FIN:
            raise ValueError(f"{self} has no finite value")
        return Fraction(self._n, self._d)

    def sign(self) -> int:
        """-1, 0 or 1; infinities count with their sign."""
        if self._kind != _FIN:
            return self._kind
        n = self._n
        return (n > 0) - (n < 0)

    def __repr__(self) -> str:
        return f"ExtReal({str(self)!r})"

    def __str__(self) -> str:
        if self._kind == _POS:
            return "+inf"
        if self._kind == _NEG:
            return "-inf"
        return str(self._n) if self._d == 1 else f"{self._n}/{self._d}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtReal):
            return NotImplemented
        return (
            self._kind == other._kind
            and self._n == other._n
            and self._d == other._d
        )

    def __hash__(self) -> int:
        # the hash of (kind, value as a Fraction): the iteration order of
        # a set of values must not depend on how a value is stored
        if self._kind != _FIN:
            return hash((self._kind, None))
        return hash((_FIN, Fraction(self._n, self._d)))

    # Finite comparisons cross-multiply: with positive denominators,
    # a/b < c/d exactly when a*d < c*b.

    def __lt__(self, other: "ExtReal") -> bool:
        if not isinstance(other, ExtReal):
            return NotImplemented
        if self._kind != other._kind:
            return self._kind < other._kind
        return self._kind == _FIN and self._n * other._d < other._n * self._d

    def __le__(self, other: "ExtReal") -> bool:
        if not isinstance(other, ExtReal):
            return NotImplemented
        if self._kind != other._kind:
            return self._kind < other._kind
        return self._kind != _FIN or self._n * other._d <= other._n * self._d

    def __gt__(self, other: "ExtReal") -> bool:
        if not isinstance(other, ExtReal):
            return NotImplemented
        if self._kind != other._kind:
            return self._kind > other._kind
        return self._kind == _FIN and self._n * other._d > other._n * self._d

    def __ge__(self, other: "ExtReal") -> bool:
        if not isinstance(other, ExtReal):
            return NotImplemented
        if self._kind != other._kind:
            return self._kind > other._kind
        return self._kind != _FIN or self._n * other._d >= other._n * self._d

    def __add__(self, other: "ExtReal") -> "ExtReal":
        if not isinstance(other, ExtReal):
            return NotImplemented
        if self._kind == _FIN:
            if other._kind == _FIN:
                return _ratio(
                    self._n * other._d + other._n * self._d, self._d * other._d
                )
            return other
        if other._kind == _FIN or other._kind == self._kind:
            return self
        raise IllPosedError("+inf + -inf is not well-posed")

    def __neg__(self) -> "ExtReal":
        if self._kind == _FIN:
            return _ratio(-self._n, self._d)
        return MINUS_INF if self._kind == _POS else PLUS_INF

    def __sub__(self, other: "ExtReal") -> "ExtReal":
        if not isinstance(other, ExtReal):
            return NotImplemented
        if self._kind == _FIN and other._kind == _FIN:
            return _ratio(
                self._n * other._d - other._n * self._d, self._d * other._d
            )
        return self.__add__(-other)


_new = object.__new__


def _ratio(n: int, d: int) -> ExtReal:
    """The finite value n/d for ints n and d > 0, reduced to lowest terms."""
    g = gcd(n, d)
    x = _new(ExtReal)
    x._kind = _FIN
    x._n = n // g
    x._d = d // g
    return x


def _make_inf(kind: int) -> ExtReal:
    x = _new(ExtReal)
    x._kind = kind
    x._n = x._d = None
    return x


PLUS_INF = _make_inf(_POS)
MINUS_INF = _make_inf(_NEG)
ZERO = ExtReal(0)


# Shadows builtins.sum inside this module on purpose: it is the package's
# summation operation, used as extreal.sum(...) by callers.
def sum(values: Iterable[ExtReal]) -> ExtReal:
    """Sum of a finite sequence, Finite(0) when empty.

    Well-posed exactly when the sequence does not contain both +inf and
    -inf; the result does not depend on ordering or bracketing.
    """
    # the finite terms accumulate as n/d over the lcm d of their
    # denominators, reduced once at the end
    n, d = 0, 1
    saw_pos = saw_neg = False
    for v in values:
        if not isinstance(v, ExtReal):
            raise TypeError(f"ExtReal required, got {type(v).__name__}")
        if v._kind == _FIN:
            vd = v._d
            if vd == d:
                n += v._n
            else:
                m = lcm(d, vd)
                n = n * (m // d) + v._n * (m // vd)
                d = m
        elif v._kind == _POS:
            saw_pos = True
        else:
            saw_neg = True
    if saw_pos and saw_neg:
        raise IllPosedError("sum mixes +inf and -inf")
    if saw_pos:
        return PLUS_INF
    if saw_neg:
        return MINUS_INF
    return _ratio(n, d)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "n" exactly; no floats, no whitespace."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    num, _, den = text.partition("/")
    if not den:
        return Fraction(int(num))
    d = int(den)
    if d == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(int(num), d)


def parse(text: str) -> ExtReal:
    """Inverse of ``str``: "p/q", "n", "+inf" or "-inf"."""
    if text == "+inf":
        return PLUS_INF
    if text == "-inf":
        return MINUS_INF
    return ExtReal(parse_rational(text))
