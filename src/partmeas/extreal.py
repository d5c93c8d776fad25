"""Exact arithmetic on the extended real line.

Values are exact rationals of arbitrary precision extended with +inf and
-inf.  This is the value space for every set function in the package;
keeping it exact means every identity checked elsewhere is an equality
test with zero tolerance.

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

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?\Z")


class ExtReal:
    """One point of the extended real line.  Immutable and hashable."""

    __slots__ = ("_kind", "_q")

    def __init__(self, value: Rational = 0):
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise TypeError(f"exact rational required, got {type(value).__name__}")
        self._kind = _FIN
        self._q = value if isinstance(value, Fraction) else Fraction(value)

    @property
    def is_finite(self) -> bool:
        return self._kind == _FIN

    def as_fraction(self) -> Fraction:
        if self._kind != _FIN:
            raise ValueError(f"{self} has no finite value")
        return self._q

    def sign(self) -> int:
        """-1, 0 or 1; infinities count with their sign."""
        if self._kind != _FIN:
            return self._kind
        if self._q > 0:
            return 1
        return -1 if self._q < 0 else 0

    def __repr__(self) -> str:
        return f"ExtReal({str(self)!r})"

    def __str__(self) -> str:
        if self._kind == _POS:
            return "+inf"
        if self._kind == _NEG:
            return "-inf"
        return str(self._q)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtReal):
            return NotImplemented
        return self._kind == other._kind and self._q == other._q

    def __hash__(self) -> int:
        return hash((self._kind, self._q))

    def __lt__(self, other: "ExtReal") -> bool:
        if not isinstance(other, ExtReal):
            return NotImplemented
        if self._kind != other._kind:
            return self._kind < other._kind
        return self._kind == _FIN and self._q < other._q

    def __le__(self, other: "ExtReal") -> bool:
        if not isinstance(other, ExtReal):
            return NotImplemented
        if self._kind != other._kind:
            return self._kind < other._kind
        return self._kind != _FIN or self._q <= other._q

    def __gt__(self, other: "ExtReal") -> bool:
        if not isinstance(other, ExtReal):
            return NotImplemented
        return other.__lt__(self)

    def __ge__(self, other: "ExtReal") -> bool:
        if not isinstance(other, ExtReal):
            return NotImplemented
        return other.__le__(self)

    def __add__(self, other: "ExtReal") -> "ExtReal":
        if not isinstance(other, ExtReal):
            return NotImplemented
        if self._kind == _FIN:
            if other._kind == _FIN:
                return ExtReal(self._q + other._q)
            return other
        if other._kind == _FIN or other._kind == self._kind:
            return self
        raise IllPosedError("+inf + -inf is not well-posed")

    def __neg__(self) -> "ExtReal":
        if self._kind == _FIN:
            return ExtReal(-self._q)
        return MINUS_INF if self._kind == _POS else PLUS_INF

    def __sub__(self, other: "ExtReal") -> "ExtReal":
        if not isinstance(other, ExtReal):
            return NotImplemented
        return self.__add__(-other)


def _make_inf(kind: int) -> ExtReal:
    x = ExtReal.__new__(ExtReal)
    x._kind = kind
    x._q = None
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
    total = Fraction(0)
    saw_pos = saw_neg = False
    for v in values:
        if not isinstance(v, ExtReal):
            raise TypeError(f"ExtReal required, got {type(v).__name__}")
        if v._kind == _FIN:
            total += v._q
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
    return ExtReal(total)


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
