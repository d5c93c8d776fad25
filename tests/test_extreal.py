import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from partmeas import ExtReal, MINUS_INF, PLUS_INF, ZERO
from partmeas import extreal
from partmeas.errors import IllPosedError

E = ExtReal

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=16
)
values = st.one_of(
    rationals.map(ExtReal), st.just(PLUS_INF), st.just(MINUS_INF)
)


def test_add_examples():
    assert E(Fraction(3, 2)) + E(-2) == E(Fraction(-1, 2))
    assert PLUS_INF + E(5) == PLUS_INF
    with pytest.raises(IllPosedError):
        PLUS_INF + MINUS_INF
    with pytest.raises(TypeError):
        E(1) + 1


def test_sum_examples():
    assert extreal.sum([]) == E(0)
    assert extreal.sum([E(Fraction(3, 2)), E(-2), PLUS_INF]) == PLUS_INF
    with pytest.raises(IllPosedError):
        extreal.sum([PLUS_INF, E(1), MINUS_INF])


def test_negate_examples():
    assert -E(0) == E(0)
    assert -PLUS_INF == MINUS_INF
    assert -E(-2) == E(2)


def test_total_order():
    sample = [PLUS_INF, E(-3), MINUS_INF, E(0), E(Fraction(1, 3))]
    assert sorted(sample) == [MINUS_INF, E(-3), E(0), E(Fraction(1, 3)), PLUS_INF]
    assert MINUS_INF < E(-(10 ** 50)) < E(10 ** 50) < PLUS_INF


def test_constructor_rejects_inexact():
    with pytest.raises(TypeError):
        ExtReal(0.5)
    with pytest.raises(TypeError):
        ExtReal(True)


@pytest.mark.parametrize(
    "text,value",
    [
        ("3/2", E(Fraction(3, 2))),
        ("-7", E(-7)),
        ("0", ZERO),
        ("+inf", PLUS_INF),
        ("-inf", MINUS_INF),
        ("-1/2", E(Fraction(-1, 2))),
    ],
)
def test_parse_known(text, value):
    assert extreal.parse(text) == value


@pytest.mark.parametrize("bad", ["1.5", "inf", "Infinity", "3/0", "", "1 / 2", "nan"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        extreal.parse(bad)


@given(values)
def test_encode_parse_roundtrip(x):
    assert extreal.parse(str(x)) == x


@given(values)
def test_negate_involution(x):
    assert -(-x) == x


@given(rationals)
def test_additive_inverse(q):
    x = ExtReal(q)
    assert x + -x == ZERO


@given(st.lists(values, max_size=8), st.integers())
def test_sum_permutation_and_bracketing_invariance(xs, seed):
    rng = random.Random(seed)
    has_pos = PLUS_INF in xs
    has_neg = MINUS_INF in xs
    if has_pos and has_neg:
        with pytest.raises(IllPosedError):
            extreal.sum(xs)
        return
    total = extreal.sum(xs)
    shuffled = xs[:]
    rng.shuffle(shuffled)
    assert extreal.sum(shuffled) == total

    def fold(items):
        if not items:
            return ZERO
        if len(items) == 1:
            return items[0]
        cut = rng.randint(1, len(items) - 1)
        return fold(items[:cut]) + fold(items[cut:])

    assert fold(xs) == total


@given(values, values, values, values)
def test_order_compatible_with_addition(a, b, c, d):
    x, y = sorted((a, b))
    u, v = sorted((c, d))
    try:
        left = x + u
        right = y + v
    except IllPosedError:
        return
    assert left <= right


@given(values, values)
def test_comparisons_are_consistent(a, b):
    assert (a < b) == (b > a)
    assert (a <= b) == (a < b or a == b)
    assert a <= b or b <= a
