import math
import operator
import random
from decimal import Decimal
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


def test_errors_and_repr():
    with pytest.raises(ValueError, match=r"^\+inf has no finite value$"):
        PLUS_INF.as_fraction()
    with pytest.raises(TypeError, match="^ExtReal required, got int$"):
        extreal.sum([ZERO, 1])
    assert repr(E(Fraction(-3, 2))) == "ExtReal('-3/2')"
    assert repr(MINUS_INF) == "ExtReal('-inf')"


def test_no_mixing_with_int():
    # ExtReal returns NotImplemented, so Python falls back or raises
    assert E(1) != 1 and not E(1) == 1
    for op in (operator.lt, operator.le, operator.gt, operator.ge,
               operator.add, operator.sub):
        with pytest.raises(TypeError):
            op(E(1), 1)


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
    for bad in (0.5, 1.0, True, False, Decimal(1), "1", None):
        with pytest.raises(TypeError, match="exact rational required"):
            ExtReal(bad)


def test_constructor_accepts_subclasses():
    class MyInt(int):
        pass

    class MyFraction(Fraction):
        pass

    assert ExtReal(MyInt(-4)) == E(-4)
    assert ExtReal(MyFraction(6, -4)) == E(Fraction(-3, 2))
    assert str(ExtReal(MyFraction(6, -4))) == "-3/2"


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


@pytest.mark.parametrize(
    "bad", ["1.5", "inf", "Infinity", "3/0", "", "1 / 2", "nan", "١", "５", "1/٢"]
)
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


# ExtReal against an oracle of Fractions, with the float infinities for
# +inf and -inf: Fraction compares exactly with them, and a sum of two
# oracle values stays a Fraction unless an infinity is involved.
huge = st.integers(min_value=-(10 ** 60), max_value=10 ** 60)
oracle_values = st.one_of(
    st.fractions(),
    st.builds(Fraction, huge, st.integers(min_value=1, max_value=10 ** 60)),
    huge.map(Fraction),
    st.sampled_from([Fraction(0), math.inf, -math.inf]),
)


def ext(q) -> ExtReal:
    if q == math.inf:
        return PLUS_INF
    if q == -math.inf:
        return MINUS_INF
    return ExtReal(q)


def spelling(q) -> str:
    if q == math.inf:
        return "+inf"
    if q == -math.inf:
        return "-inf"
    return str(q)


@given(oracle_values, oracle_values)
def test_comparisons_match_fraction(a, b):
    ops = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne)
    for op in ops:
        assert op(ext(a), ext(b)) == op(a, b), op.__name__


@given(oracle_values, oracle_values)
def test_arithmetic_matches_fraction(a, b):
    x, y = ext(a), ext(b)
    for op in (operator.add, operator.sub):
        want = op(a, b)
        if isinstance(want, float) and math.isnan(want):
            with pytest.raises(IllPosedError):
                op(x, y)
            continue
        got = op(x, y)
        assert got == ext(want)
        assert str(got) == spelling(want)
    assert -x == ext(-a)
    assert str(-x) == spelling(-a)
    assert x.sign() == (a > 0) - (a < 0)
    assert str(x) == spelling(a)
    assert extreal.parse(str(x)) == x


@given(oracle_values, oracle_values)
def test_hash_follows_value(a, b):
    x = ext(a)
    # the hash is that of (kind, value as a Fraction), None at +-inf
    want = hash((x.sign(), None)) if not x.is_finite else hash((0, a))
    assert hash(x) == want
    # equal values reached along different paths hash alike
    if x.is_finite and isinstance(b, Fraction):
        y = ext(b)
        assert (x + y) - y == x
        assert hash((x + y) - y) == hash(x)


def test_hash_is_that_of_kind_and_fraction():
    for q in (0, 1, -1, -2, 7, 2**70, -(2**70), Fraction(1, 2), Fraction(-7, 3)):
        assert hash(E(q)) == hash((0, Fraction(q)))
    assert hash(PLUS_INF) == hash((1, None))
    assert hash(MINUS_INF) == hash((-1, None))


def test_equal_values_hash_alike():
    assert E(2) == E(Fraction(4, 2))
    assert hash(E(2)) == hash(E(Fraction(4, 2)))
    assert E(Fraction(1, 6)) + E(Fraction(1, 3)) == E(Fraction(1, 2))
    assert hash(E(Fraction(1, 6)) + E(Fraction(1, 3))) == hash(E(Fraction(1, 2)))
    assert len({E(0), -E(0), E(1) - E(1), ZERO}) == 1


@given(st.lists(oracle_values, max_size=10))
def test_sum_matches_fraction_fold(qs):
    xs = [ext(q) for q in qs]
    if math.inf in qs and -math.inf in qs:
        with pytest.raises(IllPosedError):
            extreal.sum(xs)
        return
    want = Fraction(0)
    for q in qs:
        want += q
    total = extreal.sum(xs)
    assert total == ext(want)
    assert str(total) == spelling(want)
