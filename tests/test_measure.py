import random
from fractions import Fraction

import pytest

from partmeas import (
    ExtReal,
    FiniteSpace,
    MINUS_INF,
    MaximalPartialMeasure,
    MeasurableSet,
    Measure,
    PLUS_INF,
    PositiveMeasure,
    RandomVariable,
    ZERO,
    hahn_decomposition,
)
from partmeas.errors import MixedInfinitiesError, NotPositiveError, SpaceMismatchError
from oracles import eval_scratch, submasks

E = ExtReal
SPACE4 = FiniteSpace.discrete("abcd")


def test_evaluate_examples():
    m = Measure(SPACE4, [E(Fraction(3, 2)), E(-2), PLUS_INF, ZERO])
    assert m.evaluate(SPACE4.empty_set()) == ZERO
    assert m.evaluate(SPACE4.set_from_points(["a", "c"])) == PLUS_INF
    assert m.evaluate(SPACE4.full_set()) == PLUS_INF


def test_validate_examples():
    zero = Measure(FiniteSpace.discrete("abc"), iter([ZERO, ZERO, ZERO]))
    assert all(v == ZERO for v in zero.atom_values)
    ok = Measure(FiniteSpace.discrete("ab"), [E(Fraction(1, 3)), PLUS_INF])
    assert ok.atom_values[1] == PLUS_INF
    with pytest.raises(MixedInfinitiesError):
        Measure(FiniteSpace.discrete("ab"), [PLUS_INF, MINUS_INF])


@pytest.mark.parametrize(
    "cls", [Measure, PositiveMeasure, MaximalPartialMeasure, RandomVariable]
)
def test_atom_vector_checks_and_masks(cls):
    with pytest.raises(ValueError):
        cls(SPACE4, [ZERO] * 3)
    with pytest.raises(TypeError):
        cls(SPACE4, [ZERO, ZERO, ZERO, 1])
    v = cls(SPACE4, [E(2), PLUS_INF, ZERO, PLUS_INF])
    assert (v.pos_inf_mask, v.neg_inf_mask) == (0b1010, 0)
    assert repr(v) == f"{cls.__name__}(a=2, b=+inf, c=0, d=+inf)"


def test_atom_vector_equality_semantics():
    values = [E(2), PLUS_INF, ZERO, E(Fraction(1, 2))]
    m = Measure(SPACE4, values)
    pm = PositiveMeasure(SPACE4, values)
    mu = MaximalPartialMeasure(SPACE4, values)
    xi = RandomVariable(SPACE4, values)
    assert m == pm and pm == m and hash(m) == hash(pm)
    for a, b in ((m, mu), (m, xi), (mu, xi), (pm, mu), (pm, xi)):
        assert a != b and b != a
    assert xi == RandomVariable(SPACE4, values)
    assert len({xi, RandomVariable(SPACE4, values), mu, m, pm}) == 3
    assert m != Measure(FiniteSpace.discrete("wxyz"), values)
    assert m != Measure(SPACE4, values[:3] + [ZERO])
    assert m != values


def test_mixed_vector_is_not_a_measure():
    with pytest.raises(MixedInfinitiesError):
        Measure(SPACE4, [E(Fraction(3, 2)), E(-2), PLUS_INF, MINUS_INF])


def test_positive_measure_rejects_negatives():
    with pytest.raises(NotPositiveError):
        PositiveMeasure(SPACE4, [E(1), E(-1), ZERO, ZERO])


def test_evaluate_space_mismatch():
    m = PositiveMeasure.zero(SPACE4)
    with pytest.raises(SpaceMismatchError):
        m.evaluate(FiniteSpace.discrete("ab").full_set())


def hahn_postcondition_holds(m, p_mask, n_mask):
    if p_mask & n_mask or (p_mask | n_mask) != m.space.full_mask:
        return False
    for sub in submasks(p_mask):
        if m.evaluate(MeasurableSet(m.space, sub)) < ZERO:
            return False
    for sub in submasks(n_mask):
        if m.evaluate(MeasurableSet(m.space, sub)) > ZERO:
            return False
    return True


def test_hahn_positive_measure():
    m = PositiveMeasure(SPACE4, [E(1), ZERO, E(Fraction(2, 7)), PLUS_INF])
    p, n = hahn_decomposition(m)
    assert p == SPACE4.full_set()
    assert n == SPACE4.empty_set()


def test_hahn_derived_example():
    # exhaustively checking all 16 candidate splits shows the postcondition
    # allows {a} and {a,c}: the zero atom can sit on either side
    m = Measure(SPACE4, [E(Fraction(3, 2)), E(-2), ZERO, E(-5)])
    valid_p_masks = [
        p for p in range(16) if hahn_postcondition_holds(m, p, 15 ^ p)
    ]
    assert valid_p_masks == [0b0001, 0b0101]
    # the canonical representative puts zero atoms on the positive side
    p, n = hahn_decomposition(m)
    assert p == SPACE4.set_from_points(["a", "c"])
    assert n == SPACE4.set_from_points(["b", "d"])
    assert hahn_postcondition_holds(m, p.mask, n.mask)


def random_total_measure(rng, space):
    sign = rng.choice((1, -1))
    pool = [E(Fraction(rng.randint(-6, 6), rng.randint(1, 6))) for _ in range(6)]
    pool += [PLUS_INF if sign > 0 else MINUS_INF]
    return Measure(space, [rng.choice(pool) for _ in range(space.n_atoms)])


@pytest.mark.parametrize("seed", range(30))
def test_additivity_and_range_exhaustive(seed):
    rng = random.Random(seed)
    space = FiniteSpace.discrete("abcdef"[: rng.randint(1, 6)])
    m = random_total_measure(rng, space)
    k = space.n_atoms
    saw_pos = saw_neg = False
    for mask in range(1 << k):
        v = m.evaluate(MeasurableSet(space, mask))
        assert v == eval_scratch(m.atom_values, mask)
        saw_pos |= v == PLUS_INF
        saw_neg |= v == MINUS_INF
        rest = space.full_mask ^ mask
        for sub in submasks(rest):
            a = MeasurableSet(space, mask)
            b = MeasurableSet(space, sub)
            assert m.evaluate(a | b) == m.evaluate(a) + m.evaluate(b)
    assert not (saw_pos and saw_neg)


@pytest.mark.parametrize("seed", range(20))
def test_hahn_postcondition_random(seed):
    rng = random.Random(1000 + seed)
    space = FiniteSpace.discrete("abcdef"[: rng.randint(1, 6)])
    m = random_total_measure(rng, space)
    p, n = hahn_decomposition(m)
    assert hahn_postcondition_holds(m, p.mask, n.mask)


@pytest.mark.parametrize("seed", range(20))
def test_positive_monotonicity(seed):
    rng = random.Random(2000 + seed)
    space = FiniteSpace.discrete("abcde"[: rng.randint(1, 5)])
    vals = [
        PLUS_INF if rng.random() < 0.2 else E(Fraction(rng.randint(0, 6), rng.randint(1, 6)))
        for _ in range(space.n_atoms)
    ]
    m = PositiveMeasure(space, vals)
    for mask in range(1 << space.n_atoms):
        for sub in submasks(mask):
            assert m.evaluate(MeasurableSet(space, sub)) <= m.evaluate(
                MeasurableSet(space, mask)
            )
