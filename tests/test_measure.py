import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from partmeas import (
    AtomVector,
    ExtReal,
    FiniteSpace,
    MINUS_INF,
    MaximalPartialMeasure,
    MeasurableSet,
    Measure,
    PLUS_INF,
    PositiveMeasure,
    Probability,
    RandomVariable,
    ZERO,
    hahn_decomposition,
    restrict_to,
)
from partmeas import extreal
from partmeas.errors import (
    IllPosedError,
    MixedInfinitiesError,
    NotInDomainError,
    NotPositiveError,
    SpaceMismatchError,
)
from partmeas.spaces import iter_bits
from oracles import atom_sum, plain, submasks

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


MIXED = MaximalPartialMeasure(SPACE4, [E(1), PLUS_INF, MINUS_INF, ZERO])


@pytest.mark.parametrize(
    "x, outside",
    [
        (Measure(SPACE4, [E(1), E(-2), PLUS_INF, ZERO]), lambda m: False),
        (PositiveMeasure(SPACE4, [E(1), ZERO, PLUS_INF, E(3)]), lambda m: False),
        (MIXED, lambda m: m & 0b0110 == 0b0110),
        (Probability(SPACE4, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), 0]),
         lambda m: False),
        (restrict_to(MIXED, [SPACE4.set_from_points(p) for p in ("ab", "cd")]),
         lambda m: m & 0b0011 and m & 0b1100),
    ],
    ids=["measure", "positive", "maximal", "probability", "partial"],
)
def test_one_domain_rule_and_evaluate(x, outside):
    foreign = FiniteSpace.discrete("ab").full_set()
    for call in (x.in_domain, x.evaluate):
        with pytest.raises(SpaceMismatchError):
            call(foreign)
    values = [plain(v) for v in x.atom_values]
    for a in (MeasurableSet(SPACE4, m) for m in range(16)):
        if outside(a.mask):
            assert not x.in_domain(a)
            with pytest.raises(NotInDomainError, match="is outside the domain$"):
                x.evaluate(a)
        else:
            assert x.in_domain(a)
            assert plain(x.evaluate(a)) == atom_sum(values, a.mask)


# Coprime and very large denominators make the common denominator and the
# scaled numerators large, so a wrong scale factor cannot cancel out.
atom_values = st.one_of(
    st.fractions().map(ExtReal),
    st.sampled_from(
        [Fraction(1, 7), Fraction(-1, 11), Fraction(10**12, 13), Fraction(-5, 10**9 + 7)]
    ).map(ExtReal),
    st.just(ZERO),
    st.just(PLUS_INF),
    st.just(MINUS_INF),
)


@given(st.lists(atom_values, min_size=1, max_size=8))
def test_mask_sum_matches_extreal_sum(values):
    v = AtomVector(FiniteSpace.discrete("abcdefgh"[: len(values)]), values)
    for mask in range(1 << len(values)):
        try:
            expected = extreal.sum(values[i] for i in iter_bits(mask))
        except IllPosedError:
            with pytest.raises(IllPosedError, match="sum mixes"):
                v.mask_sum(mask)
        else:
            got = v.mask_sum(mask)
            assert got == expected and str(got) == str(expected)


def test_mask_sum_results_in_lowest_terms():
    space = FiniteSpace.discrete("abc")
    m = Measure(space, [E(Fraction(1, 6)), E(Fraction(1, 3)), E(Fraction(-1, 2))])
    assert str(m.mask_sum(0b011)) == "1/2"
    assert str(m.evaluate(space.full_set())) == "0"
    assert str(m.evaluate(space.set_from_points(["b", "c"]))) == "-1/6"


def test_maximal_evaluate_refuses_mixed_set():
    mu = MaximalPartialMeasure(SPACE4, [E(Fraction(1, 7)), PLUS_INF, MINUS_INF, ZERO])
    with pytest.raises(NotInDomainError):
        mu.evaluate(SPACE4.set_from_points(["b", "c"]))
    assert mu.evaluate(SPACE4.set_from_points(["a", "b"])) == PLUS_INF
    assert mu.evaluate(SPACE4.set_from_points(["a", "d"])) == E(Fraction(1, 7))


def test_equality_hash_repr_ignore_the_scaled_form():
    values = [E(Fraction(1, 6)), E(Fraction(1, 3)), PLUS_INF, ZERO]
    m = Measure(SPACE4, values)
    # the same values over a doubled common denominator
    twin = Measure(SPACE4, values)
    twin._denom *= 2
    twin._scaled = tuple(2 * x for x in twin._scaled)
    assert twin == m and hash(twin) == hash(m)
    assert twin.evaluate(SPACE4.set_from_points(["a", "b"])) == E(Fraction(1, 2))
    assert repr(twin) == repr(m) == "Measure(a=1/6, b=1/3, c=+inf, d=0)"


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
    values = [plain(v) for v in m.atom_values]
    saw_pos = saw_neg = False
    for mask in range(1 << k):
        v = m.evaluate(MeasurableSet(space, mask))
        assert plain(v) == atom_sum(values, mask)
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
