import random
from fractions import Fraction

import pytest

from partmeas import (
    ExtReal,
    FiniteSpace,
    MINUS_INF,
    MeasurableSet,
    MaximalPartialMeasure,
    PLUS_INF,
    Probability,
    RandomVariable,
    ZERO,
    ess_sup,
    f_plus,
    generate_algebra,
    is_abs_continuous,
    mu_xi,
    rn_derivative,
)
from partmeas.errors import (
    EmptyFamilyError,
    InvalidProbabilityError,
    NotAbsContinuousError,
    SpaceMismatchError,
)
from partmeas import extreal
from partmeas.spaces import iter_bits
from oracles import plain, quasi_integrable, sign_classes, table

E = ExtReal
SPACE4 = FiniteSpace.discrete("abcd")
UNIFORM4 = Probability(SPACE4, [Fraction(1, 4)] * 4)
HALF_NULL = Probability(SPACE4, [Fraction(1, 2), Fraction(1, 2), 0, 0])


def test_probability_validation():
    with pytest.raises(InvalidProbabilityError):
        Probability(SPACE4, [Fraction(1, 2)] * 4)
    with pytest.raises(InvalidProbabilityError):
        Probability(SPACE4, [Fraction(-1, 4), Fraction(1, 4), Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(InvalidProbabilityError):
        Probability(SPACE4, [1])
    assert UNIFORM4.evaluate(SPACE4.full_set()) == E(1)


def test_probability_error_texts():
    for probs, text in (
        ([Fraction(1, 2)] * 4, "atom probabilities sum to 2, not 1"),
        (
            [Fraction(-1, 4), Fraction(1, 4), Fraction(1, 2), Fraction(1, 2)],
            "atom 'a' has negative probability -1/4",
        ),
        ([1], "expected 4 atom probabilities, got 1"),
    ):
        with pytest.raises(InvalidProbabilityError) as info:
            Probability(SPACE4, probs)
        assert str(info.value) == text


def test_probability_rejects_inexact_values():
    for bad in (0.25, "1/4"):
        with pytest.raises(TypeError):
            Probability(SPACE4, [bad] * 4)


def test_probability_repr_equality_and_hash():
    assert repr(HALF_NULL) == "Probability(a=1/2, b=1/2, c=0, d=0)"
    coarse = generate_algebra("abcde", [["a", "b"], ["c"]])
    assert repr(Probability(coarse, [Fraction(1, 3), Fraction(2, 3), 0])) == (
        "Probability(a=1/3, c=2/3, d=0)"
    )
    same = Probability(SPACE4, [Fraction(2, 4), Fraction(1, 2), Fraction(0), 0])
    assert same == HALF_NULL and hash(same) == hash(HALF_NULL)
    assert len({same, HALF_NULL, UNIFORM4}) == 2
    lookalike = RandomVariable(SPACE4, HALF_NULL.atom_values)
    assert HALF_NULL != lookalike and lookalike != HALF_NULL
    assert HALF_NULL.null_mask == 0b1100 and HALF_NULL.nonnull_mask == 0b0011


@pytest.mark.parametrize("seed", range(10))
def test_probability_evaluate_is_the_atom_sum(seed):
    rng = random.Random(seed)
    points = "abcdefg"[: rng.randint(1, 7)]
    space = generate_algebra(
        points, [rng.sample(points, rng.randint(0, len(points))) for _ in range(2)]
    )
    weights = [
        Fraction(rng.randint(0, 9), rng.randint(1, 9)) for _ in range(space.n_atoms)
    ]
    weights[0] += 1
    total = sum(weights)
    prob = Probability(space, [w / total for w in weights])
    for mask in range(1 << space.n_atoms):
        value = prob.evaluate(MeasurableSet(space, mask))
        assert isinstance(value, ExtReal)
        assert value == extreal.sum(prob.atom_values[i] for i in iter_bits(mask))
    with pytest.raises(SpaceMismatchError):
        prob.evaluate(FiniteSpace.discrete("xyz").full_set())


def test_mu_xi_zero():
    xi = RandomVariable(SPACE4, [ZERO] * 4)
    assert mu_xi(xi, UNIFORM4).atom_values == (ZERO,) * 4


def test_mu_xi_uniform_example():
    xi = RandomVariable(SPACE4, [E(2), E(-1), ZERO, ZERO])
    m = mu_xi(xi, UNIFORM4)
    assert m.atom_values == (
        E(Fraction(1, 2)),
        E(Fraction(-1, 4)),
        ZERO,
        ZERO,
    )


def test_mu_xi_null_atoms_absorb_infinities():
    xi = RandomVariable(SPACE4, [E(1), E(-6), PLUS_INF, MINUS_INF])
    m = mu_xi(xi, HALF_NULL)
    assert m.atom_values == (E(Fraction(1, 2)), E(-3), ZERO, ZERO)
    assert all(m.in_domain_mask(mask) for mask in range(16))


def test_mu_xi_space_mismatch():
    xi = RandomVariable(FiniteSpace.discrete("ab"), [ZERO, ZERO])
    with pytest.raises(SpaceMismatchError):
        mu_xi(xi, UNIFORM4)


@pytest.mark.parametrize("seed", range(30))
def test_mu_xi_domain_is_quasi_integrability(seed):
    rng = random.Random(seed)
    space = FiniteSpace.discrete("abcde"[: rng.randint(1, 5)])
    weights = [
        Fraction(0) if rng.random() < 0.3 else Fraction(rng.randint(1, 5))
        for _ in range(space.n_atoms)
    ]
    if not any(weights):
        weights[0] = Fraction(1)
    total = sum(weights)
    prob = Probability(space, [w / total for w in weights])
    pool = [E(Fraction(rng.randint(-4, 4), rng.randint(1, 4))), PLUS_INF, MINUS_INF]
    xi = RandomVariable(space, [rng.choice(pool) for _ in range(space.n_atoms)])
    m = mu_xi(xi, prob)
    for mask in range(1 << space.n_atoms):
        assert m.in_domain_mask(mask) == quasi_integrable(
            [plain(v) for v in xi.atom_values],
            [plain(p) for p in prob.atom_values],
            mask,
        )


def test_ess_sup_trims_null_atoms():
    family = [SPACE4.full_set()]
    assert ess_sup(family, HALF_NULL) == SPACE4.set_from_points(["a", "b"])
    assert ess_sup([SPACE4.empty_set()], HALF_NULL) == SPACE4.empty_set()


def test_ess_sup_derived_example():
    family = [SPACE4.set_from_points(["a"]), SPACE4.set_from_points(["b"])]
    result = ess_sup(family, UNIFORM4)
    assert result == SPACE4.set_from_points(["a", "b"])

    # both defining properties, exhaustively over the algebra
    def null(mask):
        return UNIFORM4.evaluate(MeasurableSet(SPACE4, mask)) == ZERO

    for f in family:
        assert null(f.mask & ~result.mask)
    for a_mask in range(16):
        lhs = all(null(f.mask & ~a_mask) for f in family)
        rhs = null(result.mask & ~a_mask)
        assert lhs == rhs


def test_space_mismatch_texts():
    other = FiniteSpace.discrete("ab")
    with pytest.raises(SpaceMismatchError, match="^family member on a different space$"):
        ess_sup([other.full_set()], UNIFORM4)
    mu = MaximalPartialMeasure(other, [ZERO, ZERO])
    with pytest.raises(
        SpaceMismatchError, match="^measure and probability disagree on space$"
    ):
        is_abs_continuous(mu, UNIFORM4)


def test_ess_sup_empty_family():
    with pytest.raises(EmptyFamilyError):
        ess_sup([], UNIFORM4)


def test_abs_continuity_examples():
    anything = MaximalPartialMeasure(SPACE4, [E(7), MINUS_INF, E(1), ZERO])
    assert is_abs_continuous(anything, UNIFORM4)
    bad = MaximalPartialMeasure(SPACE4, [E(1), E(2), PLUS_INF, ZERO])
    assert not is_abs_continuous(bad, HALF_NULL)
    good = MaximalPartialMeasure(SPACE4, [E(1), E(2), ZERO, ZERO])
    assert is_abs_continuous(good, HALF_NULL)


def test_rn_uniform_example():
    mu = MaximalPartialMeasure(
        SPACE4, [E(Fraction(1, 2)), E(Fraction(-1, 4)), ZERO, ZERO]
    )
    xi = rn_derivative(mu, UNIFORM4)
    assert xi.atom_values == (E(2), E(-1), ZERO, ZERO)
    assert mu_xi(xi, UNIFORM4) == mu


def test_rn_zero_measure():
    zero = MaximalPartialMeasure(SPACE4, [ZERO] * 4)
    assert rn_derivative(zero, UNIFORM4).atom_values == (ZERO,) * 4


def test_rn_null_atom_example_and_uniqueness():
    mu = MaximalPartialMeasure(SPACE4, [E(Fraction(1, 2)), E(-3), ZERO, ZERO])
    xi = rn_derivative(mu, HALF_NULL)
    assert xi.atom_values == (E(1), E(-6), ZERO, ZERO)
    # any density differing only on null atoms integrates to the same measure
    eta = RandomVariable(SPACE4, [E(1), E(-6), PLUS_INF, E(17)])
    assert mu_xi(eta, HALF_NULL) == mu
    # while changing a non-null atom changes the measure
    eta2 = RandomVariable(SPACE4, [E(2), E(-6), ZERO, ZERO])
    assert mu_xi(eta2, HALF_NULL) != mu


def test_rn_requires_absolute_continuity():
    mu = MaximalPartialMeasure(SPACE4, [E(1), E(2), PLUS_INF, ZERO])
    with pytest.raises(NotAbsContinuousError):
        rn_derivative(mu, HALF_NULL)


@pytest.mark.parametrize("seed", range(40))
def test_round_trip_and_split_random(seed):
    rng = random.Random(seed)
    space = FiniteSpace.discrete("abcde"[: rng.randint(1, 5)])
    weights = [
        Fraction(0) if rng.random() < 0.3 else Fraction(rng.randint(1, 6))
        for _ in range(space.n_atoms)
    ]
    if not any(weights):
        weights[-1] = Fraction(1)
    total = sum(weights)
    prob = Probability(space, [w / total for w in weights])
    pool = [E(Fraction(rng.randint(-5, 5), rng.randint(1, 5))), PLUS_INF, MINUS_INF]
    vals = [
        ZERO if prob.atom_values[i] == ZERO else rng.choice(pool)
        for i in range(space.n_atoms)
    ]
    mu = MaximalPartialMeasure(space, vals)
    assert is_abs_continuous(mu, prob)
    xi = rn_derivative(mu, prob)
    assert mu_xi(xi, prob) == mu

    # sign pattern promised by the construction
    omega_plus = ess_sup(f_plus(mu), prob)
    for i in range(space.n_atoms):
        if omega_plus.mask >> i & 1:
            assert xi.atom_values[i] >= ZERO
        else:
            assert xi.atom_values[i] <= ZERO

    # the absolutely continuous case does admit a two-sided split
    f_plus_masks, f_minus_masks = sign_classes(table([plain(v) for v in mu.atom_values]))
    assert omega_plus.mask in f_plus_masks
    assert omega_plus.complement().mask in f_minus_masks

    # a.s. uniqueness, both directions
    non_null = [i for i in range(space.n_atoms) if prob.atom_values[i] > ZERO]
    i = rng.choice(non_null)
    vals = list(xi.atom_values)
    vals[i] = vals[i] + E(1) if vals[i].is_finite else ZERO
    assert mu_xi(RandomVariable(space, vals), prob) != mu
