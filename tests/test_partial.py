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
    PositiveMeasure,
    ZERO,
    can_extend_with,
    check_minimality,
    corollary1_witness,
    diff_measures,
    enumerate_sets,
    f_minus,
    f_plus,
    hahn_partial,
    is_maximal,
    jordan_decompose,
    jordan_decompose_detailed,
    jordan_sup,
    maximalize,
    restrict_to,
    single_set_extensions,
    validate_partial,
    value_table,
)
from partmeas import extreal
from partmeas.errors import (
    AdditivityViolationError,
    EmptyDomainError,
    FillConflictError,
    InDomainError,
    MixedInfinitiesInDomainSetError,
    NotInDomainError,
    NotTraceClosedError,
    TooLargeError,
    UnknownPointError,
)
from oracles import (
    brute_f_minus,
    brute_f_plus,
    eval_scratch,
    literal_dominates,
    pos_eval,
    scratch_table,
    submasks,
)

E = ExtReal
SPACE4 = FiniteSpace.discrete("abcd")
MIXED = MaximalPartialMeasure(
    SPACE4, [E(Fraction(3, 2)), E(-2), PLUS_INF, MINUS_INF]
)


def sets_of(space, *point_groups):
    return [space.set_from_points(g) for g in point_groups]


# ---------------------------------------------------------------------------
# validation


def test_validate_minimal_partial_measure():
    space = FiniteSpace.discrete("ab")
    pm = validate_partial(space, [space.empty_set()], {space.empty_set(): ZERO})
    assert pm.domain_sets() == [space.empty_set()]
    assert pm.evaluate(space.empty_set()) == ZERO
    assert pm.covered_atoms == 0


def test_validate_rejects_mixed_infinities_set():
    values = {
        s: eval_scratch(MIXED.atom_values, s.mask) or ZERO
        for s in enumerate_sets(SPACE4)
    }
    with pytest.raises(MixedInfinitiesInDomainSetError):
        validate_partial(SPACE4, values.keys(), values)


def test_validate_non_mixing_domain_is_accepted():
    good_sets = [
        MeasurableSet(SPACE4, m)
        for m in range(16)
        if eval_scratch(MIXED.atom_values, m) is not None
    ]
    values = {s: eval_scratch(MIXED.atom_values, s.mask) for s in good_sets}
    pm = validate_partial(SPACE4, good_sets, values)
    assert len(pm.domain_sets()) == len(good_sets)
    for s in good_sets:
        assert pm.evaluate(s) == values[s]


def test_validate_requires_atoms_not_subtraction():
    # {a} = 1 and {a,b} = 3 would determine {b} = 2 by subtraction, but the
    # validator only derives values from atom sums, so the atom must be given
    space = FiniteSpace.discrete("ab")
    a, ab = sets_of(space, ["a"], ["a", "b"])
    with pytest.raises(NotTraceClosedError):
        validate_partial(space, [a, ab], {a: E(1), ab: E(3)})
    b = space.set_from_points(["b"])
    pm = validate_partial(
        space, [a, b, ab], {a: E(1), b: E(2), ab: E(3)}
    )
    assert pm.evaluate(ab) == E(3)


def test_validate_additivity_violation():
    space = FiniteSpace.discrete("ab")
    a, b, ab = sets_of(space, ["a"], ["b"], ["a", "b"])
    with pytest.raises(AdditivityViolationError):
        validate_partial(space, [a, b, ab], {a: E(1), b: E(2), ab: E(4)})


def test_validate_nonzero_empty_set():
    space = FiniteSpace.discrete("ab")
    with pytest.raises(AdditivityViolationError):
        validate_partial(space, [space.empty_set()], {space.empty_set(): E(1)})


def test_validate_empty_domain():
    with pytest.raises(EmptyDomainError):
        validate_partial(SPACE4, [], {})


def test_validate_closes_under_subsets():
    space = FiniteSpace.discrete("abc")
    a, b, ab = sets_of(space, ["a"], ["b"], ["a", "b"])
    pm = validate_partial(space, [a, b, ab], {a: E(1), b: PLUS_INF, ab: PLUS_INF})
    assert pm.in_domain(space.empty_set())
    assert pm.evaluate(space.empty_set()) == ZERO
    assert not pm.in_domain(space.full_set())
    assert pm.covered_atoms == 0b011


# ---------------------------------------------------------------------------
# differences of positive measures


def test_diff_zero_gives_total():
    space = FiniteSpace.discrete("abc")
    m1 = PositiveMeasure(space, [E(1), E(Fraction(1, 2)), PLUS_INF])
    d = diff_measures(m1, PositiveMeasure.zero(space))
    for s in enumerate_sets(space):
        assert d.in_domain(s)
        assert d.evaluate(s) == m1.evaluate(s)


def test_diff_everywhere_well_posed():
    space = FiniteSpace.discrete("ab")
    m1 = PositiveMeasure(space, [PLUS_INF, E(1)])
    m2 = PositiveMeasure(space, [ZERO, E(2)])
    d = diff_measures(m1, m2)
    assert len(d.domain_sets()) == 4
    assert d.evaluate(space.set_from_points(["a"])) == PLUS_INF
    assert d.evaluate(space.set_from_points(["b"])) == E(-1)


def test_diff_shared_infinite_atom():
    space = FiniteSpace.discrete("ab")
    m1 = PositiveMeasure(space, [PLUS_INF, ZERO])
    m2 = PositiveMeasure(space, [PLUS_INF, ZERO])
    d = diff_measures(m1, m2)
    # the only well-posed sets avoid the shared infinite atom
    assert [s.key() for s in d.domain_sets()] == ["", "b"]
    assert not is_maximal(d)


@pytest.mark.parametrize("seed", range(25))
def test_diff_domain_oracle(seed):
    rng = random.Random(seed)
    space = FiniteSpace.discrete("abcde"[: rng.randint(1, 5)])

    def draw():
        return PositiveMeasure(
            space,
            [
                PLUS_INF
                if rng.random() < 0.3
                else E(Fraction(rng.randint(0, 5), rng.randint(1, 5)))
                for _ in range(space.n_atoms)
            ],
        )

    m1, m2 = draw(), draw()
    d = diff_measures(m1, m2)
    for s in enumerate_sets(space):
        v1, v2 = m1.evaluate(s), m2.evaluate(s)
        well_posed = not (v1 == PLUS_INF and v2 == PLUS_INF)
        assert d.in_domain(s) == well_posed
        if well_posed:
            assert d.evaluate(s) == v1 - v2
    shared = any(
        m1.atom_values[i] == PLUS_INF and m2.atom_values[i] == PLUS_INF
        for i in range(space.n_atoms)
    )
    assert is_maximal(d) == (not shared)


# ---------------------------------------------------------------------------
# maximalization


def test_maximalize_minimal_to_zero():
    space = FiniteSpace.discrete("ab")
    pm = validate_partial(space, [space.empty_set()], {space.empty_set(): ZERO})
    mm = maximalize(pm)
    assert mm.atom_values == (ZERO, ZERO)


def extension_holds(pm, mm):
    return all(
        mm.in_domain(b) and mm.evaluate(b) == pm.evaluate(b)
        for b in pm.domain_sets()
    )


def test_maximalize_fill_choices_both_extend():
    space = FiniteSpace.discrete("ab")
    m = PositiveMeasure(space, [PLUS_INF, ZERO])
    pm = diff_measures(m, m)  # domain {∅, {b}}, atom a free
    inf_fill = maximalize(pm, {"a": PLUS_INF})
    assert inf_fill.atom_values == (PLUS_INF, ZERO)
    assert extension_holds(pm, inf_fill)
    finite_fill = maximalize(pm, {"a": E(5)})
    assert finite_fill.atom_values == (E(5), ZERO)
    assert extension_holds(pm, finite_fill)
    assert inf_fill != finite_fill  # maximal extensions are not unique


def test_maximalize_fill_conflict():
    space = FiniteSpace.discrete("ab")
    a = space.set_from_points(["a"])
    pm = validate_partial(space, [a], {a: E(1)})
    with pytest.raises(FillConflictError):
        maximalize(pm, {"a": E(2)})
    with pytest.raises(UnknownPointError):
        maximalize(pm, {"z": E(2)})


# ---------------------------------------------------------------------------
# sign classes and decomposition


def test_f_plus_examples():
    fp = {s.mask for s in f_plus(MIXED)}
    assert fp == set(brute_f_plus(MIXED.atom_values, 4))
    a_c = SPACE4.set_from_points(["a", "c"]).mask
    assert fp == set(submasks(a_c))
    fm = {s.mask for s in f_minus(MIXED)}
    assert fm == set(brute_f_minus(MIXED.atom_values, 4))
    b_d = SPACE4.set_from_points(["b", "d"]).mask
    assert fm == set(submasks(b_d))


def test_f_plus_zero_measure():
    zero = MaximalPartialMeasure(SPACE4, [ZERO] * 4)
    assert len(f_plus(zero)) == 16
    assert len(f_minus(zero)) == 16


def test_f_plus_cap():
    space = FiniteSpace.discrete([f"p{i:02d}" for i in range(21)])
    with pytest.raises(TooLargeError):
        f_plus(MaximalPartialMeasure(space, [ZERO] * 21))


def test_jordan_worked_example():
    mu_plus, mu_minus = jordan_decompose(MIXED)
    assert mu_plus.atom_values == (E(Fraction(3, 2)), ZERO, PLUS_INF, ZERO)
    assert mu_minus.atom_values == (ZERO, E(2), ZERO, PLUS_INF)


def test_jordan_positive_measure_fixed_point():
    space = FiniteSpace.discrete("abc")
    mu = MaximalPartialMeasure(space, [E(1), ZERO, PLUS_INF])
    mu_plus, mu_minus = jordan_decompose(mu)
    assert mu_plus.atom_values == mu.atom_values
    assert mu_minus.atom_values == (ZERO, ZERO, ZERO)


def test_jordan_sup_attaining_set():
    value, attaining = jordan_sup(MIXED, SPACE4.set_from_points(["a", "b"]), "plus")
    assert value == E(Fraction(3, 2))
    assert attaining == SPACE4.set_from_points(["a"])


def test_jordan_identity_exhaustive_on_worked_example():
    d = jordan_decompose_detailed(MIXED)
    for mask in range(16):
        v = eval_scratch(MIXED.atom_values, mask)
        plus = pos_eval(d.mu_plus.atom_values, mask)
        minus = pos_eval(d.mu_minus.atom_values, mask)
        if v is not None:
            assert v == plus - minus
        else:
            assert plus == PLUS_INF and minus == PLUS_INF


def test_check_minimality_examples():
    d = jordan_decompose_detailed(MIXED)
    assert check_minimality(MIXED, d.mu_plus, "plus")
    bumped = PositiveMeasure(
        SPACE4, [v + E(1) for v in d.mu_plus.atom_values]
    )
    assert check_minimality(MIXED, bumped, "plus")
    for mask in range(16):
        assert pos_eval(d.mu_plus.atom_values, mask) <= pos_eval(
            bumped.atom_values, mask
        )
    # strictly below the measure on {a}: domination must fail
    lowered = PositiveMeasure(SPACE4, [E(1), ZERO, PLUS_INF, ZERO])
    assert not check_minimality(MIXED, lowered, "plus")


def test_check_minimality_matches_literal_comparison():
    rng = random.Random(4242)
    pool = [MINUS_INF, E(-2), E(Fraction(-1, 2)), ZERO, E(Fraction(1, 3)), PLUS_INF]
    candidate_pool = [ZERO, E(Fraction(1, 3)), E(Fraction(1, 2)), E(2), PLUS_INF]
    outcomes = set()
    for _ in range(300):
        k = rng.randint(1, 5)
        space = FiniteSpace.discrete("abcde"[:k])
        mu = MaximalPartialMeasure(space, [rng.choice(pool) for _ in range(k)])
        table = scratch_table(mu.atom_values, k)
        for side in ("plus", "minus"):
            candidate = PositiveMeasure(
                space, [rng.choice(candidate_pool) for _ in range(k)]
            )
            expected = literal_dominates(
                table, scratch_table(candidate.atom_values, k), side
            )
            assert check_minimality(mu, candidate, side) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_corollary1_examples():
    a_prime, a_dprime = corollary1_witness(MIXED, SPACE4.set_from_points(["c", "d"]))
    assert (a_prime, a_dprime) == tuple(sets_of(SPACE4, ["c"], ["d"]))
    a_prime, a_dprime = corollary1_witness(MIXED, SPACE4.full_set())
    assert (a_prime, a_dprime) == tuple(sets_of(SPACE4, ["a", "c"], ["b", "d"]))
    table = value_table(MIXED)
    assert table[a_prime.mask] == PLUS_INF
    assert table[a_dprime.mask] == MINUS_INF
    with pytest.raises(InDomainError):
        corollary1_witness(MIXED, SPACE4.set_from_points(["a", "b"]))


def test_hahn_partial_examples():
    c, rest = hahn_partial(MIXED)
    assert c == SPACE4.set_from_points(["a", "c"])
    assert rest == SPACE4.set_from_points(["b", "d"])
    zero = MaximalPartialMeasure(SPACE4, [ZERO] * 4)
    assert hahn_partial(zero)[0] == SPACE4.full_set()
    space = FiniteSpace.discrete("ab")
    negative = MaximalPartialMeasure(space, [E(-1), MINUS_INF])
    assert hahn_partial(negative)[0] == space.empty_set()


# ---------------------------------------------------------------------------
# tables, restriction, maximality


@pytest.mark.parametrize("seed", range(25))
def test_value_table_matches_scratch_evaluation(seed):
    rng = random.Random(seed)
    space = FiniteSpace.discrete("abcde"[: rng.randint(1, 5)])
    pool = [E(Fraction(rng.randint(-5, 5), rng.randint(1, 5))), PLUS_INF, MINUS_INF]
    mu = MaximalPartialMeasure(
        space, [rng.choice(pool) for _ in range(space.n_atoms)]
    )
    table = value_table(mu)
    for mask in range(1 << space.n_atoms):
        assert table[mask] == eval_scratch(mu.atom_values, mask)
        assert mu.in_domain_mask(mask) == (table[mask] is not None)


def test_evaluate_outside_derived_domain():
    with pytest.raises(NotInDomainError):
        MIXED.evaluate(SPACE4.set_from_points(["c", "d"]))


def test_restrict_to_and_extensions():
    gen = SPACE4.set_from_points(["a", "b"])
    pm = restrict_to(MIXED, [gen])
    assert {s.mask for s in pm.domain_sets()} == set(submasks(gen.mask))
    assert not is_maximal(pm)
    candidates = single_set_extensions(pm)
    assert candidates  # e.g. the atom {c} extends the restriction
    mm = maximalize(pm)
    assert extension_holds(pm, mm)
    assert mm.atom_values == (E(Fraction(3, 2)), E(-2), ZERO, ZERO)


def test_equality_is_value_equality_across_constructors():
    # domain: the subsets of {a, b, c}; d is free and its source values differ
    abc = SPACE4.set_from_points(["a", "b", "c"])
    atoms = [E(Fraction(3, 2)), E(-2), PLUS_INF]
    source = MaximalPartialMeasure(SPACE4, atoms + [E(7)])
    restricted = restrict_to(source, [abc])
    differenced = diff_measures(
        PositiveMeasure(SPACE4, [E(Fraction(3, 2)), ZERO, PLUS_INF, PLUS_INF]),
        PositiveMeasure(SPACE4, [ZERO, E(2), ZERO, PLUS_INF]),
    )

    def validated(atom_values):
        sets = [MeasurableSet(SPACE4, m) for m in submasks(abc.mask)]
        return validate_partial(
            SPACE4, sets, {s: eval_scratch(atom_values, s.mask) for s in sets}
        )

    assert restricted == differenced == validated(atoms)
    assert restricted != validated([E(1), E(-2), PLUS_INF])
    # same determined atoms, smaller domain
    assert restricted != restrict_to(source, sets_of(SPACE4, ["a"], ["b"], ["c"]))


@pytest.mark.parametrize("seed", range(30))
def test_domain_is_the_closure_of_the_maximal_generators(seed):
    # repeats, nested sets, equal-size antichains and the empty set
    rng = random.Random(seed)
    space = FiniteSpace.discrete("abcdefg"[: rng.randint(1, 7)])
    mu = MaximalPartialMeasure(space, [ExtReal(1)] * space.n_atoms)
    gens = [rng.randrange(1 << space.n_atoms) for _ in range(rng.randint(0, 12))]
    gens += rng.sample(gens, len(gens) // 2)
    maximal = [g for g in gens if not any(g != h and g | h == h for h in gens)]
    closure = {sub for g in gens for sub in submasks(g)} | {0}
    pm = restrict_to(mu, [MeasurableSet(space, g) for g in gens])
    assert pm == restrict_to(mu, [MeasurableSet(space, g) for g in maximal])
    assert [s.mask for s in pm.domain_sets()] == sorted(closure)
    for mask in range(1 << space.n_atoms):
        assert pm.in_domain(MeasurableSet(space, mask)) == (mask in closure)


def test_restrict_to_rejects_sets_outside_domain():
    with pytest.raises(NotInDomainError):
        restrict_to(MIXED, [SPACE4.set_from_points(["c", "d"])])


def test_can_extend_with_is_always_false_on_maximal():
    for mask in range(16):
        if MIXED.in_domain_mask(mask):
            continue
        s = MeasurableSet(SPACE4, mask)
        for v in (ZERO, E(1), PLUS_INF, MINUS_INF):
            assert not can_extend_with(MIXED, s, v)


def test_single_set_extension_really_validates():
    pm = restrict_to(MIXED, [SPACE4.set_from_points(["a", "b"])])
    s = SPACE4.set_from_points(["a", "c"])
    assert s in single_set_extensions(pm)
    sets = {x: pm.evaluate(x) for x in pm.domain_sets()}
    c = SPACE4.set_from_points(["c"])
    sets[c] = PLUS_INF  # free atom can take any value
    sets[s] = pm.evaluate(SPACE4.set_from_points(["a"])) + PLUS_INF
    extended = validate_partial(SPACE4, sets.keys(), sets)
    assert extended.in_domain(s)


# ---------------------------------------------------------------------------
# sums over disjoint families, and closure of the sign classes under unions


@pytest.mark.parametrize("seed", range(40))
def test_disjoint_families_and_union_closure(seed):
    rng = random.Random(seed)
    space = FiniteSpace.discrete("abcde"[: rng.randint(1, 5)])
    pool = [
        E(Fraction(rng.randint(-5, 5), rng.randint(1, 5))),
        PLUS_INF,
        MINUS_INF,
        ZERO,
    ]
    mu = MaximalPartialMeasure(
        space, [rng.choice(pool) for _ in range(space.n_atoms)]
    )
    fp = brute_f_plus(mu.atom_values, space.n_atoms)
    u = rng.choice(fp)

    def partition():
        blocks = [0] * rng.randint(1, 3)
        for i in range(space.n_atoms):
            if u >> i & 1:
                blocks[rng.randrange(len(blocks))] |= 1 << i
        return blocks

    fam1, fam2 = partition(), partition()
    total1 = extreal.sum(eval_scratch(mu.atom_values, b) for b in fam1)
    total2 = extreal.sum(eval_scratch(mu.atom_values, b) for b in fam2)
    assert total1 == total2 == eval_scratch(mu.atom_values, u)

    members = rng.sample(fp, min(len(fp), rng.randint(1, 4)))
    union = 0
    for m in members:
        union |= m
    assert union in fp

    # downward closure
    f = rng.choice(fp)
    assert (rng.randrange(1 << space.n_atoms) & f) in fp


def test_down_closure_budget_counts_the_whole_domain(monkeypatch):
    # with the cap at 3 atoms the budget is 2**3 sets: one 3-atom domain
    # set fills it, and any set outside it goes past
    from partmeas import partial

    monkeypatch.setattr(partial, "ENUMERATION_CAP", 3)
    space = FiniteSpace.discrete("abcde")
    mu = MaximalPartialMeasure(space, [ExtReal(1)] * 5)
    abc = space.set_from_points("abc")
    assert len(restrict_to(mu, [abc, space.set_from_points("ab")]).domain_sets()) == 8
    with pytest.raises(TooLargeError, match=r"has 9 sets; enumeration capped at 2\*\*3"):
        restrict_to(mu, [abc, space.set_from_points("d")]).domain_sets()
    with pytest.raises(TooLargeError, match="domain has 16 sets"):
        restrict_to(mu, [space.set_from_points("abcd")]).domain_sets()


def test_construction_never_lists_the_domain(monkeypatch):
    from partmeas import partial

    def enumerated(mask):
        raise AssertionError("the domain was enumerated")

    monkeypatch.setattr(partial, "iter_submasks", enumerated)
    space = FiniteSpace.discrete([f"p{i:02d}" for i in range(30)])
    full = space.full_set()
    values = [E(i - 15) for i in range(30)]
    singletons = [space.atom_set(i) for i in range(30)]
    validated = validate_partial(
        space,
        singletons + [full],
        {**dict(zip(singletons, values)), full: E(-15)},
    )
    restricted = restrict_to(MaximalPartialMeasure(space, values), [full])
    assert validated == restricted
    assert validated.evaluate(full) == restricted.evaluate(full) == E(-15)
    assert maximalize(validated).atom_values == tuple(values)

    # +inf on p00 in the first operand and on p01 in the second: every
    # set holding both is ill-posed, and the two maximal sets drop one each
    m1 = PositiveMeasure(space, [PLUS_INF] + [E(2)] * 29)
    m2 = PositiveMeasure(space, [E(1), PLUS_INF] + [E(1)] * 28)
    d = diff_measures(m1, m2)
    no_p01 = MeasurableSet(space, full.mask ^ 0b10)
    assert d.in_domain(no_p01) and d.evaluate(no_p01) == PLUS_INF
    assert d.evaluate(MeasurableSet(space, full.mask ^ 0b11)) == E(28)
    assert not d.in_domain(space.set_from_points(["p00", "p01"]))
    assert maximalize(d).atom_values == (PLUS_INF, MINUS_INF) + (E(1),) * 28

    for pm, n in ((validated, 30), (restricted, 30), (d, 29)):
        with pytest.raises(
            TooLargeError, match=f"^domain set has {n} atoms; enumeration capped at 20$"
        ):
            pm.domain_sets()
