"""Acceptance suite.

Every check is exact (zero tolerance).  Each criterion prints one
PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s`` to see
them.  Criteria 1, 2 and 4 share a single exhaustive scan over all
maximal partial measures on up to 5 atoms with atom values drawn from a
fixed 7-value pool (7^1 + ... + 7^5 = 19607 instances).
"""

import itertools
import random
import time
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
    Probability,
    RandomVariable,
    ZERO,
    check_minimality,
    corollary1_witness,
    ess_sup,
    f_plus,
    is_abs_continuous,
    is_maximal,
    jordan_decompose_detailed,
    jordan_sup,
    maximalize,
    mu_xi,
    restrict_to,
    rn_derivative,
    validate_partial,
    value_table,
)
from partmeas import extreal
from partmeas.errors import IllPosedError, MixedInfinitiesInDomainSetError
from partmeas.fuzzing import FuzzConfig, generate_random_instance
from partmeas.spaces import iter_submasks
from partmeas.symbolic import (
    f_plus_enumeration_oracle,
    hahn_failure_check,
    random_algebra_member,
    sym_in_f_plus,
)
from oracles import NEG, POS, atom_sum, parts, plain, sign_classes, suprema, table, total

E = ExtReal
VALUE_POOL = (
    MINUS_INF,
    E(-2),
    E(Fraction(-1, 2)),
    ZERO,
    E(Fraction(1, 3)),
    E(Fraction(3, 2)),
    PLUS_INF,
)
LETTERS = "abcde"


def report(number, ok, description):
    print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def pool_scan():
    """One pass over the exhaustive instance pool, accumulating the
    violation counts needed by criteria 1, 2 and 4.  The literal walks
    read the oracle's table, which the library's must equal on every
    set."""
    results = {
        "instances": 0,
        "identity_violations": 0,
        "oracle_mismatches": 0,
        "outside_sets": 0,
        "witness_failures": 0,
        "table_mismatches": 0,
        "elapsed": 0.0,
    }
    started = time.monotonic()
    rng = random.Random(1)
    plain_pool = [plain(v) for v in VALUE_POOL]
    plus_pool, minus_pool = parts(plain_pool)  # parts are taken atom by atom
    for k in range(1, 6):
        space = FiniteSpace.discrete(LETTERS[:k])
        size = 1 << k
        atoms = [1 << i for i in range(k)]
        for picks in itertools.product(range(len(VALUE_POOL)), repeat=k):
            mu = MaximalPartialMeasure(space, [VALUE_POOL[j] for j in picks])
            vals = [plain_pool[j] for j in picks]
            d = jordan_decompose_detailed(mu)
            lib_table = value_table(mu)
            plus_table = value_table(d.mu_plus)
            minus_table = value_table(d.mu_minus)
            tab = table(vals)
            results["instances"] += 1
            if list(map(plain, lib_table)) != tab:
                results["table_mismatches"] += 1

            # criterion 2: the closed-form sign classes, parts, attaining
            # sets and suprema must equal the literal walk over F+ and F-,
            # and the parts the independent per-atom oracle
            classes = sign_classes(tab)
            # F- is the subsets of the atoms with value <= 0
            fast_plus = [s.mask for s in f_plus(mu)]
            fast_minus = list(iter_submasks(mu.nonpos_mask()))
            for side, family, fast_family, part, attaining, per_atom in (
                ("plus", classes[0], fast_plus, d.mu_plus, d.plus_attaining, plus_pool),
                ("minus", classes[1], fast_minus, d.mu_minus, d.minus_attaining, minus_pool),
            ):
                if fast_family != family:
                    results["oracle_mismatches"] += 1
                values = [plain(v) for v in part.atom_values]
                if values != [per_atom[j] for j in picks]:
                    results["oracle_mismatches"] += 1
                a_mask = rng.randrange(size)
                sups = suprema(tab, family, [*atoms, a_mask], flip=side == "minus")
                if list(zip(values, (s.mask for s in attaining))) != sups[:k]:
                    results["oracle_mismatches"] += 1
                v, f = jordan_sup(mu, MeasurableSet(space, a_mask), side)
                if (plain(v), f.mask) != sups[k]:
                    results["oracle_mismatches"] += 1

            f_plus_set, f_minus_set = map(set, classes)
            for mask in range(size):
                v = lib_table[mask]
                if v is not None:
                    # criterion 1 on the domain
                    try:
                        if v != plus_table[mask] - minus_table[mask]:
                            results["identity_violations"] += 1
                    except IllPosedError:
                        results["identity_violations"] += 1
                    continue
                # criterion 1 off the domain
                if plus_table[mask] != PLUS_INF or minus_table[mask] != PLUS_INF:
                    results["identity_violations"] += 1
                # criterion 4: witnesses with infinite values and
                # brute-force class membership
                results["outside_sets"] += 1
                a = MeasurableSet(space, mask)
                a_plus, a_minus = corollary1_witness(mu, a)
                ok = (
                    a_plus.is_subset(a)
                    and a_minus.is_subset(a)
                    and tab[a_plus.mask] == POS
                    and tab[a_minus.mask] == NEG
                    and a_plus.mask in f_plus_set
                    and a_minus.mask in f_minus_set
                )
                if not ok:
                    results["witness_failures"] += 1
    results["elapsed"] = time.monotonic() - started
    return results


def test_criterion_1_jordan_identity(pool_scan):
    ok = (
        pool_scan["instances"] == 7 + 49 + 343 + 2401 + 16807
        and pool_scan["identity_violations"] == 0
        and pool_scan["table_mismatches"] == 0
        and pool_scan["elapsed"] < 60.0
    )
    report(
        1,
        ok,
        f"decomposition identity exact on {pool_scan['instances']} exhaustive "
        f"instances, 0 tolerance, {pool_scan['elapsed']:.1f}s",
    )


def test_criterion_2_sup_formula_matches_oracle(pool_scan):
    report(
        2,
        pool_scan["oracle_mismatches"] == 0,
        "closed-form F+/F-, parts, attaining sets and suprema equal the "
        "literal walk and the per-atom oracle on every instance "
        f"({pool_scan['instances']} instances, 0 mismatches required)",
    )


def test_criterion_3_minimality():
    cfg = FuzzConfig(seed=303, trials=1000, max_atoms=5)
    rng = random.Random(303)
    violations = 0
    for trial in range(1000):
        mu, _ = generate_random_instance(cfg, trial)
        space = mu.space
        d = jordan_decompose_detailed(mu)
        for part, side in ((d.mu_plus, "plus"), (d.mu_minus, "minus")):
            part_table = value_table(part)
            for _ in range(10):
                rho = [
                    PLUS_INF
                    if rng.random() < 0.1
                    else E(Fraction(rng.randint(0, 6), rng.randint(1, 6)))
                    for _ in range(space.n_atoms)
                ]
                nu = PositiveMeasure(
                    space,
                    [a + b for a, b in zip(part.atom_values, rho)],
                )
                if not check_minimality(mu, nu, side):
                    violations += 1
                    continue
                nu_table = value_table(nu)
                if any(
                    not part_table[m] <= nu_table[m]
                    for m in range(1 << space.n_atoms)
                ):
                    violations += 1
    report(
        3,
        violations == 0,
        "1000 seeded instances x 10 dominating candidates per side: "
        "decomposition parts are pointwise minimal (0 violations required)",
    )


def test_criterion_4_corollary1_witnesses(pool_scan):
    report(
        4,
        pool_scan["witness_failures"] == 0 and pool_scan["outside_sets"] > 0,
        f"witnesses verified for all {pool_scan['outside_sets']} sets outside "
        "a domain across the pool (0 failures required)",
    )


def test_criterion_5_family_sums_and_unions():
    cfg = FuzzConfig(seed=505, trials=1000, max_atoms=5)
    rng = random.Random(505)
    failures = 0
    for trial in range(1000):
        mu, _ = generate_random_instance(cfg, trial)
        k = mu.space.n_atoms
        vals = [plain(v) for v in mu.atom_values]
        fp = sign_classes(table(vals))[0]
        u = rng.choice(fp)

        def partition():
            blocks = [0] * rng.randint(1, 3)
            for i in range(k):
                if u >> i & 1:
                    blocks[rng.randrange(len(blocks))] |= 1 << i
            return blocks

        s1 = total([atom_sum(vals, b) for b in partition()])
        s2 = total([atom_sum(vals, b) for b in partition()])
        if not (s1 == s2 == atom_sum(vals, u)):
            failures += 1
        members = rng.sample(fp, min(len(fp), rng.randint(1, 4)))
        union = 0
        for m in members:
            union |= m
        if union not in fp:
            failures += 1
    report(
        5,
        failures == 0,
        "1000 seeded trials: disjoint nonnegative-class families with equal "
        "unions sum equally; finite unions stay in the class (0 failures)",
    )


def _random_ac_instance(rng, max_atoms=5):
    space = FiniteSpace.discrete(LETTERS[: rng.randint(1, max_atoms)])
    weights = [
        Fraction(0) if rng.random() < 0.3 else Fraction(rng.randint(1, 8))
        for _ in range(space.n_atoms)
    ]
    if not any(weights):
        weights[rng.randrange(space.n_atoms)] = Fraction(1)
    total = sum(weights)
    prob = Probability(space, [w / total for w in weights])
    pool = [
        E(Fraction(rng.randint(-6, 6), rng.randint(1, 6))),
        PLUS_INF,
        MINUS_INF,
        ZERO,
    ]
    values = [
        ZERO if prob.atom_values[i] == ZERO else rng.choice(pool)
        for i in range(space.n_atoms)
    ]
    return MaximalPartialMeasure(space, values), prob


def test_criterion_6_derivative_round_trip():
    rng = random.Random(606)
    failures = 0
    pairs_with_null_atoms = 0
    for _ in range(1000):
        mu, prob = _random_ac_instance(rng)
        if not is_abs_continuous(mu, prob):
            failures += 1
            continue
        xi = rn_derivative(mu, prob)
        if mu_xi(xi, prob) != mu:
            failures += 1
            continue
        null_atoms = [
            i for i in range(mu.space.n_atoms) if prob.atom_values[i] == ZERO
        ]
        non_null = [
            i for i in range(mu.space.n_atoms) if prob.atom_values[i] > ZERO
        ]
        if null_atoms:
            pairs_with_null_atoms += 1
            vals = list(xi.atom_values)
            for i in null_atoms:
                vals[i] = rng.choice([E(9), PLUS_INF, MINUS_INF])
            if mu_xi(RandomVariable(mu.space, vals), prob) != mu:
                failures += 1
                continue
        i = rng.choice(non_null)
        vals = list(xi.atom_values)
        vals[i] = vals[i] + E(1) if vals[i].is_finite else ZERO
        if mu_xi(RandomVariable(mu.space, vals), prob) == mu:
            failures += 1
    report(
        6,
        failures == 0 and pairs_with_null_atoms > 0,
        "1000 seeded absolutely continuous pairs "
        f"({pairs_with_null_atoms} with null atoms): integrate(derivative) "
        "is exact; uniqueness holds almost surely and only almost surely",
    )


def test_criterion_7_absolutely_continuous_split():
    rng = random.Random(707)
    failures = 0
    for _ in range(1000):
        mu, prob = _random_ac_instance(rng)
        fp, fm = sign_classes(table([plain(v) for v in mu.atom_values]))
        omega_plus = ess_sup(f_plus(mu), prob)
        if omega_plus.mask not in fp or omega_plus.complement().mask not in fm:
            failures += 1
    report(
        7,
        failures == 0,
        "1000 absolutely continuous instances: the essential supremum of the "
        "nonnegative class and its complement form a two-sided split "
        "(brute-force membership, 0 failures)",
    )


def test_criterion_8_symbolic_no_split():
    started = time.monotonic()
    rep = hahn_failure_check(seed=0, trials=10000)
    rng = random.Random(808)
    disagreements = 0
    for _ in range(10000):
        c = random_algebra_member(rng)
        if sym_in_f_plus(c).member != f_plus_enumeration_oracle(c):
            disagreements += 1
    elapsed = time.monotonic() - started
    ok = (
        rep["hahn_split_exists"] is False
        and rep["counterexamples"] == 0
        and all(step["holds"] for step in rep["steps"])
        and disagreements == 0
        and elapsed < 10.0
    )
    report(
        8,
        ok,
        "no positive/negative split exists in the symbolic model; decision "
        f"procedure matches the enumeration oracle on 10000 sets ({elapsed:.1f}s)",
    )


def test_criterion_9_maximalization():
    cfg = FuzzConfig(seed=909, trials=1000, max_atoms=5)
    rng = random.Random(909)
    failures = 0
    for trial in range(1000):
        mu, _ = generate_random_instance(cfg, trial)
        space = mu.space
        domain_masks = [
            m for m in range(1 << space.n_atoms) if mu.in_domain_mask(m)
        ]
        gens = [
            MeasurableSet(space, rng.choice(domain_masks))
            for _ in range(rng.randint(0, 3))
        ]
        pm = restrict_to(mu, gens)
        if is_maximal(pm):
            pm = restrict_to(mu, [])  # just the empty set: never maximal here
        if is_maximal(pm):
            failures += 1
            continue
        mm = maximalize(pm)
        if not all(
            mm.in_domain(b) and mm.evaluate(b) == pm.evaluate(b)
            for b in pm.domain_sets()
        ):
            failures += 1
            continue
        outside = [
            m
            for m in range(1 << space.n_atoms)
            if not mm.in_domain_mask(m)
        ]
        # no set outside the domain joins it, with its atoms, at any value
        for m in outside:
            s = MeasurableSet(space, m)
            atoms = {
                MeasurableSet(space, 1 << i): mm.atom_values[i]
                for i in range(space.n_atoms)
                if m >> i & 1
            }
            for v in (ZERO, E(1), PLUS_INF, MINUS_INF):
                try:
                    validate_partial(space, [*atoms, s], {**atoms, s: v})
                    failures += 1
                except MixedInfinitiesInDomainSetError:
                    pass
        if outside:
            # attempt one extension for real through the validator
            s = MeasurableSet(space, rng.choice(outside))
            sets = {
                MeasurableSet(space, m): extreal.sum(
                    mm.atom_values[i] for i in range(space.n_atoms) if m >> i & 1
                )
                for m in range(1 << space.n_atoms)
                if mm.in_domain_mask(m)
            }
            sets[s] = ZERO
            try:
                validate_partial(space, sets.keys(), sets)
                failures += 1
            except MixedInfinitiesInDomainSetError:
                pass
    report(
        9,
        failures == 0,
        "1000 random non-maximal restrictions: maximalize extends them and "
        "the result admits no further single-set extension (0 failures)",
    )
