import random
from itertools import combinations

import pytest

from partmeas import (
    HalfSet,
    SymbolicSet,
    SymbolicValue,
    f_plus_enumeration_oracle,
    hahn_failure_check,
    mu3,
    sym_in_algebra,
    sym_in_f_minus,
    sym_in_f_plus,
)
from partmeas.errors import InvalidConfigError, NotInAlgebraError
from partmeas.symbolic import (
    COFINITE,
    FINITE,
    MAX_HAHN_TRIALS,
    _random_ids,
    random_algebra_member,
)


def fin(*ids):
    return HalfSet(FINITE, ids)


def cof(*ids):
    return HalfSet(COFINITE, ids)


def test_distinguished_half_is_outside_the_algebra():
    b = SymbolicSet.distinguished_half()
    assert b == SymbolicSet(cof(), fin())
    assert not sym_in_algebra(b)
    comp = b.complement()
    assert comp == SymbolicSet(fin(), cof())
    assert not sym_in_algebra(comp)


def test_singletons_are_members():
    s = SymbolicSet.singleton_b(3)
    assert sym_in_algebra(s)
    assert mu3(s) is SymbolicValue.PLUS_INFINITY
    t = SymbolicSet.singleton_bc(0)
    assert sym_in_algebra(t)
    assert mu3(t) is SymbolicValue.MINUS_INFINITY


@pytest.mark.parametrize("seed", range(40))
def test_algebra_closed_under_operations(seed):
    rng = random.Random(seed)
    s = random_algebra_member(rng)
    t = random_algebra_member(rng)
    assert sym_in_algebra(s.complement())
    assert sym_in_algebra(s.union(t))
    assert sym_in_algebra(s.intersect(t))
    # boolean sanity
    assert s.complement().complement() == s
    assert s.intersect(s) == s
    assert s.union(SymbolicSet.empty()) == s
    assert s.intersect(SymbolicSet.whole()) == s


def test_mu3_examples():
    assert mu3(SymbolicSet.empty()) is SymbolicValue.ZERO
    assert mu3(SymbolicSet(fin(1, 2), fin())) is SymbolicValue.PLUS_INFINITY
    assert mu3(SymbolicSet(fin(1), fin(7))) is SymbolicValue.UNDEFINED
    assert mu3(SymbolicSet(fin(), fin(4))) is SymbolicValue.MINUS_INFINITY
    with pytest.raises(NotInAlgebraError):
        mu3(SymbolicSet.distinguished_half())


@pytest.mark.parametrize("seed", range(40))
def test_mu3_additive_where_defined(seed):
    rng = random.Random(100 + seed)
    s = random_algebra_member(rng)
    t = random_algebra_member(rng).intersect(s.complement())
    u = s.union(t)
    values = [mu3(s), mu3(t), mu3(u)]
    if SymbolicValue.UNDEFINED in values:
        return
    signs = {SymbolicValue.ZERO: 0, SymbolicValue.PLUS_INFINITY: 1,
             SymbolicValue.MINUS_INFINITY: -1}
    vs, vt, vu = (signs[v] for v in values)
    assert not (vs == 1 and vt == -1) and not (vs == -1 and vt == 1)
    assert vu == (vs if vs else vt)


def test_f_plus_decision_examples():
    assert sym_in_f_plus(SymbolicSet.empty()).member
    assert sym_in_f_plus(SymbolicSet(fin(1, 2), fin())).member
    whole = SymbolicSet.whole()
    decision = sym_in_f_plus(whole)
    assert not decision.member
    w = decision.counterexample
    assert w is not None
    assert w.is_subset(whole)
    assert mu3(w) is SymbolicValue.MINUS_INFINITY


def test_f_minus_decision_mirror():
    assert sym_in_f_minus(SymbolicSet(fin(), fin(3))).member
    decision = sym_in_f_minus(SymbolicSet.whole())
    assert not decision.member
    assert mu3(decision.counterexample) is SymbolicValue.PLUS_INFINITY


def test_decision_requires_algebra_membership():
    with pytest.raises(NotInAlgebraError):
        sym_in_f_plus(SymbolicSet.distinguished_half())


@pytest.mark.parametrize("seed", range(200))
def test_decision_agrees_with_bounded_oracle(seed):
    rng = random.Random(seed)
    c = random_algebra_member(rng)
    assert sym_in_f_plus(c).member == f_plus_enumeration_oracle(c)


@pytest.mark.parametrize("seed", range(60))
def test_undefined_sets_admit_no_value(seed):
    rng = random.Random(7000 + seed)
    c = random_algebra_member(rng)
    if mu3(c) is not SymbolicValue.UNDEFINED:
        return
    # the trace over c contains a +inf singleton and a -inf singleton,
    # so additivity over any partition separating them is ill-posed
    b_id = c.b_part.ids[0] if c.b_part.kind == FINITE else c.b_part.fresh_id()
    bc_id = c.bc_part.ids[0] if c.bc_part.kind == FINITE else c.bc_part.fresh_id()
    plus = SymbolicSet.singleton_b(b_id)
    minus = SymbolicSet.singleton_bc(bc_id)
    assert plus.is_subset(c) and minus.is_subset(c)
    assert mu3(plus) is SymbolicValue.PLUS_INFINITY
    assert mu3(minus) is SymbolicValue.MINUS_INFINITY


def test_hahn_failure_report():
    report = hahn_failure_check(seed=5, trials=2000)
    assert report["hahn_split_exists"] is False
    assert report["counterexamples"] == 0
    assert report["trials"] == 2000
    assert report["seed"] == 5
    assert all(step["holds"] for step in report["steps"])
    assert all(step["checked"] > 0 for step in report["steps"])


def test_hahn_failure_over_every_member_with_ids_below_six():
    # the universe random_algebra_member draws from, with ids from 0..5
    # instead of 0..9: one kind for both halves, at most four ids each
    halves = [ids for r in range(5) for ids in combinations(range(6), r)]
    members = [
        SymbolicSet(HalfSet(kind, b), HalfSet(kind, bc))
        for kind in (FINITE, COFINITE)
        for b in halves
        for bc in halves
    ]
    assert len(members) == 2 * 57**2
    in_f_plus = []
    for c in members:
        plus = sym_in_f_plus(c)
        assert plus.member == f_plus_enumeration_oracle(c)
        assert not (plus.member and sym_in_f_minus(c.complement()).member)
        if plus.member:
            in_f_plus.append(c)
    assert len(in_f_plus) == 57
    for c in in_f_plus:
        # the report's step 1: a finite subset of the distinguished half
        assert c.bc_part.is_empty and c.b_part.kind == FINITE
        # step 2: the complement holds a fresh +inf singleton
        witness = SymbolicSet.singleton_b(c.b_part.fresh_id())
        assert witness.is_subset(c.complement())
        assert mu3(witness) is SymbolicValue.PLUS_INFINITY


def test_hahn_failure_deterministic():
    assert hahn_failure_check(seed=9, trials=500) == hahn_failure_check(
        seed=9, trials=500
    )


def test_a_point_that_is_not_fresh_fails_step_two(monkeypatch):
    # a "fresh" index that c already holds puts the witness inside c, not
    # inside its complement, and step 2 must say that it does not hold
    monkeypatch.setattr(HalfSet, "fresh_id", lambda self: (*self.ids, 0)[0])
    step1, step2 = hahn_failure_check(seed=5, trials=200)["steps"]
    assert step1["holds"]
    assert step2["checked"] > 0 and not step2["holds"]

def test_pinned_cases_in_failure_check():
    # c = ∅ is in the nonnegative class and its complement is not in the
    # nonpositive one; a finite nonempty member behaves the same way
    for c in (SymbolicSet.empty(), SymbolicSet(fin(1), fin())):
        assert sym_in_f_plus(c).member
        assert not sym_in_f_minus(c.complement()).member


def test_random_members_draw_what_sample_and_randint_draw():
    # the member a seed gives, and the generator state after it, are those
    # of the random calls the builder replaced
    def with_stdlib(rng):
        kind = FINITE if rng.random() < 0.5 else COFINITE
        ids_b = tuple(rng.sample(range(10), rng.randint(0, 4)))
        ids_bc = tuple(rng.sample(range(10), rng.randint(0, 4)))
        return SymbolicSet(HalfSet(kind, ids_b), HalfSet(kind, ids_bc))

    for seed in range(500):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(4):
            assert random_algebra_member(ours) == with_stdlib(theirs)
        # the ids in the order they are drawn, before HalfSet sorts them
        drawn = theirs.sample(range(10), theirs.randint(0, 4))
        assert _random_ids(ours) == tuple(drawn)
        assert ours.getstate() == theirs.getstate()


def test_half_normalization():
    assert HalfSet(FINITE, (3, 1, 3)).ids == (1, 3)
    assert HalfSet(kind=COFINITE, ids=[2, 0]).ids == (0, 2)
    with pytest.raises(ValueError, match="^kind must be finite or cofinite, got 'open'$"):
        HalfSet("open", (-1,))
    with pytest.raises(ValueError, match="^point indices must be nonnegative$"):
        HalfSet(FINITE, (-1,))


def test_set_descriptions_repr_equality_and_hash():
    s = SymbolicSet.singleton_b(3)
    assert repr(s) == (
        "SymbolicSet(b_part=HalfSet(kind='finite', ids=(3,)), "
        "bc_part=HalfSet(kind='finite', ids=()))"
    )
    assert repr(cof(2, 1)) == "HalfSet(kind='cofinite', ids=(1, 2))"
    assert s == SymbolicSet(b_part=fin(3, 3), bc_part=fin())
    assert hash(s) == hash(SymbolicSet(fin(3, 3), fin()))
    assert fin(2, 1) == fin(1, 2) and hash(fin(2, 1)) == hash(fin(1, 2))
    assert s != SymbolicSet.singleton_bc(3)
    assert fin(1) != cof(1)
    assert s != (fin(3), fin())
    assert fin(1) != (FINITE, (1,))
    assert len({s, SymbolicSet.singleton_b(3), SymbolicSet.empty()}) == 2


@pytest.mark.parametrize("seed", [None, 2.5, True, "x", -3, 2**64])
def test_failure_check_seed_must_be_a_64_bit_unsigned_int(seed):
    # None seeded from the OS and reported "seed": null; -3 drew the
    # stream of seed 3; the others ran
    with pytest.raises(
        InvalidConfigError, match="^seed must be a 64-bit unsigned integer$"
    ):
        hahn_failure_check(seed=seed, trials=1)


@pytest.mark.parametrize("trials", [True, 2.5, 10.0, "5", 0, MAX_HAHN_TRIALS + 1])
def test_failure_check_trials_must_be_an_int_in_range(trials):
    # True ran one trial and reported "trials": true; 2.5 reached range()
    with pytest.raises(
        InvalidConfigError, match=f"^trials must be between 1 and {MAX_HAHN_TRIALS}$"
    ):
        hahn_failure_check(trials=trials)
