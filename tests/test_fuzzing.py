import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest

from partmeas import (
    ExtReal,
    FiniteSpace,
    MINUS_INF,
    PLUS_INF,
    MaximalPartialMeasure,
    extreal,
    fuzzing,
    jsonio,
)
from partmeas.density import ess_sup, is_abs_continuous, mu_xi
from partmeas.errors import (
    IllPosedError,
    InvalidConfigError,
    MixedInfinitiesInDomainSetError,
)
from partmeas.extreal import ZERO
from partmeas.fuzzing import (
    MAX_FUZZ_TRIALS,
    FuzzConfig,
    PROPERTIES,
    PropertyViolation,
    generate_random_instance,
    run_fuzz,
)
from partmeas.measure import PositiveMeasure, hahn_decomposition
from partmeas.partial import (
    PartialMeasure,
    corollary1_witness,
    diff_measures,
    hahn_partial,
    jordan_decompose_detailed,
    jordan_sup,
    maximalize,
)
from partmeas.spaces import ENUMERATION_CAP, MeasurableSet
from partmeas.symbolic import FINITE, FPlusDecision, SymbolicSet, sym_in_f_plus

from oracles import plain, sign_classes, total


def test_config_validation():
    trials = f"^trials must be between 1 and {MAX_FUZZ_TRIALS}$"
    atoms = f"^max_atoms must be between 1 and {ENUMERATION_CAP}$"
    with pytest.raises(InvalidConfigError, match=trials):
        FuzzConfig(trials=0)
    with pytest.raises(InvalidConfigError, match=trials):
        FuzzConfig(trials=MAX_FUZZ_TRIALS + 1)
    with pytest.raises(InvalidConfigError, match=atoms):
        FuzzConfig(max_atoms=0)
    with pytest.raises(InvalidConfigError, match=atoms):
        FuzzConfig(max_atoms=99)
    with pytest.raises(InvalidConfigError, match="^seed must be a 64-bit unsigned integer$"):
        FuzzConfig(seed=-1)


def test_config_repr_equality_and_hash():
    cfg = FuzzConfig(1, 2, 3)
    assert cfg == FuzzConfig(seed=1, trials=2, max_atoms=3)
    assert hash(cfg) == hash(FuzzConfig(seed=1, trials=2, max_atoms=3))
    assert cfg != FuzzConfig(1, 2, 4)
    assert cfg != (1, 2, 3)
    assert repr(cfg) == "FuzzConfig(seed=1, trials=2, max_atoms=3)"
    assert repr(FuzzConfig()) == "FuzzConfig(seed=0, trials=100, max_atoms=6)"


@pytest.mark.parametrize(
    "field, value",
    [
        ("trials", 2.5),
        ("trials", 5.0),
        ("trials", True),
        ("max_atoms", 3.0),
        ("max_atoms", True),
        ("seed", True),
        ("seed", False),
    ],
)
def test_config_fields_must_be_ints(field, value):
    # a float passed validation and then failed inside run_fuzz: range()
    # raised TypeError, or every property failed with it; a bool was 0 or 1
    with pytest.raises(InvalidConfigError):
        FuzzConfig(**{field: value})


def test_seed_bound_is_64_bits():
    assert FuzzConfig(seed=2**64 - 1).seed == 2**64 - 1
    with pytest.raises(InvalidConfigError, match="64-bit"):
        FuzzConfig(seed=2**64)


def test_instance_stream_is_deterministic():
    cfg = FuzzConfig(seed=42, trials=10)
    for trial in range(10):
        mu1, p1 = generate_random_instance(cfg, trial)
        mu2, p2 = generate_random_instance(cfg, trial)
        assert mu1 == mu2
        assert p1 == p2
    # different trials do vary
    instances = {generate_random_instance(cfg, t)[0].atom_values for t in range(10)}
    assert len(instances) > 1


# The sha256 of every atom value the seeded builders draw for seeds
# 0-199.  A faster builder must draw exactly the same values: the fuzz
# report holds only failure counts, so it cannot show a changed stream.
_STREAM_SHA256 = "c9967980be4ca330b16f0f207e198227b0d6b567d03801b1d9413d1542f7aff3"


def test_seeded_builders_draw_a_fixed_stream():
    h = hashlib.sha256()
    for seed in range(200):
        rng = random.Random(seed)
        cfg = FuzzConfig(seed=seed)
        mu = fuzzing._random_maximal(rng, cfg)
        m = fuzzing._random_total_measure(rng, mu.space)
        pos = fuzzing._random_positive_measure(rng, mu.space)
        inst, prob = generate_random_instance(cfg, seed)
        for vec in (mu, m, pos, inst, prob):
            h.update((" ".join(str(v) for v in vec.atom_values) + "\n").encode())
    assert h.hexdigest() == _STREAM_SHA256


# The sha256 of the generator state after every trial of every property
# in run_fuzz(FuzzConfig(seed=1, trials=30)).  The builder pin above does
# not see a draw made inside a property or a change to the reseeding;
# this one sees both.
_WHOLE_STREAM_SHA256 = (
    "884db93892d00fb0bc4e5391e9e8a8e4ff31c2abe84c82209fa882f9021f0914"
)


def test_every_property_draws_a_fixed_stream(monkeypatch):
    h = hashlib.sha256()

    def hashing(fn):
        def wrapped(rng, cfg):
            try:
                return fn(rng, cfg)
            finally:
                h.update(repr(rng.getstate()).encode())

        return wrapped

    monkeypatch.setattr(
        fuzzing, "PROPERTIES", [(name, hashing(fn)) for name, fn in PROPERTIES]
    )
    report, _ = run_fuzz(FuzzConfig(seed=1, trials=30))
    assert report["failures"] == 0
    assert h.hexdigest() == _WHOLE_STREAM_SHA256


def test_below_draws_what_randrange_draws():
    # powers of two and their neighbours reject the most draws
    sizes = [*range(1, 40), *(2**k + d for k in range(5, 70, 8) for d in (-1, 0, 1))]
    ours, theirs = random.Random(5), random.Random(5)
    for n in sizes:
        for _ in range(20):
            assert fuzzing._below(ours, n) == theirs.randrange(n)
        assert ours.getstate() == theirs.getstate()
    with pytest.raises(ValueError):
        fuzzing._below(ours, 0)


# every kind of value, with denominators 1, 2 and 3
_POOL = [
    MINUS_INF,
    ExtReal(Fraction(-3, 2)),
    ExtReal(-1),
    ZERO,
    ExtReal(Fraction(1, 3)),
    ExtReal(2),
    PLUS_INF,
]


def test_sign_class_is_the_literal_class():
    values = [MINUS_INF, ExtReal(-1), ZERO, ExtReal(1), PLUS_INF]
    tables = [
        fuzzing._vector_table(MaximalPartialMeasure(FiniteSpace.discrete(points), atoms))
        for points in ("a", "ab", "abc")
        for atoms in product(values, repeat=len(points))
    ]
    # tables no atom vector gives, as a wrong library might read them
    tables += map(list, product([None, ExtReal(-1), ZERO, ExtReal(1)], repeat=4))
    for table in tables:
        plus, minus = sign_classes([plain(v) for v in table])
        for sign, literal in ((1, plus), (-1, minus)):
            member = fuzzing._sign_class(table, sign)
            assert [m for m, ok in enumerate(member) if ok] == literal


def test_additivity_induction_is_the_literal_definition():
    # every table of two atoms over the pool, additive or not
    for table in map(list, product(_POOL, repeat=4)):
        v = [plain(x) for x in table]
        # v(empty) = 0, and v(A | B) = v(A) + v(B), well-posed, for every
        # disjoint A and B (total is None where the sum is ill-posed)
        additive = v[0] == 0 and all(
            total([v[a], v[b]]) == v[a | b]
            for a in range(4)
            for b in range(4)
            if not a & b
        )
        try:
            bad = fuzzing._nonadditive_set(table)
        except IllPosedError as exc:
            assert str(exc) == "+inf + -inf is not well-posed"
            assert not additive
            continue
        assert (bad is None) == additive
        if bad == 0:
            assert v[0] != 0
        elif bad is not None:
            # the sets the failure names break additivity themselves
            low = bad & -bad
            assert total([v[low], v[bad ^ low]]) != v[bad]


def test_instances_reach_every_size_up_to_the_cap():
    cfg = FuzzConfig(seed=0, max_atoms=ENUMERATION_CAP)
    sizes = {generate_random_instance(cfg, t)[0].space.n_atoms for t in range(200)}
    assert sizes == set(range(1, ENUMERATION_CAP + 1))


def test_infinite_pool_produces_restricted_domains():
    cfg = FuzzConfig(seed=3, trials=1)
    restricted = 0
    for trial in range(200):
        mu, _ = generate_random_instance(cfg, trial)
        if mu.space.n_atoms >= 2 and any(
            not mu.in_domain_mask(m) for m in range(1 << mu.space.n_atoms)
        ):
            restricted += 1
    assert restricted > 0


def test_run_fuzz_green_and_deterministic():
    cfg = FuzzConfig(seed=11, trials=15, max_atoms=5)
    report1, cx1 = run_fuzz(cfg)
    report2, cx2 = run_fuzz(cfg)
    assert report1 == report2
    assert cx1 == cx2 == []
    assert report1["failures"] == 0
    assert len(report1["properties"]) == len(PROPERTIES)
    assert all(p["trials"] == 15 for p in report1["properties"])


def test_longer_run_reaches_the_witness_and_extension_loops(monkeypatch):
    # the suite's other fuzz runs draw no set outside the domain, so
    # without this one these loops of the corollary 1 and maximality
    # properties would never run
    calls = {"corollary1_witness": 0, "refused extensions": 0}
    witness = fuzzing.corollary1_witness
    validate = fuzzing.validate_partial

    def counting_witness(*args):
        calls["corollary1_witness"] += 1
        return witness(*args)

    def counting_refusals(*args):
        try:
            return validate(*args)
        except MixedInfinitiesInDomainSetError:
            calls["refused extensions"] += 1
            raise

    monkeypatch.setattr(fuzzing, "corollary1_witness", counting_witness)
    monkeypatch.setattr(fuzzing, "validate_partial", counting_refusals)
    report, counterexamples = run_fuzz(FuzzConfig(seed=1, trials=200))
    assert report["failures"] == 0
    assert counterexamples == []
    assert all(calls.values()), calls


def test_a_wrong_library_answer_fails_its_properties(monkeypatch):
    # the real properties through _fail: is_maximal answers the opposite
    is_maximal = fuzzing.is_maximal
    monkeypatch.setattr(fuzzing, "is_maximal", lambda pm: not is_maximal(pm))
    report, counterexamples = run_fuzz(FuzzConfig(seed=1, trials=3))
    failing = {p["name"]: p["failures"] for p in report["properties"] if p["failures"]}
    assert failing == {
        "maximality_characterization": 3,
        "difference_of_positive_measures": 3,
    }
    first, second = counterexamples
    assert first["detail"] == "characterization disagrees with is_maximal"
    kind, mu = jsonio.load_instance(first["instance"]["mu"])
    assert kind == "maximal" and isinstance(mu, MaximalPartialMeasure)
    assert second["detail"] == "difference maximality criterion failed"
    assert second["instance"] == {}


def test_a_wrong_set_value_fails_additivity(monkeypatch):
    # a measure that is 1 too large on every set of two or more atoms is
    # not additive, and the additivity property must say so on every
    # trial.  An infinite value would absorb the 1 (trial 2 draws
    # a=0, b=-inf, c=-inf), so there the wrong value is 1 itself.
    class OffByOne(fuzzing.Measure):
        __slots__ = ()

        def evaluate(self, a):
            v = super().evaluate(a)
            if not a.mask & (a.mask - 1):
                return v
            return v + ExtReal(1) if v.is_finite else ExtReal(1)

    monkeypatch.setattr(fuzzing, "Measure", OffByOne)
    report, counterexamples = run_fuzz(FuzzConfig(seed=1, trials=3))
    failures = {p["name"]: p["failures"] for p in report["properties"]}
    assert failures["measure_additivity_and_monotonicity"] == 3
    (detail,) = [
        c["detail"]
        for c in counterexamples
        if c["property"] == "measure_additivity_and_monotonicity"
    ]
    assert detail.startswith("additivity failed on")


# ---------------------------------------------------------------------------
# each property fails when the library answers wrongly
#
# Each case installs a wrong answer and runs its property alone (at index
# 0, so on its own seeded stream) for 20 trials.  The failure count and
# the first counterexample's detail are pinned: a check that fires later,
# on fewer trials or with another text means the property was weakened.


def _patch(name, wrong):
    def install(monkeypatch):
        monkeypatch.setattr(fuzzing, name, wrong)

    return install


class _NegatedDomain(MaximalPartialMeasure):
    __slots__ = ()

    def in_domain_mask(self, mask):
        return not super().in_domain_mask(mask)


class _Shrinking(PositiveMeasure):
    # larger sets get smaller values
    __slots__ = ()

    def evaluate(self, a):
        return ExtReal(-a.mask.bit_count())


class _StrayMinusSingleton:
    singleton_b = staticmethod(SymbolicSet.singleton_b)

    @staticmethod
    def singleton_bc(i):
        # random members list ids below 10, so id 100 lies outside a
        # finite half
        return SymbolicSet.singleton_bc(i + 100)


def _stray_witness(c):
    decision = sym_in_f_plus(c)
    if decision.member or c.bc_part.kind != FINITE:
        return decision
    return FPlusDecision(False, SymbolicSet.singleton_bc(c.bc_part.fresh_id()))


class _MultiAtomSetsNegative(MaximalPartialMeasure):
    # every set of two or more atoms reads -1, so no union of two
    # nonnegative atoms stays in the nonnegative class
    __slots__ = ()

    def mask_sum(self, mask):
        return ExtReal(-1) if mask & (mask - 1) else super().mask_sum(mask)


class _UnionsOffByOne:
    # a finite set of two or more atoms reads its atom sum plus _off
    __slots__ = ()
    _off = ExtReal(1)

    def mask_sum(self, mask):
        v = super().mask_sum(mask)
        return v + self._off if mask & (mask - 1) and v.is_finite else v


class _UnionsReadMore(_UnionsOffByOne, MaximalPartialMeasure):
    __slots__ = ()


class _UnionsReadLess(_UnionsOffByOne, PositiveMeasure):
    __slots__ = ()
    _off = ExtReal(-1)


class _FiniteBesidePlusInf(PositiveMeasure):
    # reads 0 on a set that also holds a +inf atom of another vector
    __slots__ = ("other_inf",)

    def __init__(self, vector, other):
        super().__init__(vector.space, vector.atom_values)
        self.other_inf = other.pos_inf_mask

    def mask_sum(self, mask):
        if mask & self.other_inf and mask & self.pos_inf_mask:
            return ZERO
        return super().mask_sum(mask)


def _finite_sets_only(m1, m2):
    # a difference that drops every set with an infinite atom
    d = diff_measures(m1, m2)
    finite = d.space.full_mask ^ (m1.pos_inf_mask | m2.pos_inf_mask)
    return PartialMeasure(d.space, [finite], d.atom_values)


def _one_part_finite_outside_the_domain(mu):
    # the identity holds on the domain, but outside it only the positive
    # part is +inf: the negative part reads 0 there
    d = jordan_decompose_detailed(mu)
    return d._replace(mu_minus=_FiniteBesidePlusInf(d.mu_minus, d.mu_plus))


class _PairsReadTheirDifference(fuzzing.Measure):
    # a set of two finite atoms of different values reads the first
    # atom's value minus the second's
    __slots__ = ()

    def evaluate(self, a):
        if a.mask.bit_count() == 2:
            low = a.mask & -a.mask
            first, second = self.mask_sum(low), self.mask_sum(a.mask ^ low)
            if first.is_finite and second.is_finite and first != second:
                return first - second
        return super().evaluate(a)


class _TriplesReadMore(fuzzing.Measure):
    # a finite set of three or more atoms reads its atom sum plus 1: every
    # atom and pair is right, so the check must add a pair to an atom
    __slots__ = ()

    def evaluate(self, a):
        v = super().evaluate(a)
        return v + ExtReal(1) if a.mask.bit_count() >= 3 and v.is_finite else v


class _EmptySetReadsOne(fuzzing.Measure):
    __slots__ = ()

    def evaluate(self, a):
        return super().evaluate(a) if a.mask else ExtReal(1)


class _OppositeInfinitiesCancel(fuzzing.Measure):
    # when the first atom is infinite, an infinite atom at an odd index
    # reads the opposite infinity, and a set holding both reads 0
    __slots__ = ()

    def evaluate(self, a):
        flip = not self.atom_values[0].is_finite
        values = [
            -v if flip and i % 2 and not v.is_finite else v
            for i, v in enumerate(self.atom_values)
            if a.mask >> i & 1
        ]
        if PLUS_INF in values and MINUS_INF in values:
            return ZERO
        return extreal.sum(values)


WRONG_ANSWERS = [
    (
        "total_measure_hahn_split",
        20,
        _patch(
            "hahn_decomposition",
            lambda m: (MeasurableSet(m.space, 0), MeasurableSet(m.space, 0)),
        ),
        "positive/negative parts do not partition the space",
    ),
    (
        "total_measure_hahn_split",
        20,
        _patch("hahn_decomposition", lambda m: hahn_decomposition(m)[::-1]),
        "a subset of the positive part is negative",
    ),
    (
        "finite_scale_hahn_split",
        20,
        _patch("hahn_partial", lambda mu: hahn_partial(mu)[::-1]),
        "positive side fails class membership",
    ),
    (
        "absolutely_continuous_split",
        20,
        _patch("ess_sup", lambda family, prob: ess_sup(family, prob).complement()),
        "essential supremum left the nonnegative class",
    ),
    (
        "absolute_continuity_criteria_agree",
        20,
        _patch("is_abs_continuous", lambda mu, prob: not is_abs_continuous(mu, prob)),
        "atom criterion disagrees with the quantified criterion",
    ),
    (
        # additive, so only the comparison with the positive part can fail
        "sup_formula_is_additive",
        18,
        _patch("jordan_sup", lambda mu, a, side: jordan_sup(mu, a, "minus")),
        "the supremum formula disagrees with the positive part",
    ),
    (
        "integration_domain_is_quasi_integrability",
        20,
        _patch(
            "mu_xi", lambda xi, prob: _NegatedDomain(xi.space, mu_xi(xi, prob).atom_values)
        ),
        "quasi-integrability domain is wrong on mask 0",
    ),
    (
        "measure_additivity_and_monotonicity",
        17,
        _patch("PositiveMeasure", _Shrinking),
        "positive measure is not monotone",
    ),
    (
        "decomposition_identity",
        3,
        _patch("jordan_decompose_detailed", _one_part_finite_outside_the_domain),
        "outside the domain both parts must be +inf",
    ),
    (
        "outside_domain_witnesses",
        3,
        _patch(
            "corollary1_witness",
            lambda mu, a: (corollary1_witness(mu, a)[0], a.space.full_set()),
        ),
        "witnesses are not subsets",
    ),
    (
        "outside_domain_witnesses",
        3,
        _patch(
            "corollary1_witness",
            lambda mu, a: (corollary1_witness(mu, a)[0], MeasurableSet(a.space, 0)),
        ),
        "witness values are not the infinities",
    ),
    (
        # a valid maximal measure with the same domain and other values
        "maximality_characterization",
        13,
        _patch(
            "maximalize",
            lambda pm: MaximalPartialMeasure(
                pm.space, [-v for v in maximalize(pm).atom_values]
            ),
        ),
        "maximalization does not extend the original",
    ),
    (
        "nonnegative_class_union_closure",
        6,
        _patch("MaximalPartialMeasure", _MultiAtomSetsNegative),
        "union of nonnegative-class members left the class",
    ),
    (
        "symbolic_decision_matches_oracle",
        5,
        _patch("sym_in_f_plus", _stray_witness),
        "missing or stray counterexample witness",
    ),
    (
        "symbolic_fragment_maximality",
        4,
        _patch("SymbolicSet", _StrayMinusSingleton),
        "infinite singletons are not inside the undefined set",
    ),
    (
        "disjoint_families_sum_equally",
        2,
        _patch("MaximalPartialMeasure", _UnionsReadMore),
        "disjoint families over",
    ),
    (
        # the candidate dominates on every atom, so check_minimality passes
        "decomposition_is_minimal",
        6,
        _patch("PositiveMeasure", _UnionsReadLess),
        "extremal property failed on side plus",
    ),
    (
        "difference_of_positive_measures",
        20,
        _patch("diff_measures", lambda m1, m2: diff_measures(m2, m1)),
        "difference value is wrong on",
    ),
    (
        "difference_of_positive_measures",
        9,
        _patch("diff_measures", _finite_sets_only),
        "difference domain is wrong on",
    ),
    (
        # the first wrong pair, {b} and {d}, reads 3 - 4
        "measure_additivity_and_monotonicity",
        13,
        _patch("Measure", _PairsReadTheirDifference),
        "additivity failed on 'b' and 'd'",
    ),
    (
        # the sum of +inf and -inf is ill-posed, though their union reads 0
        "measure_additivity_and_monotonicity",
        1,
        _patch("Measure", _OppositeInfinitiesCancel),
        "unexpected IllPosedError: +inf + -inf is not well-posed",
    ),
    (
        # trial 0 draws an infinite 'a', so {b, c, d} is the first finite triple
        "measure_additivity_and_monotonicity",
        10,
        _patch("Measure", _TriplesReadMore),
        "additivity failed on 'b' and 'c,d'",
    ),
    (
        "measure_additivity_and_monotonicity",
        20,
        _patch("Measure", _EmptySetReadsOne),
        "the empty set reads 1, not 0",
    ),
]


@pytest.mark.parametrize(
    "name, failures, install, detail",
    WRONG_ANSWERS,
    ids=[f"{case[0]}-{i}" for i, case in enumerate(WRONG_ANSWERS)],
)
def test_a_wrong_library_answer_fails_its_property(
    monkeypatch, name, failures, install, detail
):
    (entry,) = [p for p in PROPERTIES if p[0] == name]
    monkeypatch.setattr(fuzzing, "PROPERTIES", [entry])
    install(monkeypatch)
    report, counterexamples = run_fuzz(FuzzConfig(seed=1, trials=20))
    assert report["failures"] == failures
    assert counterexamples[0]["detail"].startswith(detail)


def test_property_names_are_unique():
    names = [name for name, _ in PROPERTIES]
    assert len(names) == len(set(names))


def test_failure_path_records_first_counterexample(monkeypatch):
    mu = MaximalPartialMeasure(FiniteSpace.discrete("ab"), [ExtReal(1), MINUS_INF])
    calls = []

    def violates(rng, cfg):
        raise PropertyViolation(
            "broken invariant", {"mu": jsonio.wrap_instance("maximal", mu)}
        )

    def crashes(rng, cfg):
        return 1 // 0

    def fails_twice(rng, cfg):
        calls.append(None)
        if len(calls) in (2, 4):
            raise PropertyViolation(f"call {len(calls)}")

    monkeypatch.setattr(
        fuzzing,
        "PROPERTIES",
        [("violates", violates), ("crashes", crashes), ("fails_twice", fails_twice)],
    )
    report, counterexamples = run_fuzz(FuzzConfig(seed=7, trials=4, max_atoms=3))
    assert report == {
        "seed": 7,
        "trials": 4,
        "max_atoms": 3,
        "failures": 10,
        "properties": [
            {"name": "violates", "trials": 4, "failures": 4},
            {"name": "crashes", "trials": 4, "failures": 4},
            {"name": "fails_twice", "trials": 4, "failures": 2},
        ],
    }
    assert counterexamples == [
        {
            "property": "violates",
            "trial": 0,
            "seed": 7,
            "detail": "broken invariant",
            "instance": {
                "mu": {
                    "kind": "maximal",
                    "payload": {
                        "space": {
                            "points": ["a", "b"],
                            "generators": [["a"], ["b"]],
                        },
                        "atom_values": {"a": "1", "b": "-inf"},
                    },
                }
            },
        },
        {
            "property": "crashes",
            "trial": 0,
            "seed": 7,
            "detail": "unexpected ZeroDivisionError: integer division or modulo by zero",
            "instance": {},
        },
        {
            "property": "fails_twice",
            "trial": 1,
            "seed": 7,
            "detail": "call 2",
            "instance": {},
        },
    ]
