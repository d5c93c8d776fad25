import hashlib
import random

import pytest

from partmeas import (
    ExtReal,
    FiniteSpace,
    MINUS_INF,
    MaximalPartialMeasure,
    fuzzing,
    jsonio,
)
from partmeas.errors import InvalidConfigError, MixedInfinitiesInDomainSetError
from partmeas.fuzzing import (
    MAX_FUZZ_TRIALS,
    FuzzConfig,
    PROPERTIES,
    PropertyViolation,
    generate_random_instance,
    run_fuzz,
)
from partmeas.spaces import ENUMERATION_CAP


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        FuzzConfig(trials=0)
    with pytest.raises(InvalidConfigError):
        FuzzConfig(trials=MAX_FUZZ_TRIALS + 1)
    with pytest.raises(InvalidConfigError):
        FuzzConfig(max_atoms=0)
    with pytest.raises(InvalidConfigError):
        FuzzConfig(max_atoms=99)
    with pytest.raises(InvalidConfigError):
        FuzzConfig(seed=-1)


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
