from fractions import Fraction

import pytest

from partmeas import (
    ExtReal,
    FiniteSpace,
    MINUS_INF,
    MaximalPartialMeasure,
    Measure,
    PLUS_INF,
    Probability,
    RandomVariable,
    ZERO,
    restrict_to,
)
from partmeas import jsonio
from partmeas.errors import MixedInfinitiesError, SchemaError

E = ExtReal


def test_space_roundtrip():
    space = jsonio.parse_space(
        {"points": ["a", "b", "c"], "generators": [["a", "b"]]}
    )
    assert space.n_atoms == 2
    again = jsonio.parse_space(jsonio.space_payload(space))
    assert again == space


def test_space_omitted_generators_means_discrete():
    space = jsonio.parse_space({"points": ["a", "b", "c"]})
    assert space == FiniteSpace.discrete("abc")


def test_space_empty_generators_means_trivial():
    space = jsonio.parse_space({"points": ["a", "b", "c"], "generators": []})
    assert space.n_atoms == 1


def test_measure_roundtrip_and_atom_labels():
    space = jsonio.parse_space(
        {"points": ["a", "b", "c"], "generators": [["b", "c"]]}
    )
    m = Measure(space, [E(Fraction(1, 3)), PLUS_INF])
    payload = jsonio.measure_payload(m)
    # atoms are labelled by their smallest point
    assert set(payload["values"]) == {"a", "b"}
    assert jsonio.parse_measure(payload) == m


def test_measure_semantic_error_is_domain_error():
    payload = {
        "space": {"points": ["a", "b"]},
        "values": {"a": "+inf", "b": "-inf"},
    }
    with pytest.raises(MixedInfinitiesError):
        jsonio.parse_measure(payload)


def test_measure_schema_errors():
    with pytest.raises(SchemaError):
        jsonio.parse_measure({"space": {"points": ["a"]}, "values": {"a": "1.5"}})
    with pytest.raises(SchemaError):
        jsonio.parse_measure({"space": {"points": ["a"]}, "values": {}})
    with pytest.raises(SchemaError):
        jsonio.parse_measure({"space": {"points": ["a"]}, "values": {"a": "0", "b": "0"}})


def test_maximal_roundtrip():
    space = FiniteSpace.discrete("abcd")
    mu = MaximalPartialMeasure(space, [E(Fraction(3, 2)), E(-2), PLUS_INF, MINUS_INF])
    assert jsonio.parse_maximal(jsonio.maximal_payload(mu)) == mu


def test_partial_roundtrip():
    space = FiniteSpace.discrete("abc")
    mu = MaximalPartialMeasure(space, [E(1), MINUS_INF, ZERO])
    pm = restrict_to(mu, [space.set_from_points(["a", "b"])])
    payload = jsonio.partial_payload(pm)
    assert payload["values"][""] == "0"
    assert payload["values"]["a,b"] == "-inf"
    assert jsonio.parse_partial(payload) == pm


def test_partial_values_must_match_domain():
    payload = {
        "space": {"points": ["a", "b"]},
        "domain": [[], ["a"]],
        "values": {"": "0"},
    }
    with pytest.raises(SchemaError):
        jsonio.parse_partial(payload)


def test_probability_roundtrip():
    space = FiniteSpace.discrete("ab")
    p = Probability(space, [Fraction(1, 3), Fraction(2, 3)])
    payload = jsonio.probability_payload(p)
    assert payload["probs"] == {"a": "1/3", "b": "2/3"}
    assert jsonio.parse_probability(payload) == p


def test_probability_rejects_infinities():
    payload = {"space": {"points": ["a"]}, "probs": {"a": "+inf"}}
    with pytest.raises(SchemaError):
        jsonio.parse_probability(payload)


def test_probability_error_texts():
    space = {"points": ["a", "b"]}
    for probs, detail in (
        ({"a": "+inf", "b": "0"}, "probability: not a rational literal: '+inf'"),
        ({"a": "1/2", "b": "1/0"}, "probability: zero denominator: '1/0'"),
        ({"a": 1, "b": "0"}, "probability: probabilities must be encoded as strings"),
        ({"a": "1"}, "probability: 'probs' must have one entry per atom ['a', 'b']"),
    ):
        with pytest.raises(SchemaError) as info:
            jsonio.parse_probability({"space": space, "probs": probs})
        assert str(info.value) == detail
    with pytest.raises(SchemaError) as info:
        jsonio.parse_probability({"probs": {}})
    assert str(info.value) == "probability: missing key 'space'"


def test_randomvariable_roundtrip():
    space = FiniteSpace.discrete("ab")
    xi = RandomVariable(space, [PLUS_INF, E(Fraction(-1, 2))])
    assert jsonio.parse_randomvariable(jsonio.randomvariable_payload(xi)) == xi


def test_instance_envelope():
    space = FiniteSpace.discrete("ab")
    wrapped = jsonio.wrap_instance("space", space)
    kind, value = jsonio.load_instance(wrapped)
    assert kind == "space" and value == space
    # extra top-level keys are ignored so emitted results can be fed back
    kind, value = jsonio.load_instance({**wrapped, "banner": {"x": 1}, "valid": True})
    assert value == space


@pytest.mark.parametrize(
    "bad",
    [
        [],
        {},
        {"kind": "nope", "payload": {}},
        {"kind": "space"},
        {"kind": "space", "payload": 3},
    ],
)
def test_instance_envelope_rejects(bad):
    with pytest.raises(SchemaError):
        jsonio.load_instance(bad)


def test_direct_call_schema_texts():
    with pytest.raises(SchemaError, match="^space: expected an object$"):
        jsonio.parse_space([])
    with pytest.raises(SchemaError, match="^unknown instance kind 'nope'$"):
        jsonio.wrap_instance("nope", None)
