"""JSON payloads for every value kind, plus the instance-file envelope.

All files are JSON objects.  An instance file wraps a payload with its
kind: {"kind": "maximal", "payload": {...}}.  Extra top-level keys (the
CLI's version banner, validation flags) are ignored on input, so every
emitted instance can be fed straight back in.

Payload shapes:

* space: {"points": [...], "generators": [[...], ...]}; omitting
  "generators" means the discrete algebra (all singletons), while an
  explicit empty list generates the trivial one-atom algebra.
* measure / maximal / randomvariable: {"space": ..., "values" /
  "atom_values": {"<atom label>": "<value>"}} with one entry per atom,
  keyed by the label of the atom's smallest point.
* partial: {"space": ..., "domain": [["a","b"], ...], "values":
  {"<set key>": "<value>"}} where a set key is the comma-joined sorted
  point list ("" for the empty set).
* probability: {"space": ..., "probs": {"<atom label>": "<rational>"}}.

Values use the exact text encoding of the arithmetic module.  Shape
problems raise :class:`SchemaError`; semantic problems (mixed
infinities, additivity violations, bad probabilities) surface as the
domain errors of the constructing module.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from . import extreal
from .density import Probability, RandomVariable
from .errors import SchemaError
from .measure import AtomVector, Measure
from .partial import MaximalPartialMeasure, PartialMeasure, maximalize, validate_partial
from .spaces import FiniteSpace, MeasurableSet, generate_algebra

__all__ = [
    "space_payload",
    "parse_space",
    "measure_payload",
    "parse_measure",
    "maximal_payload",
    "parse_maximal",
    "partial_payload",
    "parse_partial",
    "probability_payload",
    "parse_probability",
    "randomvariable_payload",
    "parse_randomvariable",
    "wrap_instance",
    "load_instance",
    "INSTANCE_KINDS",
]


def _require(obj: Any, key: str, kind: type, where: str) -> Any:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    if key not in obj:
        raise SchemaError(f"{where}: missing key {key!r}")
    value = obj[key]
    if not isinstance(value, kind):
        raise SchemaError(f"{where}: {key!r} must be {kind.__name__}")
    return value


def _parse_value(
    text: Any,
    where: str,
    parse: Callable[[str], Any] = extreal.parse,
    noun: str = "values",
) -> Any:
    """``parse(text)``, with a SchemaError naming ``where`` on bad input."""
    if not isinstance(text, str):
        raise SchemaError(f"{where}: {noun} must be encoded as strings")
    try:
        return parse(text)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def space_payload(space: FiniteSpace) -> dict:
    return {
        "points": list(space.points),
        "generators": [list(space.atom_points(i)) for i in range(space.n_atoms)],
    }


def parse_space(obj: Any) -> FiniteSpace:
    points = _require(obj, "points", list, "space")
    for p in points:
        if not isinstance(p, str):
            raise SchemaError("space: points must be strings")
    if "generators" not in obj:
        return FiniteSpace.discrete(points)
    gens = obj["generators"]
    if not isinstance(gens, list) or any(not isinstance(g, list) for g in gens):
        raise SchemaError("space: generators must be a list of point lists")
    for g in gens:
        for lab in g:
            if not isinstance(lab, str):
                raise SchemaError("space: generator entries must be strings")
    try:
        return generate_algebra(points, gens)
    except ValueError as exc:
        raise SchemaError(f"space: {exc}") from None


def _vector_codec(
    kind: str,
    cls: type[AtomVector],
    key: str,
    parse_value: Callable[[Any, str], Any] = _parse_value,
) -> tuple[Callable[[Any], AtomVector], Callable[[AtomVector], dict]]:
    """Parser and payload builder for an atom-vector kind stored under
    ``key``, reading each atom's entry with ``parse_value``."""

    def parse(obj: Any) -> AtomVector:
        space = parse_space(_require(obj, "space", dict, kind))
        table = _require(obj, key, dict, kind)
        labels = space.atom_labels
        if set(table) != set(labels):
            raise SchemaError(
                f"{kind}: {key!r} must have one entry per atom {sorted(labels)}"
            )
        return cls(space, [parse_value(table[lab], kind) for lab in labels])

    def payload(vec: AtomVector) -> dict:
        labels = vec.space.atom_labels
        return {
            "space": space_payload(vec.space),
            key: {lab: str(v) for lab, v in zip(labels, vec.atom_values)},
        }

    return parse, payload


parse_measure, measure_payload = _vector_codec("measure", Measure, "values")
parse_maximal, maximal_payload = _vector_codec(
    "maximal", MaximalPartialMeasure, "atom_values"
)
parse_randomvariable, randomvariable_payload = _vector_codec(
    "randomvariable", RandomVariable, "values"
)
# probabilities are finite: "+inf" is a schema error, not a value
parse_probability, probability_payload = _vector_codec(
    "probability",
    Probability,
    "probs",
    partial(_parse_value, parse=extreal.parse_rational, noun="probabilities"),
)


def partial_payload(pm: PartialMeasure) -> dict:
    sets = pm.domain_sets()
    labels = [s.labels() for s in sets]
    # a domain set's value is its atom sum under any maximal extension;
    # pm.evaluate would test each set against every maximal domain set
    atoms = maximalize(pm)
    return {
        "space": space_payload(pm.space),
        "domain": [list(lab) for lab in labels],
        # a set's key is its labels joined, as MeasurableSet.key() builds it
        "values": {
            ",".join(lab): str(atoms.mask_sum(s.mask)) for s, lab in zip(sets, labels)
        },
    }


def parse_partial(obj: Any) -> PartialMeasure:
    space = parse_space(_require(obj, "space", dict, "partial"))
    domain_lists = _require(obj, "domain", list, "partial")
    raw_values = _require(obj, "values", dict, "partial")
    sets: dict[str, MeasurableSet] = {}
    for entry in domain_lists:
        if not isinstance(entry, list) or any(not isinstance(x, str) for x in entry):
            raise SchemaError("partial: domain entries must be lists of point labels")
        s = space.set_from_points(entry)
        sets[s.key()] = s
    if set(raw_values) != set(sets):
        raise SchemaError("partial: values must be keyed by exactly the domain sets")
    values = {
        s: _parse_value(raw_values[key], "partial") for key, s in sets.items()
    }
    return validate_partial(space, sets.values(), values)


INSTANCE_KINDS: dict[str, tuple[Callable[[Any], Any], Callable[[Any], dict]]] = {
    "space": (parse_space, space_payload),
    "measure": (parse_measure, measure_payload),
    "partial": (parse_partial, partial_payload),
    "maximal": (parse_maximal, maximal_payload),
    "probability": (parse_probability, probability_payload),
    "randomvariable": (parse_randomvariable, randomvariable_payload),
}


def wrap_instance(kind: str, value: Any) -> dict:
    """The instance-file envelope for an in-memory value."""
    if kind not in INSTANCE_KINDS:
        raise SchemaError(f"unknown instance kind {kind!r}")
    return {"kind": kind, "payload": INSTANCE_KINDS[kind][1](value)}


def load_instance(obj: Any) -> tuple[str, Any]:
    """Parse an instance envelope; extra top-level keys are ignored."""
    if not isinstance(obj, dict):
        raise SchemaError("instance file must be a JSON object")
    kind = obj.get("kind")
    if kind not in INSTANCE_KINDS:
        raise SchemaError(
            f"instance 'kind' must be one of {sorted(INSTANCE_KINDS)}, got {kind!r}"
        )
    payload = obj.get("payload")
    if not isinstance(payload, dict):
        raise SchemaError("instance 'payload' must be an object")
    return kind, INSTANCE_KINDS[kind][0](payload)
