import random

import pytest
from hypothesis import given, strategies as st

from partmeas import (
    FiniteSpace,
    MeasurableSet,
    generate_algebra,
    trace_algebra,
)
from partmeas.errors import (
    NotMeasurableError,
    SpaceMismatchError,
    TooLargeError,
    UnknownPointError,
)
from partmeas.spaces import ENUMERATION_CAP, check_enumerable, iter_submasks
from oracles import atoms_of_closed_family, closure_of_family


def as_blocks(space):
    return sorted(frozenset(space.atom_points(i)) for i in range(space.n_atoms))


def test_generate_pair_example():
    # expected atoms derived by closing {{a,b}} under complement and union
    family = closure_of_family("abc", [{"a", "b"}])
    assert atoms_of_closed_family(family) == {frozenset("ab"), frozenset("c")}
    space = generate_algebra(["a", "b", "c"], [["a", "b"]])
    assert as_blocks(space) == [frozenset("ab"), frozenset("c")]


def test_generate_trivial_and_discrete():
    assert as_blocks(generate_algebra(["a", "b"], [])) == [frozenset("ab")]
    discrete = generate_algebra(list("abcd"), [["a"], ["b"], ["c"], ["d"]])
    assert discrete.n_atoms == 4
    assert discrete == FiniteSpace.discrete("abcd")


def test_generate_unknown_point():
    with pytest.raises(UnknownPointError):
        generate_algebra(["a", "b"], [["a", "z"]])


def test_duplicate_points_rejected():
    with pytest.raises(ValueError):
        FiniteSpace.discrete(["a", "a"])


SPACE4 = FiniteSpace.discrete("abcd")


@pytest.mark.parametrize(
    "call, error, text",
    [
        (lambda: FiniteSpace(["a", 1], [1, 2]),
         TypeError, "point labels must be strings, got 1"),
        (lambda: FiniteSpace(["a"], [0, 1]), ValueError, "empty atom"),
        (lambda: FiniteSpace(["a", "b"], [3, 1]), ValueError, "atoms overlap"),
        (lambda: FiniteSpace(["a"], [3]),
         ValueError, "atom mentions an unknown point index"),
        (lambda: FiniteSpace(["a", "b"], [1]), ValueError, "atoms do not cover all points"),
        (lambda: SPACE4.atom_set(4), IndexError, "no atom 4"),
        (lambda: MeasurableSet(SPACE4, 16), ValueError, "atom mask 16 out of range"),
        (lambda: SPACE4.full_set().union(3), TypeError, "MeasurableSet required, got int"),
        (lambda: generate_algebra(["a", "a"]), ValueError, "duplicate point labels"),
        (lambda: trace_algebra(SPACE4, FiniteSpace.discrete("ab").full_set()),
         SpaceMismatchError, "set does not belong to this space"),
    ],
)
def test_error_branches(call, error, text):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == text


def test_repr_and_equality_with_other_types():
    space = generate_algebra(list("abc"), [["a", "c"]])
    assert repr(space) == "FiniteSpace({a,c}|{b})"
    assert space != "abc" and space.full_set() != space.full_mask


def test_set_equality_needs_the_same_space_and_mask():
    space = FiniteSpace.discrete("ab")
    assert MeasurableSet(space, 1) == MeasurableSet(FiniteSpace.discrete("ab"), 1)
    assert MeasurableSet(space, 1) != MeasurableSet(space, 2)
    assert MeasurableSet(space, 1) != MeasurableSet(FiniteSpace.discrete("ac"), 1)


def test_full_mask():
    assert FiniteSpace.discrete("abcd").full_mask == 0b1111
    # one bit per atom, not per point
    assert generate_algebra(list("abcd"), [["a", "c"]]).full_mask == 0b11
    assert generate_algebra(list("abc")).full_mask == 0b1
    assert FiniteSpace.discrete("").full_mask == 0
    assert generate_algebra([]).full_mask == 0


def test_equality_by_value():
    space = generate_algebra(list("abc"), [["a", "c"]])
    twin = FiniteSpace(("a", "b", "c"), [0b010, 0b101])
    assert twin is not space
    assert twin == space and hash(twin) == hash(space)
    assert space == space
    assert FiniteSpace.discrete("ab") == FiniteSpace.discrete("ab")
    # same atoms over other points, and other atoms over the same points
    assert space != generate_algebra(list("abd"), [["a", "d"]])
    assert space != FiniteSpace.discrete("abc")
    assert space != generate_algebra(list("abc"), [["a", "b"]])
    assert (space == 1) is False and (space != 1) is True


def test_boolean_operation_examples():
    space = FiniteSpace.discrete("abcd")
    empty = space.empty_set()
    assert empty.complement() == space.full_set()
    left = space.set_from_points(["a", "b"])
    right = space.set_from_points(["b", "c"])
    assert (left & right) == space.set_from_points(["b"])
    for m in range(16):
        assert empty.is_subset(MeasurableSet(space, m))


def test_space_mismatch():
    a = FiniteSpace.discrete("ab").full_set()
    b = FiniteSpace.discrete("abc").full_set()
    with pytest.raises(SpaceMismatchError):
        a.union(b)


def test_set_from_points_requires_atom_union():
    space = generate_algebra(["a", "b", "c"], [["a", "b"]])
    with pytest.raises(NotMeasurableError):
        space.set_from_points(["a"])
    assert space.set_from_points(["a", "b"]).atom_indices() == (0,)


def test_trace_identity_and_empty():
    space = generate_algebra(list("abcd"), [["a", "b"], ["c"]])
    assert trace_algebra(space, space.full_set()) == space
    traced = trace_algebra(space, space.empty_set())
    assert traced.n_atoms == 0
    assert traced.n_points == 0


def test_trace_derived_example():
    # oracle: intersect every member of the discrete algebra with {a, c}
    # and read off the minimal nonempty sets
    family = closure_of_family("abcd", [{p} for p in "abcd"])
    traced_family = {s & frozenset("ac") for s in family}
    assert atoms_of_closed_family(traced_family) == {
        frozenset("a"),
        frozenset("c"),
    }
    space = FiniteSpace.discrete("abcd")
    traced = trace_algebra(space, space.set_from_points(["a", "c"]))
    assert as_blocks(traced) == [frozenset("a"), frozenset("c")]


def test_enumerate_counts():
    for space, n_sets in (
        (generate_algebra(["a"], []), 2),
        (FiniteSpace.discrete("ab"), 4),
        (FiniteSpace.discrete("abcdef"), 64),
    ):
        assert len(list(iter_submasks(space.full_mask))) == n_sets


def test_enumerate_cap():
    with pytest.raises(TooLargeError, match="^space has 21 atoms; enumeration capped"):
        check_enumerable(ENUMERATION_CAP + 1)
    check_enumerable(ENUMERATION_CAP)  # the cap itself is allowed


def test_enumerate_canonical_order():
    space = FiniteSpace.discrete("abc")
    assert list(iter_submasks(space.full_mask)) == list(range(8))


@given(st.integers(min_value=0, max_value=63), st.integers(min_value=0, max_value=63))
def test_de_morgan(m1, m2):
    space = FiniteSpace.discrete("abcdef")
    a = MeasurableSet(space, m1)
    b = MeasurableSet(space, m2)
    assert (a | b).complement() == a.complement() & b.complement()
    assert (a & b).complement() == a.complement() | b.complement()


@given(st.integers())
def test_generated_algebra_closure_exhaustive(seed):
    rng = random.Random(seed)
    points = list("abcdef")[: rng.randint(1, 6)]
    gens = [rng.sample(points, rng.randint(0, len(points))) for _ in range(rng.randint(0, 3))]
    space = generate_algebra(points, gens)
    family = {
        frozenset(MeasurableSet(space, m).labels())
        for m in iter_submasks(space.full_mask)
    }
    # closed under complement and union, contains the generators
    assert family == closure_of_family(points, [frozenset(g) for g in gens])
    universe = frozenset(points)
    for s in family:
        assert universe - s in family
        for t in family:
            assert s | t in family


def test_key_and_labels_ordering():
    space = generate_algebra(["d", "a", "c", "b"], [["d", "b"]])
    s = space.set_from_points(["d", "b"])
    assert s.labels() == ("b", "d")
    assert s.key() == "b,d"
    assert space.empty_set().key() == ""


def _brute_set_from_points(space, labels):
    """The definition: the atoms lying inside the listed points, which must
    cover them exactly; an unlisted label is reported first."""
    for lab in labels:
        if lab not in space.points:
            return UnknownPointError, f"unknown point {lab!r}"
    listed = set(labels)
    mask = 0
    covered = set()
    for i in range(space.n_atoms):
        block = set(space.atom_points(i))
        if block <= listed:
            mask |= 1 << i
            covered |= block
    if covered != listed:
        text = f"{sorted(labels)} is not a union of atoms of this algebra"
        return NotMeasurableError, text
    return MeasurableSet(space, mask)


@pytest.mark.parametrize("seed", range(40))
def test_set_from_points_matches_the_definition(seed):
    rng = random.Random(seed)
    points = [f"x{i}" for i in range(rng.randint(1, 9))]
    gens = [
        rng.sample(points, rng.randint(0, len(points)))
        for _ in range(rng.randint(0, 4))
    ]
    space = generate_algebra(points, gens)
    for _ in range(30):
        labels = rng.sample(points, rng.randint(0, len(points)))
        labels += rng.sample(labels, rng.randint(0, len(labels)))  # repeats
        if rng.random() < 0.1:
            labels.insert(rng.randint(0, len(labels)), "stranger")
        rng.shuffle(labels)
        expected = _brute_set_from_points(space, labels)
        if isinstance(expected, MeasurableSet):
            assert space.set_from_points(labels) == expected
        else:
            cls, text = expected
            with pytest.raises(cls) as info:
                space.set_from_points(labels)
            assert str(info.value) == text
