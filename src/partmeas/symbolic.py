"""A symbolic two-half space on which no positive/negative split exists.

The model: an abstract infinite point set divided into two infinite
halves, a distinguished half and its complement.  A working set is
described per half, either as a finite list of point indices or as the
half minus a finite list (cofinite).  The modelled algebra contains
exactly the descriptions whose two halves have the same kind, both
finite or both cofinite.  That rule keeps the algebra closed under
complement and finite union/intersection while excluding the
distinguished half itself, even though every single point is a member.

The set function studied here is 0 on the empty set, +inf on nonempty
members inside the distinguished half, -inf on nonempty members inside
the complementary half, and undefined on sets meeting both halves.  It
is a maximal partial measure on the modelled algebra, and
:func:`hahn_failure_check` verifies symbolically that no member C has
every subset nonnegative while the complement has every subset
nonpositive: membership in the nonnegative class forces C to be a
finite subset of the distinguished half, and the complement of such a C
always contains a fresh distinguished-half singleton of value +inf.

This is a Boolean algebra of set descriptions, not a sigma-algebra; the
failure argument only involves singletons and complements, so nothing
is lost at this finitary scale.

The descriptions, and the fuzz suite's ``FuzzConfig``, are ``_Fields``
classes: equality, hash and repr come from their ``__slots__``.
"""

from __future__ import annotations

import random
from enum import Enum
from itertools import combinations
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple

from .errors import NotInAlgebraError, check_int_between

__all__ = [
    "FINITE",
    "COFINITE",
    "HalfSet",
    "SymbolicSet",
    "SymbolicValue",
    "sym_in_algebra",
    "mu3",
    "FPlusDecision",
    "sym_in_f_plus",
    "sym_in_f_minus",
    "f_plus_enumeration_oracle",
    "random_algebra_member",
    "hahn_failure_check",
    "MAX_HAHN_TRIALS",
]

FINITE = "finite"
COFINITE = "cofinite"


class _Fields:
    """Base of a value class whose ``__slots__`` are its fields: equal only
    to the same class with equal fields, hashed as the field tuple, and
    written ``Name(field=value, ...)``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class HalfSet(_Fields):
    """One half of a description: finite ids, or the half minus ids."""

    __slots__ = ("kind", "ids")

    def __init__(self, kind: str, ids: Iterable[int]):
        if kind not in (FINITE, COFINITE):
            raise ValueError(f"kind must be finite or cofinite, got {kind!r}")
        canon = tuple(sorted(set(ids)))
        if any(i < 0 for i in canon):
            raise ValueError("point indices must be nonnegative")
        self.kind = kind
        self.ids = canon

    @property
    def is_empty(self) -> bool:
        return self.kind == FINITE and not self.ids

    def complement(self) -> "HalfSet":
        return HalfSet(COFINITE if self.kind == FINITE else FINITE, self.ids)

    def union(self, other: "HalfSet") -> "HalfSet":
        a, b = set(self.ids), set(other.ids)
        if self.kind == FINITE and other.kind == FINITE:
            return HalfSet(FINITE, tuple(a | b))
        if self.kind == COFINITE and other.kind == COFINITE:
            return HalfSet(COFINITE, tuple(a & b))
        if self.kind == COFINITE:
            return HalfSet(COFINITE, tuple(a - b))
        return HalfSet(COFINITE, tuple(b - a))

    def intersect(self, other: "HalfSet") -> "HalfSet":
        return self.complement().union(other.complement()).complement()

    def fresh_id(self) -> int:
        """Smallest index inside a cofinite half (outside a finite one)."""
        i = 0
        while i in self.ids:
            i += 1
        return i

    def first_id(self) -> int:
        """Smallest member index of a nonempty half."""
        return self.ids[0] if self.kind == FINITE else self.fresh_id()


_EMPTY_HALF = HalfSet(FINITE, ())
_FULL_HALF = HalfSet(COFINITE, ())


class SymbolicSet(_Fields):
    """A set description: intersection with each of the two halves."""

    __slots__ = ("b_part", "bc_part")

    def __init__(self, b_part: HalfSet, bc_part: HalfSet):
        self.b_part = b_part
        self.bc_part = bc_part

    @classmethod
    def empty(cls) -> "SymbolicSet":
        return cls(_EMPTY_HALF, _EMPTY_HALF)

    @classmethod
    def whole(cls) -> "SymbolicSet":
        return cls(_FULL_HALF, _FULL_HALF)

    @classmethod
    def distinguished_half(cls) -> "SymbolicSet":
        """The half itself; representable but outside the algebra."""
        return cls(_FULL_HALF, _EMPTY_HALF)

    @classmethod
    def singleton_b(cls, i: int) -> "SymbolicSet":
        return cls(HalfSet(FINITE, (i,)), _EMPTY_HALF)

    @classmethod
    def singleton_bc(cls, i: int) -> "SymbolicSet":
        return cls(_EMPTY_HALF, HalfSet(FINITE, (i,)))

    @property
    def is_empty(self) -> bool:
        return self.b_part.is_empty and self.bc_part.is_empty

    def complement(self) -> "SymbolicSet":
        return SymbolicSet(self.b_part.complement(), self.bc_part.complement())

    def union(self, other: "SymbolicSet") -> "SymbolicSet":
        return SymbolicSet(
            self.b_part.union(other.b_part), self.bc_part.union(other.bc_part)
        )

    def intersect(self, other: "SymbolicSet") -> "SymbolicSet":
        return SymbolicSet(
            self.b_part.intersect(other.b_part),
            self.bc_part.intersect(other.bc_part),
        )

    def is_subset(self, other: "SymbolicSet") -> bool:
        return self.intersect(other) == self


def sym_in_algebra(s: SymbolicSet) -> bool:
    """Membership rule of the modelled algebra: both halves same kind."""
    return s.b_part.kind == s.bc_part.kind


class SymbolicValue(Enum):
    ZERO = "0"
    PLUS_INFINITY = "+inf"
    MINUS_INFINITY = "-inf"
    UNDEFINED = "undefined"


def mu3(s: SymbolicSet) -> SymbolicValue:
    """The modelled set function; UNDEFINED marks sets outside its domain."""
    if not sym_in_algebra(s):
        raise NotInAlgebraError(f"{s!r} is outside the modelled algebra")
    if s.is_empty:
        return SymbolicValue.ZERO
    if s.bc_part.is_empty:
        return SymbolicValue.PLUS_INFINITY
    if s.b_part.is_empty:
        return SymbolicValue.MINUS_INFINITY
    return SymbolicValue.UNDEFINED


class FPlusDecision(NamedTuple):
    member: bool
    counterexample: SymbolicSet | None


def _sign_class_decision(
    c: SymbolicSet, forbidden: HalfSet, singleton
) -> FPlusDecision:
    # ``forbidden`` is the part of c in the half whose points carry the
    # wrong sign; its first point, as ``singleton``, is the counterexample
    if not sym_in_algebra(c):
        raise NotInAlgebraError(f"{c!r} is outside the modelled algebra")
    if forbidden.is_empty:
        return FPlusDecision(True, None)
    return FPlusDecision(False, singleton(forbidden.first_id()))


def sym_in_f_plus(c: SymbolicSet) -> FPlusDecision:
    """Decide whether every measurable subset of ``c`` has value >= 0.

    Decision procedure, no enumeration: membership holds exactly when
    the complementary-half part of ``c`` is empty.  Otherwise any point
    of ``c`` in the complementary half gives a singleton subset of value
    -inf, returned as the counterexample.
    """
    return _sign_class_decision(c, c.bc_part, SymbolicSet.singleton_bc)


def sym_in_f_minus(c: SymbolicSet) -> FPlusDecision:
    """Mirror image: every measurable subset of ``c`` has value <= 0."""
    return _sign_class_decision(c, c.b_part, SymbolicSet.singleton_b)


def _subsets(ids: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    for r in range(len(ids) + 1):
        yield from combinations(ids, r)


def f_plus_enumeration_oracle(c: SymbolicSet) -> bool:
    """Bounded enumeration cross-check for :func:`sym_in_f_plus`.

    Only members with a defined value can qualify.  Those are finite in
    both halves (a cofinite half is never empty, so two cofinite halves
    make the value undefined), so their measurable subsets are the
    finite sets of their explicit indices; each is inspected directly.
    """
    if mu3(c) is SymbolicValue.UNDEFINED:
        return False
    for u in _subsets(c.b_part.ids):
        for v in _subsets(c.bc_part.ids):
            a = SymbolicSet(HalfSet(FINITE, u), HalfSet(FINITE, v))
            if mu3(a) is SymbolicValue.MINUS_INFINITY:
                return False
    return True


def _below(rng: random.Random, n: int) -> int:
    """A uniform int in [0, n), the value and the draws of ``rng.randrange(n)``.

    This is the rejection sampling of ``Random._randbelow_with_getrandbits``
    (the same on Python 3.10-3.13): draw ``n.bit_length()`` bits until the
    result is below n.  Calling ``getrandbits`` directly skips
    ``randint``/``randrange``/``choice``/``sample``'s argument handling.
    """
    if n <= 0:
        # getrandbits(0) is always 0, so the loop below would never end
        raise ValueError("empty range for a draw")
    getrandbits = rng.getrandbits
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _random_ids(rng: random.Random) -> tuple[int, ...]:
    # rng.sample(range(10), rng.randint(0, 4)), draw for draw: the count,
    # then the pool method Random.sample uses for a population this small
    pool = list(range(10))
    ids = []
    for i in range(_below(rng, 5)):
        j = _below(rng, 10 - i)
        ids.append(pool[j])
        pool[j] = pool[9 - i]
    return tuple(ids)


def random_algebra_member(rng: random.Random) -> SymbolicSet:
    """A random member of the modelled algebra (both halves same kind),
    each half listing up to four explicit indices from 0..9."""
    kind = FINITE if rng.random() < 0.5 else COFINITE
    ids_b = _random_ids(rng)
    ids_bc = _random_ids(rng)
    return SymbolicSet(HalfSet(kind, ids_b), HalfSet(kind, ids_bc))


# The largest ``trials`` of hahn_failure_check (the example3 command's
# --trials): 100 times the default, about 14 s on a 2-CPU VM (Python 3.11).
MAX_HAHN_TRIALS = 1_000_000


def hahn_failure_check(seed: int = 0, trials: int = 10000) -> dict:
    """Verify symbolically that no split C / complement(C) exists with C in
    the nonnegative class and its complement in the nonpositive class.

    Two-step case analysis, each step computed on concrete sets, plus a
    seeded fuzz pass over random algebra members looking for a
    counterexample.  Returns a machine-readable report; raises
    InvalidConfigError unless ``seed`` is an int (not a bool) in
    0..2**64 - 1 and ``trials`` one in 1..MAX_HAHN_TRIALS.
    """
    check_int_between(seed, 0, (1 << 64) - 1, "seed must be a 64-bit unsigned integer")
    check_int_between(
        trials, 1, MAX_HAHN_TRIALS, f"trials must be between 1 and {MAX_HAHN_TRIALS}"
    )
    rng = random.Random(seed)
    step1_checked = step1_violations = 0
    step2_checked = step2_violations = 0
    counterexamples = 0
    # the empty set and two handmade members join the random stream so the
    # extreme cases are always exercised
    pinned = [
        SymbolicSet.empty(),
        SymbolicSet.singleton_b(0),
        SymbolicSet(HalfSet(FINITE, (1, 2)), _EMPTY_HALF),
    ]
    for trial in range(trials):
        c = pinned[trial] if trial < len(pinned) else random_algebra_member(rng)
        plus = sym_in_f_plus(c)
        comp = c.complement()
        minus = sym_in_f_minus(comp)
        if plus.member and minus.member:
            counterexamples += 1
        elif plus.member:
            # step 1: membership forces a finite subset of the distinguished half
            step1_checked += 1
            if not (c.bc_part.is_empty and c.b_part.kind == FINITE):
                step1_violations += 1
            # step 2: the complement then holds a fresh distinguished-half
            # singleton of value +inf, so it is never in the nonpositive class
            step2_checked += 1
            witness = SymbolicSet.singleton_b(c.b_part.fresh_id())
            if (
                not witness.is_subset(comp)
                or mu3(witness) is not SymbolicValue.PLUS_INFINITY
            ):
                step2_violations += 1
    return {
        "hahn_split_exists": counterexamples > 0,
        "trials": trials,
        "seed": seed,
        "counterexamples": counterexamples,
        "witness_rule": (
            "membership in the nonnegative class forces a finite subset of "
            "the distinguished half; the complement of such a set contains a "
            "fresh distinguished-half singleton of value +inf and so is never "
            "in the nonpositive class"
        ),
        "steps": [
            {
                "claim": "every nonnegative-class member is a finite subset "
                "of the distinguished half",
                "checked": step1_checked,
                "holds": step1_violations == 0,
            },
            {
                "claim": "the complement of such a member contains a +inf "
                "singleton and fails the nonpositive class",
                "checked": step2_checked,
                "holds": step2_violations == 0,
            },
        ],
    }
