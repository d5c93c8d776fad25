"""Atom-value vectors, total measures on a finite algebra, and the
classical positive/negative split of the whole space.

Every set function in the package is an :class:`AtomVector`: a space
plus one extended-real value per atom.  The kinds are measures and
positive measures (here), maximal partial measures and partial measures
(:mod:`partmeas.partial`), probabilities and random variables
(:mod:`partmeas.density`).  A vector's domain is every set whose atoms
do not carry both +inf and -inf; only a partial measure narrows it, to
the subsets of its maximal sets.  Set values are always recomputed as
atom sums, so additivity cannot be violated by stored state.  Atom sums
are exact integer sums over a common denominator: the finite atoms are
scaled to integers once, a set's sum adds those integers, and each
result is reduced once.
A measure adds one structural invariant: its atom vector never contains
both +inf and -inf, which keeps every evaluation well-posed.
"""

from __future__ import annotations

from math import lcm
from typing import Sequence

from .errors import (
    IllPosedError,
    MixedInfinitiesError,
    NotInDomainError,
    NotPositiveError,
    SpaceMismatchError,
)
from .extreal import MINUS_INF, PLUS_INF, ZERO, ExtReal, _ratio
from .spaces import FiniteSpace, MeasurableSet


class AtomVector:
    """One extended-real value per atom of a finite space.

    ``pos_inf_mask`` and ``neg_inf_mask`` are the atom masks of the
    values +inf and -inf.  :meth:`mask_sum` is the atom sum over a mask;
    it adds the finite atoms as integers scaled by the lcm of their
    denominators (``_scaled`` over ``_denom``, fixed at construction)
    and reduces each result once, so it is exact.  Two vectors
    are equal when they have the same kind, space and values; a subclass
    keeps its parent's kind unless it sets ``_kind`` itself, so a
    measure equals a positive measure with the same values, but never a
    maximal partial measure.
    """

    __slots__ = (
        "space",
        "atom_values",
        "pos_inf_mask",
        "neg_inf_mask",
        "_denom",
        "_scaled",
    )

    _kind = "vector"

    def __init__(self, space: FiniteSpace, atom_values: Sequence[ExtReal]):
        values = tuple(atom_values)
        if len(values) != space.n_atoms:
            raise ValueError(
                f"expected {space.n_atoms} atom values, got {len(values)}"
            )
        # one pass for the infinity masks and the lcm of the denominators
        # (an infinity has _d None), then one to scale the finite atoms
        pos = neg = 0
        denom = 1
        for i, v in enumerate(values):
            if not isinstance(v, ExtReal):
                raise TypeError(f"ExtReal required, got {type(v).__name__}")
            d = v._d
            if d is None:
                if v.sign() > 0:
                    pos |= 1 << i
                else:
                    neg |= 1 << i
            elif denom % d:
                denom = lcm(denom, d)
        self.space = space
        self.atom_values = values
        self.pos_inf_mask = pos
        self.neg_inf_mask = neg
        self._denom = denom
        self._scaled = tuple(
            [0 if v._d is None else v._n * (denom // v._d) for v in values]
        )

    def mask_sum(self, mask: int) -> ExtReal:
        """Sum of the atom values over the atoms of ``mask``, 0 when empty.

        Raises IllPosedError when those atoms carry both +inf and -inf.
        """
        if mask & self.pos_inf_mask:
            if mask & self.neg_inf_mask:
                raise IllPosedError("sum mixes +inf and -inf")
            return PLUS_INF
        if mask & self.neg_inf_mask:
            return MINUS_INF
        # An inline bit walk: a generator such as iter_bits costs about
        # three times as much per atom on this hot path.
        scaled = self._scaled
        total = 0
        while mask:
            low = mask & -mask
            total += scaled[low.bit_length() - 1]
            mask ^= low
        return _ratio(total, self._denom)

    def in_domain_mask(self, mask: int) -> bool:
        """Does the set of ``mask`` avoid mixing +inf and -inf atoms?"""
        return not (mask & self.pos_inf_mask and mask & self.neg_inf_mask)

    def in_domain(self, a: MeasurableSet) -> bool:
        if a.space != self.space:
            raise SpaceMismatchError("set does not belong to this space")
        return self.in_domain_mask(a.mask)

    def evaluate(self, a: MeasurableSet) -> ExtReal:
        """The atom sum of a domain set."""
        # in_domain inlined: evaluate is the hottest call in the fuzz properties
        if a.space != self.space:
            raise SpaceMismatchError("set does not belong to this space")
        if not self.in_domain_mask(a.mask):
            raise NotInDomainError(f"{a!r} is outside the domain")
        return self.mask_sum(a.mask)

    def nonneg_mask(self) -> int:
        """Mask of the atoms with value >= 0."""
        return sum(1 << i for i, v in enumerate(self.atom_values) if v.sign() >= 0)

    def nonpos_mask(self) -> int:
        """Mask of the atoms with value <= 0."""
        return sum(1 << i for i, v in enumerate(self.atom_values) if v.sign() <= 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AtomVector):
            return NotImplemented
        return (
            self._kind == other._kind
            and self.space == other.space
            and self.atom_values == other.atom_values
        )

    def __hash__(self) -> int:
        return hash((self.space, self.atom_values))

    def __repr__(self) -> str:
        vals = ", ".join(
            f"{self.space.atom_label(i)}={v}" for i, v in enumerate(self.atom_values)
        )
        return f"{type(self).__name__}({vals})"


class Measure(AtomVector):
    """Extended-real measure on a finite algebra, given by atom values."""

    __slots__ = ()

    _kind = "measure"

    def __init__(self, space: FiniteSpace, atom_values: Sequence[ExtReal]):
        super().__init__(space, atom_values)
        if self.pos_inf_mask and self.neg_inf_mask:
            raise MixedInfinitiesError(
                "a measure can attain at most one of +inf, -inf"
            )


class PositiveMeasure(Measure):
    """A measure with every atom value in [0, +inf]."""

    __slots__ = ()

    def __init__(self, space: FiniteSpace, atom_values: Sequence[ExtReal]):
        super().__init__(space, atom_values)
        for i, v in enumerate(self.atom_values):
            if v.sign() < 0:
                raise NotPositiveError(
                    f"atom {self.space.atom_label(i)!r} has negative value {v}"
                )

    @classmethod
    def zero(cls, space: FiniteSpace) -> "PositiveMeasure":
        return cls(space, [ZERO] * space.n_atoms)


def hahn_decomposition(m: AtomVector) -> tuple[MeasurableSet, MeasurableSet]:
    """Split the space into a nonnegative part P and a nonpositive part N.

    Every measurable subset of P has value >= 0, every measurable subset
    of N has value <= 0.  The split is not unique; the canonical choice
    here puts zero-valued atoms into P.  It serves measures and maximal
    partial measures alike: on a finite algebra the split always exists
    (P is in F+ and N in F-), while the symbolic two-half model shows it
    can fail on richer algebras.
    """
    p = MeasurableSet(m.space, m.nonneg_mask())
    return p, p.complement()
