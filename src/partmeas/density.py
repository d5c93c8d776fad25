"""Densities against a probability: integration of an extended-real
random variable, essential suprema of set families, and the derivative
of an absolutely continuous maximal partial measure.

Exact conventions, chosen once so every result is deterministic:

* integration uses (+-inf) * 0 = 0, so a random variable may be infinite
  on a null atom without hurting anything;
* "almost surely" objects get one canonical representative: densities
  are 0 on null atoms, essential suprema drop null atoms.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    EmptyFamilyError,
    InvalidProbabilityError,
    NotAbsContinuousError,
    SpaceMismatchError,
)
from .extreal import ZERO, ExtReal
from .measure import AtomVector
from .partial import MaximalPartialMeasure
from .spaces import FiniteSpace, MeasurableSet, iter_bits

__all__ = [
    "Probability",
    "RandomVariable",
    "mu_xi",
    "ess_sup",
    "is_abs_continuous",
    "rn_derivative",
]


class Probability:
    """Exact atom probabilities: nonnegative rationals summing to one."""

    __slots__ = ("space", "atom_probs", "nonnull_mask")

    def __init__(self, space: FiniteSpace, atom_probs: Sequence[Fraction | int]):
        probs = tuple(
            p if isinstance(p, Fraction) else Fraction(p) for p in atom_probs
        )
        if len(probs) != space.n_atoms:
            raise InvalidProbabilityError(
                f"expected {space.n_atoms} atom probabilities, got {len(probs)}"
            )
        total = Fraction(0)
        nonnull = 0
        for i, p in enumerate(probs):
            if p < 0:
                raise InvalidProbabilityError(
                    f"atom {space.atom_label(i)!r} has negative probability {p}"
                )
            if p > 0:
                nonnull |= 1 << i
            total += p
        if total != 1:
            raise InvalidProbabilityError(f"atom probabilities sum to {total}, not 1")
        self.space = space
        self.atom_probs = probs
        self.nonnull_mask = nonnull

    @property
    def null_mask(self) -> int:
        return self.space.full_mask ^ self.nonnull_mask

    def evaluate(self, a: MeasurableSet) -> Fraction:
        if a.space != self.space:
            raise SpaceMismatchError("set does not belong to this space")
        total = Fraction(0)
        for i in iter_bits(a.mask):
            total += self.atom_probs[i]
        return total

    __call__ = evaluate

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Probability):
            return NotImplemented
        return self.space == other.space and self.atom_probs == other.atom_probs

    def __repr__(self) -> str:
        vals = ", ".join(
            f"{self.space.atom_label(i)}={p}" for i, p in enumerate(self.atom_probs)
        )
        return f"Probability({vals})"


class RandomVariable(AtomVector):
    """An extended-real function, constant on atoms."""

    __slots__ = ()

    _kind = "randomvariable"


def _weighted(value: ExtReal, p: Fraction) -> ExtReal:
    # integration convention: a null atom contributes 0 even for +-inf
    if p == 0:
        return ZERO
    if value.is_finite:
        return ExtReal(value.as_fraction() * p)
    return value


def mu_xi(xi: RandomVariable, prob: Probability) -> MaximalPartialMeasure:
    """Integrate ``xi`` against ``prob``: the maximal partial measure with
    atom values xi(a) * P(a).

    Its derived domain is exactly the family of sets over which ``xi``
    is quasi-integrable (positive part or negative part of the atom sums
    finite).
    """
    if xi.space != prob.space:
        raise SpaceMismatchError("random variable and probability disagree on space")
    atom_values = [
        _weighted(v, prob.atom_probs[i]) for i, v in enumerate(xi.atom_values)
    ]
    return MaximalPartialMeasure(xi.space, atom_values)


def ess_sup(family: Iterable[MeasurableSet], prob: Probability) -> MeasurableSet:
    """Smallest set containing every family member up to a null set.

    Canonical representative: the union over the family, with null atoms
    dropped.  Every member is contained in the result up to a null set,
    and the result is contained, up to a null set, in every set with
    that property.
    """
    sets = list(family)
    if not sets:
        raise EmptyFamilyError("ess_sup needs at least one set")
    mask = 0
    for f in sets:
        if f.space != prob.space:
            raise SpaceMismatchError("family member on a different space")
        mask |= f.mask
    return MeasurableSet(prob.space, mask & prob.nonnull_mask)


def is_abs_continuous(mu: MaximalPartialMeasure, prob: Probability) -> bool:
    """Does P(A) = 0 force A into the domain with mu(A) = 0?

    At finite scale this reduces to the atom criterion: every null atom
    carries value 0.
    """
    if mu.space != prob.space:
        raise SpaceMismatchError("measure and probability disagree on space")
    for i, p in enumerate(prob.atom_probs):
        if p == 0 and mu.atom_values[i] != ZERO:
            return False
    return True


def rn_derivative(mu: MaximalPartialMeasure, prob: Probability) -> RandomVariable:
    """The density of ``mu`` against ``prob``: mu_xi(result, prob) == mu.

    Requires absolute continuity.  The canonical representative takes
    mu(a)/P(a) on atoms with positive probability and 0 on null atoms;
    any variant differing only on null atoms integrates to the same
    measure, which is the almost-sure uniqueness at finite scale.
    """
    if mu.space != prob.space:
        raise SpaceMismatchError("measure and probability disagree on space")
    if not is_abs_continuous(mu, prob):
        raise NotAbsContinuousError(
            "some null atom carries a nonzero value; no density exists"
        )
    values: list[ExtReal] = []
    for i, v in enumerate(mu.atom_values):
        p = prob.atom_probs[i]
        if p == 0:
            values.append(ZERO)
        elif v.is_finite:
            values.append(ExtReal(v.as_fraction() / p))
        else:
            values.append(v)
    return RandomVariable(mu.space, values)
