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
from typing import Iterable

from .errors import (
    EmptyFamilyError,
    InvalidProbabilityError,
    NotAbsContinuousError,
    SpaceMismatchError,
)
from .extreal import ZERO, ExtReal, _ratio
from .measure import AtomVector
from .partial import MaximalPartialMeasure
from .spaces import FiniteSpace, MeasurableSet, iter_bits


class Probability(AtomVector):
    """Exact atom probabilities: nonnegative rationals summing to one.

    An atom vector of finite values, so a set's probability is its
    atom sum; ``nonnull_mask`` marks the atoms of positive probability.
    """

    __slots__ = ("nonnull_mask",)

    _kind = "probability"

    def __init__(self, space: FiniteSpace, atom_probs: Iterable[Fraction | int]):
        probs = [ExtReal(p) for p in atom_probs]
        if len(probs) != space.n_atoms:
            raise InvalidProbabilityError(
                f"expected {space.n_atoms} atom probabilities, got {len(probs)}"
            )
        super().__init__(space, probs)
        for i, p in enumerate(self.atom_values):
            if p.sign() < 0:
                raise InvalidProbabilityError(
                    f"atom {space.atom_label(i)!r} has negative probability {p}"
                )
        total = self.mask_sum(space.full_mask)
        if total != ExtReal(1):
            raise InvalidProbabilityError(f"atom probabilities sum to {total}, not 1")
        self.nonnull_mask = space.full_mask ^ self.nonpos_mask()

    @property
    def null_mask(self) -> int:
        return self.space.full_mask ^ self.nonnull_mask


class RandomVariable(AtomVector):
    """An extended-real function, constant on atoms."""

    __slots__ = ()

    _kind = "randomvariable"


def _weighted(value: ExtReal, p: ExtReal) -> ExtReal:
    # integration convention: a null atom contributes 0 even for +-inf
    if p == ZERO:
        return ZERO
    if value.is_finite:
        return _ratio(value._n * p._n, value._d * p._d)
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
    atom_values = [_weighted(v, p) for v, p in zip(xi.atom_values, prob.atom_values)]
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
    return all(mu.atom_values[i] == ZERO for i in iter_bits(prob.null_mask))


def rn_derivative(mu: MaximalPartialMeasure, prob: Probability) -> RandomVariable:
    """The density of ``mu`` against ``prob``: mu_xi(result, prob) == mu.

    Requires absolute continuity.  The canonical representative takes
    mu(a)/P(a) on atoms with positive probability and 0 on null atoms;
    any variant differing only on null atoms integrates to the same
    measure, which is the almost-sure uniqueness at finite scale.
    """
    if not is_abs_continuous(mu, prob):
        raise NotAbsContinuousError(
            "some null atom carries a nonzero value; no density exists"
        )
    values: list[ExtReal] = []
    for v, p in zip(mu.atom_values, prob.atom_values):
        if p == ZERO:
            values.append(ZERO)
        elif v.is_finite:
            # p > 0, so v / p keeps a positive denominator
            values.append(_ratio(v._n * p._d, v._d * p._n))
        else:
            values.append(v)
    return RandomVariable(mu.space, values)
