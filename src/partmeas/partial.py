"""Partial measures: set functions defined on part of an algebra.

A partial measure assigns values only to sets in an explicit domain.
The domain must be trace-closed: together with a set B it contains every
measurable subset of B (on a finite algebra the trace sets A ∩ B are
exactly the measurable subsets of B).  Consequently the atoms under any
domain set are themselves domain sets, values on atoms determine values
everywhere in the domain by additivity, and within a single domain set
the atom values never mix +inf with -inf.  A trace-closed domain is
also fixed by its maximal sets, so a :class:`PartialMeasure` is stored
as those maximal masks plus an atom vector of its determined atoms, with
the free atoms set to 0; a domain set's value is its atom sum.  Only
:meth:`PartialMeasure.domain_sets` lists the whole domain, so the
enumeration budget (at most ENUMERATION_CAP atoms in a domain set and
2**ENUMERATION_CAP sets in all) applies where the domain is listed or
echoed, not at construction.

A maximal partial measure is one admitting no proper extension.  On a
finite algebra these are exactly the arbitrary atom-value vectors: the
derived domain consists of the sets whose atoms do not carry both +inf
and -inf, and a set outside that domain can never be adjoined, because
additivity over its atoms would require an ill-posed sum.  This module
implements that representation together with the positive/negative
decomposition of maximal partial measures, its extremal property, and
witness extraction for sets outside the domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Iterable, Mapping, Sequence

from .errors import (
    AdditivityViolationError,
    EmptyDomainError,
    FillConflictError,
    IllPosedError,
    InDomainError,
    MixedInfinitiesInDomainSetError,
    NotInDomainError,
    NotPositiveError,
    NotTraceClosedError,
    SchemaError,
    SpaceMismatchError,
    TooLargeError,
    UnknownPointError,
)
from .extreal import MINUS_INF, PLUS_INF, ZERO, ExtReal
from .measure import AtomVector, PositiveMeasure, hahn_decomposition
from .spaces import (
    ENUMERATION_CAP,
    FiniteSpace,
    MeasurableSet,
    check_enumerable,
    iter_bits,
    iter_submasks,
)

__all__ = [
    "PartialMeasure",
    "MaximalPartialMeasure",
    "validate_partial",
    "diff_measures",
    "maximalize",
    "value_table",
    "f_plus",
    "f_minus",
    "jordan_sup",
    "JordanDecomposition",
    "jordan_decompose",
    "jordan_decompose_detailed",
    "check_minimality",
    "corollary1_witness",
    "hahn_partial",
    "restrict_to",
    "single_set_extensions",
    "is_maximal",
    "can_extend_with",
]


class PartialMeasure:
    """A validated partial measure with an explicit, trace-closed domain.

    Construct through :func:`validate_partial`, :func:`diff_measures` or
    :func:`restrict_to`; the raw constructor trusts its input: no mask
    may mix +inf and -inf atoms of ``atom_values``.  The domain is every
    subset of a mask in ``masks``, and only the maximal masks are kept
    (``{0}`` when no mask is nonempty).  Values of atoms outside every
    mask are replaced by 0, so two partial measures with the same domain
    and the same values are equal however they were built.
    """

    __slots__ = ("space", "_maximal", "_atoms", "covered_atoms")

    def __init__(
        self, space: FiniteSpace, masks: Iterable[int], atom_values: Sequence[ExtReal]
    ):
        self.space = space
        self._maximal = _maximal_masks(masks)
        covered = 0
        for m in self._maximal:
            covered |= m
        self.covered_atoms = covered
        self._atoms = MaximalPartialMeasure(
            space,
            [v if covered >> i & 1 else ZERO for i, v in enumerate(atom_values)],
        )

    def domain_sets(self) -> list[MeasurableSet]:
        """The domain in canonical mask order.

        Raises TooLargeError for a maximal set of more than
        ENUMERATION_CAP atoms, and once the domain holds more than
        2**ENUMERATION_CAP sets.
        """
        closed = {0}
        for mask in sorted(self._maximal, reverse=True):
            check_enumerable(mask.bit_count(), what="domain set")
            closed.update(iter_submasks(mask))
            if len(closed) > 1 << ENUMERATION_CAP:
                raise TooLargeError(
                    f"domain has {len(closed)} sets; "
                    f"enumeration capped at 2**{ENUMERATION_CAP}"
                )
        return [MeasurableSet(self.space, m) for m in sorted(closed)]

    def in_domain(self, a: MeasurableSet) -> bool:
        if a.space != self.space:
            raise SpaceMismatchError("set does not belong to this space")
        # a plain loop: any() over a generator costs about four times as
        # much for the few maximal sets a domain usually has
        for g in self._maximal:
            if a.mask | g == g:
                return True
        return False

    def evaluate(self, a: MeasurableSet) -> ExtReal:
        if not self.in_domain(a):
            raise NotInDomainError(f"{a!r} is outside the domain")
        return self._atoms.evaluate(a)

    def determined_atom_value(self, i: int) -> ExtReal:
        """Value of atom ``i``; it must lie under some domain set."""
        if not self.covered_atoms >> i & 1:
            raise NotInDomainError(
                f"atom {self.space.atom_label(i)!r} is not determined"
            )
        return self._atoms.atom_values[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartialMeasure):
            return NotImplemented
        return self._maximal == other._maximal and self._atoms == other._atoms

    def __repr__(self) -> str:
        return f"PartialMeasure({len(self._maximal)} maximal sets on {self.space!r})"


def _maximal_masks(masks: Iterable[int]) -> frozenset[int]:
    """The maximal elements of ``masks``; ``{0}`` when none is nonempty.

    Masks are visited by size, largest first.  A proper superset of a
    mask is larger and holds the mask's lowest atom, so the mask is
    tested only against the larger kept sets indexed under that atom,
    not against every kept set; sets of one size, such as a wide
    antichain, are never compared with each other.
    """
    kept: list[int] = []
    by_atom: dict[int, list[int]] = {}
    by_size = sorted(masks, key=int.bit_count, reverse=True)
    for size, level in groupby(by_size, key=int.bit_count):
        if not size:
            break
        new = []
        for mask in level:
            # a plain loop, as in in_domain
            for g in by_atom.get(mask & -mask, ()):
                if mask | g == g:
                    break
            else:
                new.append(mask)
        for mask in new:
            rest = mask
            while rest:
                low = rest & -rest
                by_atom.setdefault(low, []).append(mask)
                rest ^= low
        kept += new
    return frozenset(kept or [0])


class MaximalPartialMeasure(AtomVector):
    """A maximal partial measure: an atom-value vector, any values allowed.

    The derived domain is the family of sets whose atoms do not carry
    both +inf and -inf; the derived value is the atom sum.
    """

    __slots__ = ()

    _kind = "maximal"

    def in_domain_mask(self, mask: int) -> bool:
        return not (mask & self.pos_inf_mask and mask & self.neg_inf_mask)

    def in_domain(self, a: MeasurableSet) -> bool:
        if a.space != self.space:
            raise SpaceMismatchError("set does not belong to this space")
        return self.in_domain_mask(a.mask)

    def evaluate(self, a: MeasurableSet) -> ExtReal:
        if a.space != self.space:
            raise SpaceMismatchError("set does not belong to this space")
        if not self.in_domain_mask(a.mask):
            raise NotInDomainError(f"{a!r} is outside the derived domain")
        return self.mask_sum(a.mask)

    __call__ = evaluate

    def domain_sets(self) -> list[MeasurableSet]:
        """Every set of the derived domain, in canonical mask order."""
        check_enumerable(self.space.n_atoms)
        return [
            MeasurableSet(self.space, m)
            for m in range(1 << self.space.n_atoms)
            if self.in_domain_mask(m)
        ]


def validate_partial(
    space: FiniteSpace,
    domain: Iterable[MeasurableSet],
    values: Mapping[MeasurableSet, ExtReal],
) -> PartialMeasure:
    """Check the partial-measure invariants and close the domain under traces.

    The supplied sets must include every atom lying under any of them;
    an atom's value cannot be inferred by subtraction, so a missing atom
    makes the required trace value underivable (NotTraceClosedError).
    Each supplied set must avoid mixing +inf/-inf among its atoms
    (MixedInfinitiesInDomainSetError) and must equal its atom sum
    (AdditivityViolationError).  The domain is then every subset of a
    supplied set, valued by its atom sum, which makes it trace-closed.
    """
    vmap: dict[int, ExtReal] = {}
    dom_masks = set()
    for a in domain:
        if a.space != space:
            raise SpaceMismatchError("domain set on a different space")
        dom_masks.add(a.mask)
    for a, v in values.items():
        if a.space != space:
            raise SpaceMismatchError("valued set on a different space")
        if not isinstance(v, ExtReal):
            raise TypeError(f"ExtReal required, got {type(v).__name__}")
        vmap[a.mask] = v
    if dom_masks != set(vmap):
        raise SchemaError("domain and values must describe the same sets")
    if not vmap:
        raise EmptyDomainError("a partial measure needs at least one domain set")

    atoms = MaximalPartialMeasure(
        space, [vmap.get(1 << i, ZERO) for i in range(space.n_atoms)]
    )
    for mask in sorted(vmap):
        a = MeasurableSet(space, mask)
        for i in iter_bits(mask):
            if 1 << i not in vmap:
                raise NotTraceClosedError(
                    f"set {a.key()!r} requires atom {space.atom_label(i)!r}, "
                    "whose value is not derivable from the supplied sets"
                )
        if not atoms.in_domain_mask(mask):
            raise MixedInfinitiesInDomainSetError(
                f"atoms of {a.key()!r} carry both +inf and -inf"
            )
        total = atoms.evaluate(a)
        if vmap[mask] != total:
            raise AdditivityViolationError(
                f"value {vmap[mask]} of {a.key()!r} differs from its atom sum {total}"
            )
    return PartialMeasure(space, vmap, atoms.atom_values)


def _finite_sum_table(values: Sequence[ExtReal], k: int) -> list[Fraction]:
    """DP table of finite-part sums over all atom masks."""
    fin = [v.as_fraction() if v.is_finite else Fraction(0) for v in values]
    table = [Fraction(0)] * (1 << k)
    for mask in range(1, 1 << k):
        low = mask & -mask
        table[mask] = table[mask ^ low] + fin[low.bit_length() - 1]
    return table


def diff_measures(m1: PositiveMeasure, m2: PositiveMeasure) -> PartialMeasure:
    """The difference of two positive measures, on its well-posed domain.

    The domain is every set A with m1(A) - m2(A) well-posed, i.e. those
    not simultaneously containing a +inf atom of each operand.
    """
    if not isinstance(m1, PositiveMeasure) or not isinstance(m2, PositiveMeasure):
        raise NotPositiveError("diff_measures requires two positive measures")
    if m1.space != m2.space:
        raise SpaceMismatchError("measures live on different spaces")
    # a well-posed set avoids the +inf atoms of m1 or those of m2
    full = m1.space.full_mask
    domain = [full ^ m1.pos_inf_mask, full ^ m2.pos_inf_mask]
    atom_values = [
        ZERO if v1 == v2 == PLUS_INF else v1 - v2
        for v1, v2 in zip(m1.atom_values, m2.atom_values)
    ]
    return PartialMeasure(m1.space, domain, atom_values)


def maximalize(
    pm: PartialMeasure, fill: Mapping[str, ExtReal] | None = None
) -> MaximalPartialMeasure:
    """Extend a partial measure to a maximal one.

    Atoms under the domain keep their determined values; the remaining
    free atoms take the value from ``fill`` (keyed by atom label) or 0.
    Maximal extensions are genuinely non-unique, which is why the free
    choice is part of the signature rather than hidden.
    """
    space = pm.space
    atom_values = list(pm._atoms.atom_values)
    if fill:
        label_to_atom = {space.atom_label(i): i for i in range(space.n_atoms)}
        for label, v in fill.items():
            i = label_to_atom.get(label)
            if i is None:
                raise UnknownPointError(f"no atom labelled {label!r}")
            if pm.covered_atoms >> i & 1:
                raise FillConflictError(
                    f"atom {label!r} is determined by the domain; "
                    "its value cannot be chosen"
                )
            atom_values[i] = v
    return MaximalPartialMeasure(space, atom_values)


def value_table(mu: AtomVector) -> list[ExtReal | None]:
    """Values of every set, indexed by atom mask; None where ill-posed.

    Works for any atom vector, i.e. both measures and maximal partial
    measures.  For a measure no entry is None.
    """
    k = mu.space.n_atoms
    check_enumerable(k)
    pos = mu.pos_inf_mask
    neg = mu.neg_inf_mask
    finite_sums = _finite_sum_table(mu.atom_values, k)
    table: list[ExtReal | None] = [None] * (1 << k)
    for mask in range(1 << k):
        if mask & pos:
            table[mask] = None if mask & neg else PLUS_INF
        elif mask & neg:
            table[mask] = MINUS_INF
        else:
            table[mask] = ExtReal(finite_sums[mask])
    return table


# On a finite algebra every atom is a measurable subset of any set that
# contains it, so the sign classes and the defining suprema reduce to
# atomwise rules.  The literal definitions (every submask of every
# candidate set inspected) are kept in the test suite as the oracle
# these closed forms are checked against.


def f_plus(mu: MaximalPartialMeasure) -> list[MeasurableSet]:
    """Domain sets whose every measurable subset has value >= 0.

    These are exactly the subsets of the atoms with value >= 0, listed
    in canonical mask order.
    """
    check_enumerable(mu.space.n_atoms)
    return [MeasurableSet(mu.space, m) for m in iter_submasks(mu.nonneg_mask())]


def f_minus(mu: MaximalPartialMeasure) -> list[MeasurableSet]:
    """Domain sets whose every measurable subset has value <= 0.

    These are exactly the subsets of the atoms with value <= 0, listed
    in canonical mask order.
    """
    check_enumerable(mu.space.n_atoms)
    return [MeasurableSet(mu.space, m) for m in iter_submasks(mu.nonpos_mask())]


def _check_side(side: str) -> None:
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")


def jordan_sup(
    mu: MaximalPartialMeasure, a: MeasurableSet, side: str
) -> tuple[ExtReal, MeasurableSet]:
    """Evaluate the defining supremum of the decomposition at one set.

    side="plus":  sup over F in F+ of mu(A ∩ F)
    side="minus": sup over F in F- of -mu(A ∩ F)

    Returns the value together with the attaining set, the first one in
    canonical enumeration order of the class.  In closed form, with the
    values negated for side="minus": when A has a +inf atom the value is
    +inf, attained at the lowest such atom; otherwise it is the sum of
    the positive atom values in A, attained at the set of those atoms.
    """
    _check_side(side)
    if a.space != mu.space:
        raise SpaceMismatchError("set does not belong to this space")
    total = ZERO
    attaining = 0
    for i in iter_bits(a.mask):
        v = mu.atom_values[i] if side == "plus" else -mu.atom_values[i]
        if v == PLUS_INF:
            return PLUS_INF, MeasurableSet(mu.space, 1 << i)
        if v > ZERO:
            total += v
            attaining |= 1 << i
    return total, MeasurableSet(mu.space, attaining)


@dataclass(frozen=True)
class JordanDecomposition:
    """Positive/negative parts plus the attaining sets for each atom."""

    mu_plus: PositiveMeasure
    mu_minus: PositiveMeasure
    plus_attaining: tuple[MeasurableSet, ...]
    minus_attaining: tuple[MeasurableSet, ...]


def jordan_decompose_detailed(mu: MaximalPartialMeasure) -> JordanDecomposition:
    """Decompose via the supremum formulas over F+ and F- at each atom.

    Both parts are positive measures; on every domain set A the identity
    mu(A) = mu_plus(A) - mu_minus(A) holds exactly, and outside the
    domain both parts are +inf.  The per-atom attaining sets are kept
    for diagnostics.
    """
    space = mu.space
    plus = [jordan_sup(mu, space.atom_set(i), "plus") for i in range(space.n_atoms)]
    minus = [jordan_sup(mu, space.atom_set(i), "minus") for i in range(space.n_atoms)]
    return JordanDecomposition(
        PositiveMeasure(space, [v for v, _ in plus]),
        PositiveMeasure(space, [v for v, _ in minus]),
        tuple(f for _, f in plus),
        tuple(f for _, f in minus),
    )


def jordan_decompose(
    mu: MaximalPartialMeasure,
) -> tuple[PositiveMeasure, PositiveMeasure]:
    d = jordan_decompose_detailed(mu)
    return d.mu_plus, d.mu_minus


def check_minimality(
    mu: MaximalPartialMeasure, candidate: PositiveMeasure, side: str
) -> bool:
    """Does ``candidate`` dominate mu (side="plus") or -mu (side="minus")
    on every domain set?

    Every atom is a domain set, and a domain set never mixes the
    infinities, so domination on all domain sets is exactly domination
    on each atom.  Whenever this returns True, the corresponding
    decomposition part is pointwise below the candidate on the whole
    algebra; that extremal guarantee is asserted by the test suite, not
    here.
    """
    _check_side(side)
    if candidate.space != mu.space:
        raise SpaceMismatchError("candidate lives on a different space")
    flip = side == "minus"
    return all(
        (-v if flip else v) <= c
        for v, c in zip(mu.atom_values, candidate.atom_values)
    )


def corollary1_witness(
    mu: MaximalPartialMeasure, a: MeasurableSet
) -> tuple[MeasurableSet, MeasurableSet]:
    """For a set outside the domain, subsets witnessing both infinities.

    Returns (a_plus, a_minus) with a_plus ⊆ a in F+ of value +inf and
    a_minus ⊆ a in F- of value -inf.  Canonical choice: a_plus collects
    the atoms of a with value >= 0, a_minus those with value <= 0.
    """
    if a.space != mu.space:
        raise SpaceMismatchError("set does not belong to this space")
    if mu.in_domain_mask(a.mask):
        raise InDomainError(f"{a!r} has a well-posed value")
    return (
        MeasurableSet(mu.space, a.mask & mu.nonneg_mask()),
        MeasurableSet(mu.space, a.mask & mu.nonpos_mask()),
    )


# Split the space into C in F+ and its complement in F-.  On a finite
# algebra this always succeeds; the symbolic two-half model shows the same
# split can fail on richer algebras, so the name exists to make that
# finite-scale contrast executable rather than to promise anything in
# general.
hahn_partial = hahn_decomposition


def restrict_to(
    mu: MaximalPartialMeasure, generators: Iterable[MeasurableSet]
) -> PartialMeasure:
    """The partial measure induced on the down-closure of ``generators``.

    Every generator must lie in the derived domain.  The result's domain
    is the union of the generators' subset lattices plus the empty set.
    """
    masks = []
    for g in generators:
        if g.space != mu.space:
            raise SpaceMismatchError("generator on a different space")
        if not mu.in_domain_mask(g.mask):
            raise NotInDomainError(f"{g!r} is outside the derived domain")
        masks.append(g.mask)
    return PartialMeasure(mu.space, masks, mu.atom_values)


def single_set_extensions(pm: PartialMeasure) -> list[MeasurableSet]:
    """Sets outside the domain that could extend ``pm`` by a single set.

    A set S qualifies exactly when its determined atoms do not mix +inf
    and -inf: its free atoms can then be given any finite value (say 0)
    and S joins the domain with the resulting atom sum.  The stored
    vector holds exactly that choice, so S qualifies when it lies in the
    vector's derived domain.  An empty result characterizes maximality.
    """
    k = pm.space.n_atoms
    check_enumerable(k)
    # one listing of the domain: a submask test per set would cost
    # 2**k times the number of maximal sets
    domain = {s.mask for s in pm.domain_sets()}
    return [
        MeasurableSet(pm.space, m)
        for m in range(1 << k)
        if m not in domain and pm._atoms.in_domain_mask(m)
    ]


def is_maximal(pm: PartialMeasure) -> bool:
    """True when no single-set extension exists."""
    return not single_set_extensions(pm)


def can_extend_with(
    mu: MaximalPartialMeasure, s: MeasurableSet, value: ExtReal
) -> bool:
    """Would adjoining ``s`` with ``value`` properly extend ``mu``?

    Always False: a set already in the derived domain is no proper
    extension, and a set outside it mixes +inf and -inf among its atoms,
    so additivity over its atom partition is ill-posed for every choice
    of value.  The remaining comparison is kept so the claim is computed
    rather than asserted.
    """
    if s.space != mu.space:
        raise SpaceMismatchError("set does not belong to this space")
    if mu.in_domain_mask(s.mask):
        return False
    try:
        total = mu.mask_sum(s.mask)
    except IllPosedError:
        return False
    return value == total
