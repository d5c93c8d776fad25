"""Finite sample spaces and their algebras of measurable sets.

A finite algebra of sets is determined by its atom partition, so a space
stores an ordered list of point labels plus the partition; measurable
sets are bitmasks over atom indices.  Every union of atoms is measurable
and nothing else is, which keeps membership checks structural.

Sets carry the identity of their underlying space; operations between
sets on different spaces raise :class:`SpaceMismatchError` instead of
coercing, since silent coercion would mask modelling bugs in trace
algebra code.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import (
    NotMeasurableError,
    SpaceMismatchError,
    TooLargeError,
    UnknownPointError,
)

# 2**20 sets is the default ceiling for exhaustive enumeration.
ENUMERATION_CAP = 20


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_enumerable(n_atoms: int, what: str = "space") -> None:
    """Raise TooLargeError when ``n_atoms`` atoms are too many to
    enumerate all 2**n_atoms of their sets; ``what`` names what owns
    them in the error detail."""
    if n_atoms > ENUMERATION_CAP:
        raise TooLargeError(
            f"{what} has {n_atoms} atoms; enumeration capped at {ENUMERATION_CAP}"
        )


def iter_submasks(mask: int) -> Iterator[int]:
    """Every submask of ``mask``, ascending, from 0 to ``mask`` itself."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


class FiniteSpace:
    """A finite point set with an algebra given by its atom partition.

    ``points`` is the ordered tuple of distinct labels; ``atoms`` is the
    tuple of point-index bitmasks, pairwise disjoint, jointly covering
    all points, ordered by smallest contained point index.  The ordering
    is canonical, so value equality of spaces is decidable.
    """

    __slots__ = ("points", "atoms", "full_mask", "_index", "_atom_of", "_hash")

    def __init__(self, points: Sequence[str], atoms: Iterable[int]):
        pts = tuple(points)
        for p in pts:
            if not isinstance(p, str):
                raise TypeError(f"point labels must be strings, got {p!r}")
        if len(set(pts)) != len(pts):
            raise ValueError("duplicate point labels")
        all_points = (1 << len(pts)) - 1
        blocks = sorted(atoms, key=lambda m: (m & -m).bit_length())
        seen = 0
        atom_of = [0] * len(pts)  # the atom index of each point index
        for i, m in enumerate(blocks):
            if m == 0:
                raise ValueError("empty atom")
            if m & seen:
                raise ValueError("atoms overlap")
            if m & ~all_points:
                raise ValueError("atom mentions an unknown point index")
            seen |= m
            for j in iter_bits(m):
                atom_of[j] = i
        if seen != all_points:
            raise ValueError("atoms do not cover all points")
        self.points = pts
        self.atoms = tuple(blocks)
        self.full_mask = (1 << len(blocks)) - 1
        self._index = {p: i for i, p in enumerate(pts)}
        self._atom_of = tuple(atom_of)
        self._hash = hash((pts, self.atoms))

    @classmethod
    def discrete(cls, points: Sequence[str]) -> "FiniteSpace":
        """The full power set: every point is its own atom."""
        return cls(points, [1 << i for i in range(len(points))])

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def n_points(self) -> int:
        return len(self.points)

    def atom_points(self, i: int) -> tuple[str, ...]:
        return tuple(self.points[j] for j in iter_bits(self.atoms[i]))

    def atom_label(self, i: int) -> str:
        """Label of the smallest point contained in atom ``i``."""
        low = self.atoms[i] & -self.atoms[i]
        return self.points[low.bit_length() - 1]

    @property
    def atom_labels(self) -> tuple[str, ...]:
        return tuple(self.atom_label(i) for i in range(len(self.atoms)))

    def empty_set(self) -> "MeasurableSet":
        return MeasurableSet(self, 0)

    def full_set(self) -> "MeasurableSet":
        return MeasurableSet(self, self.full_mask)

    def atom_set(self, i: int) -> "MeasurableSet":
        if not 0 <= i < len(self.atoms):
            raise IndexError(f"no atom {i}")
        return MeasurableSet(self, 1 << i)

    def set_from_points(self, labels: Iterable[str]) -> "MeasurableSet":
        """The measurable set with exactly these points.

        Raises UnknownPointError for a foreign label and
        NotMeasurableError when the point set is not a union of atoms.
        """
        pmask = amask = 0
        for lab in labels:
            i = self._index.get(lab)
            if i is None:
                raise UnknownPointError(f"unknown point {lab!r}")
            pmask |= 1 << i
            amask |= 1 << self._atom_of[i]
        # measurable exactly when every atom touched is listed in full
        covered = 0
        for i in iter_bits(amask):
            covered |= self.atoms[i]
        if covered != pmask:
            raise NotMeasurableError(
                f"{sorted(labels)} is not a union of atoms of this algebra"
            )
        return MeasurableSet(self, amask)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        return self.points == other.points and self.atoms == other.atoms

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        blocks = ["{" + ",".join(self.atom_points(i)) + "}" for i in range(self.n_atoms)]
        return f"FiniteSpace({'|'.join(blocks)})"


class MeasurableSet:
    """A union of atoms of a :class:`FiniteSpace`, stored as an atom mask."""

    __slots__ = ("space", "mask")

    def __init__(self, space: FiniteSpace, mask: int):
        if not 0 <= mask <= space.full_mask:
            raise ValueError(f"atom mask {mask} out of range")
        self.space = space
        self.mask = mask

    def _check(self, other: "MeasurableSet") -> None:
        if not isinstance(other, MeasurableSet):
            raise TypeError(f"MeasurableSet required, got {type(other).__name__}")
        if self.space != other.space:
            raise SpaceMismatchError("sets live on different spaces")

    def atom_indices(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.mask))

    def point_mask(self) -> int:
        m = 0
        for i in iter_bits(self.mask):
            m |= self.space.atoms[i]
        return m

    def labels(self) -> tuple[str, ...]:
        """Point labels of this set, sorted lexicographically."""
        pm = self.point_mask()
        return tuple(sorted(self.space.points[j] for j in iter_bits(pm)))

    def key(self) -> str:
        """Canonical text key: comma-joined sorted point labels."""
        return ",".join(self.labels())

    def complement(self) -> "MeasurableSet":
        return MeasurableSet(self.space, self.space.full_mask ^ self.mask)

    def union(self, other: "MeasurableSet") -> "MeasurableSet":
        self._check(other)
        return MeasurableSet(self.space, self.mask | other.mask)

    def intersect(self, other: "MeasurableSet") -> "MeasurableSet":
        self._check(other)
        return MeasurableSet(self.space, self.mask & other.mask)

    def is_subset(self, other: "MeasurableSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    __invert__ = complement
    __or__ = union
    __and__ = intersect

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MeasurableSet):
            return NotImplemented
        return self.space == other.space and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.space, self.mask))

    def __repr__(self) -> str:
        return "MeasurableSet({" + ",".join(self.labels()) + "})"


def generate_algebra(
    points: Sequence[str], generators: Iterable[Iterable[str]] = ()
) -> FiniteSpace:
    """Smallest algebra on ``points`` containing every generator set.

    Two points share an atom exactly when no generator separates them.
    With no generators the result is the trivial algebra (one atom, or
    none when ``points`` is empty).
    """
    pts = tuple(points)
    index = {p: i for i, p in enumerate(pts)}
    if len(index) != len(pts):
        raise ValueError("duplicate point labels")
    gen_masks = []
    for g in generators:
        m = 0
        for lab in g:
            i = index.get(lab)
            if i is None:
                raise UnknownPointError(f"unknown point {lab!r} in generator")
            m |= 1 << i
        gen_masks.append(m)
    signature_blocks: dict[tuple[int, ...], int] = {}
    for i in range(len(pts)):
        sig = tuple((m >> i) & 1 for m in gen_masks)
        signature_blocks[sig] = signature_blocks.get(sig, 0) | (1 << i)
    return FiniteSpace(pts, signature_blocks.values())


def trace_algebra(space: FiniteSpace, b: MeasurableSet) -> FiniteSpace:
    """The algebra induced on ``b``: its points, and the atoms inside it."""
    if b.space != space:
        raise SpaceMismatchError("set does not belong to this space")
    pmask = b.point_mask()
    old_indices = list(iter_bits(pmask))
    remap = {old: new for new, old in enumerate(old_indices)}
    new_points = [space.points[j] for j in old_indices]
    new_atoms = []
    for i in iter_bits(b.mask):
        m = 0
        for j in iter_bits(space.atoms[i]):
            m |= 1 << remap[j]
        new_atoms.append(m)
    return FiniteSpace(new_points, new_atoms)
