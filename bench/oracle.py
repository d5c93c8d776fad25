"""Exact expected answers, recomputed from the plain input data.

Nothing here imports partmeas.  A value is a ``Fraction`` or one of the
strings ``POS`` ("+inf") and ``NEG`` ("-inf"), so ``str(value)`` is the
canonical text encoding of the program's file formats.  Atom ``i`` of a
discrete space is labelled ``LETTERS[i]``; a set is an atom mask.
"""

from __future__ import annotations

from fractions import Fraction

POS, NEG = "+inf", "-inf"
ZERO = Fraction(0)
LETTERS = "abcdefghijklmnopqrstuvwxyz"


def order(v) -> tuple:
    """Sort key of the extended real line."""
    if v == POS:
        return (1, ZERO)
    if v == NEG:
        return (-1, ZERO)
    return (0, v)


def neg(v):
    if v == POS:
        return NEG
    if v == NEG:
        return POS
    return -v


def bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def submasks(mask: int) -> list[int]:
    out = []
    sub = mask
    while True:
        out.append(sub)
        if sub == 0:
            return out
        sub = (sub - 1) & mask


def atom_sum(values, mask: int):
    """Sum over the atoms of ``mask``; None when it mixes +inf and -inf."""
    total = ZERO
    pos = negative = False
    for i in bits(mask):
        v = values[i]
        if v == POS:
            pos = True
        elif v == NEG:
            negative = True
        else:
            total += v
    if pos and negative:
        return None
    if pos:
        return POS
    if negative:
        return NEG
    return total


def table(values) -> list:
    """Every set's value by atom mask, None where ill-posed.

    Built by doubling: the masks holding atom i are the masks below 2^i
    plus atom i; each entry is (finite sum, has +inf, has -inf).
    """
    parts = [(ZERO, False, False)]
    for v in values:
        add = (ZERO, v == POS, v == NEG) if v in (POS, NEG) else (v, False, False)
        parts += [(q + add[0], p or add[1], n or add[2]) for q, p, n in parts]
    return [None if p and n else POS if p else NEG if n else q for q, p, n in parts]


def parts(values) -> tuple[list, list]:
    """Per-atom positive and negative parts."""
    plus = [v if order(v) > order(ZERO) else ZERO for v in values]
    minus = [neg(v) if order(v) < order(ZERO) else ZERO for v in values]
    return plus, minus


def attaining(values) -> tuple[list[int], list[int]]:
    """Attaining sets per atom: {i} when that part is positive, else empty."""
    plus = [1 << i if order(v) > order(ZERO) else 0 for i, v in enumerate(values)]
    minus = [1 << i if order(v) < order(ZERO) else 0 for i, v in enumerate(values)]
    return plus, minus


def hahn(values) -> int:
    """Mask of the positive side: the atoms >= 0."""
    return mask_of(i for i, v in enumerate(values) if order(v) >= order(ZERO))


def witnesses(values, mask: int) -> tuple[int, int]:
    """corollary1 witnesses inside ``mask``: its atoms >= 0 and its atoms <= 0."""
    zero = order(ZERO)
    return (
        mask_of(i for i in bits(mask) if order(values[i]) >= zero),
        mask_of(i for i in bits(mask) if order(values[i]) <= zero),
    )


def dominates(candidate, part) -> bool:
    """Does a positive measure dominate a part on every domain set?

    On a finite algebra this holds exactly when it holds atom by atom.
    """
    return all(order(c) >= order(p) for c, p in zip(candidate, part))


def times(v, p: Fraction):
    """Integrand times probability, with (+-inf) * 0 = 0."""
    if p == 0:
        return ZERO
    return v if v in (POS, NEG) else v * p


def density(v, p: Fraction):
    """Radon-Nikodym density on one atom, 0 on null atoms."""
    if p == 0:
        return ZERO
    return v if v in (POS, NEG) else v / p


# ---------------------------------------------------------------------------
# JSON shapes the CLI must print


def key(mask: int, points: str = LETTERS) -> str:
    return ",".join(sorted(points[i] for i in bits(mask)))


def discrete_space(k: int) -> dict:
    return {"points": list(LETTERS[:k]), "generators": [[p] for p in LETTERS[:k]]}


def atom_map(values) -> dict:
    return {LETTERS[i]: str(v) for i, v in enumerate(values)}


def envelope(kind: str, payload: dict) -> dict:
    return {"kind": kind, "payload": payload}


def atom_valued(kind: str, values) -> dict:
    field = "atom_values" if kind == "maximal" else "values"
    return envelope(
        kind, {"space": discrete_space(len(values)), field: atom_map(values)}
    )


def probability(probs) -> dict:
    return envelope(
        "probability", {"space": discrete_space(len(probs)), "probs": atom_map(probs)}
    )


def partial(values, generators) -> dict:
    closed = sorted({m for g in generators for m in submasks(g)})
    return envelope(
        "partial",
        {
            "space": discrete_space(len(values)),
            "domain": [[LETTERS[i] for i in bits(m)] for m in closed],
            "values": {key(m): str(atom_sum(values, m)) for m in closed},
        },
    )


def partition_space(points: str, blocks) -> dict:
    """A space whose atoms are ``blocks`` (lists of point indices)."""
    atoms = sorted(sorted(b) for b in blocks)
    return envelope(
        "space",
        {
            "points": list(points),
            "generators": [[points[j] for j in atom] for atom in atoms],
        },
    )


def jordan(values) -> dict:
    plus, minus = parts(values)
    att_plus, att_minus = attaining(values)
    return {
        "mu_plus": atom_valued("measure", plus),
        "mu_minus": atom_valued("measure", minus),
        "attaining_sets": {
            "plus": {LETTERS[i]: key(m) for i, m in enumerate(att_plus)},
            "minus": {LETTERS[i]: key(m) for i, m in enumerate(att_minus)},
        },
    }


def hahn_split(values) -> dict:
    p = hahn(values)
    return {"positive": key(p), "negative": key(((1 << len(values)) - 1) ^ p)}


def corollary1(values, mask: int) -> dict:
    a, b = witnesses(values, mask)
    return {"set": key(mask), "a_prime": key(a), "a_double_prime": key(b)}


def ess_sup(probs, masks) -> dict:
    union = mask_of(i for m in masks for i in bits(m))
    return {"ess_sup": key(mask_of(i for i in bits(union) if probs[i] != 0))}
