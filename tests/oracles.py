"""The paper's literal definitions, as oracles independent of partmeas.

Values follow ``bench/oracle.py``, whose helpers this module reuses: a
value is a ``Fraction`` or one of the strings "+inf" and "-inf", a set
is an atom mask, and a table lists every set's value by mask, None where
the atom sum mixes +inf and -inf.  Nothing here imports partmeas; a test
turns a library value into this form with ``plain``.  The library
computes the same results in closed form, so agreement between the two
routes is informative.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

# the tests import these from here too, and the expected CLI output from bench
import oracle as bench  # noqa: E402,F401
from oracle import NEG, POS, ZERO, atom_sum, neg, order, parts, submasks, table  # noqa: E402,F401


def plain(x):
    """A library value in this module's form; None stays None."""
    if x is None:
        return None
    if x.is_finite:
        return x.as_fraction()
    return POS if x.sign() > 0 else NEG


def sign(v) -> int:
    """-1, 0 or 1; the infinities count with their sign."""
    if isinstance(v, str):
        return 1 if v == POS else -1
    n = v.numerator
    return (n > 0) - (n < 0)


def total(values):
    """The sum of a list of values; None when it mixes +inf and -inf."""
    return atom_sum(values, (1 << len(values)) - 1)


def closure_of_family(points, generators):
    """Smallest family containing the generators, the empty set and the
    whole set, closed under complement and pairwise union."""
    universe = frozenset(points)
    family = {frozenset(), universe}
    family.update(frozenset(g) for g in generators)
    while True:
        fresh = set()
        for a in family:
            c = universe - a
            if c not in family:
                fresh.add(c)
            for b in family:
                u = a | b
                if u not in family:
                    fresh.add(u)
        if not fresh:
            return family
        family.update(fresh)


def atoms_of_closed_family(family):
    """Inclusion-minimal nonempty members of a finite algebra."""
    nonempty = [s for s in family if s]
    return {
        s
        for s in nonempty
        if not any(t < s for t in nonempty)
    }


# ---------------------------------------------------------------------------
# the literal definitions of the decomposition, as the paper states them


def sign_classes(tab):
    """F+ and F-, each in mask order: the sets every subset of which has
    a value, none negative (for F-, none positive).

    Literal brute force: every submask of every set is inspected.  On a
    partial measure's table, whose domain holds every subset of its sets,
    these are the domain sets none of whose subsets has a negative (for
    F-, a positive) value.
    """
    signs = [None if v is None else sign(v) for v in tab]
    plus, minus = [], []
    for f, s in enumerate(signs):
        if s is None:
            continue
        seen = {signs[sub] for sub in submasks(f)}
        if None in seen:
            continue
        if -1 not in seen:
            plus.append(f)
        if 1 not in seen:
            minus.append(f)
    return plus, minus


def suprema(tab, family, a_masks, flip):
    """For each A in ``a_masks``: sup over F in ``family`` of mu(A ∩ F)
    (of -mu(A ∩ F) when ``flip``), with the first F in ``family``'s
    order that attains it.

    A ∩ F is a subset of the domain set F, so its value is defined.
    """
    read = {a & f for a in a_masks for f in family}
    values = {m: neg(tab[m]) if flip else tab[m] for m in read}
    # the sign first: it orders most pairs without comparing Fractions
    keys = {m: (sign(v), order(v)) for m, v in values.items()}
    out = []
    for a in a_masks:
        best = max(family, key=lambda f: keys[a & f])  # the first of ties
        out.append((values[a & best], best))
    return out


def literal_dominates(tab, candidate_tab, side):
    """Does the candidate dominate mu (-mu when ``side`` is "minus") on
    every domain set?"""
    return all(
        order(neg(v) if side == "minus" else v) <= order(c)
        for v, c in zip(tab, candidate_tab)
        if v is not None
    )


def quasi_integrable(xi_values, probs, mask):
    """Is the positive or the negative part of the weighted atom sum
    finite?  A null atom weighs nothing, whatever its value."""
    weighted = [ZERO if p == 0 else v for v, p in zip(xi_values, probs)]
    return atom_sum(weighted, mask) is not None
