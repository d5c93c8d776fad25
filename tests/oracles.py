"""Independent brute-force oracles used to freeze expected test values.

Everything here recomputes results from first principles: plain set
closure for algebras, linear scans with explicit infinity flags for
evaluations.  Nothing reuses the library's lookup tables or class
machinery, so agreement between the two routes is informative.
"""

from fractions import Fraction

from partmeas import ExtReal, MINUS_INF, PLUS_INF, ZERO


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


def eval_scratch(values, mask):
    """Atom sum over ``mask`` from a raw value vector; None when ill-posed."""
    total = Fraction(0)
    pos = neg = False
    for i, v in enumerate(values):
        if not mask >> i & 1:
            continue
        if v == PLUS_INF:
            pos = True
        elif v == MINUS_INF:
            neg = True
        else:
            total += v.as_fraction()
    if pos and neg:
        return None
    if pos:
        return PLUS_INF
    if neg:
        return MINUS_INF
    return ExtReal(total)


def pos_eval(values, mask):
    """Atom sum for a vector with no -inf entries (always well-posed)."""
    total = Fraction(0)
    for i, v in enumerate(values):
        if not mask >> i & 1:
            continue
        if v == PLUS_INF:
            return PLUS_INF
        total += v.as_fraction()
    return ExtReal(total)


def submasks(mask):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def is_f_plus_scratch(values, mask):
    """Membership in the nonnegative class, recomputed from scratch."""
    if eval_scratch(values, mask) is None:
        return False
    for sub in submasks(mask):
        v = eval_scratch(values, sub)
        if v is None or v.sign() < 0:
            return False
    return True


def is_f_minus_scratch(values, mask):
    if eval_scratch(values, mask) is None:
        return False
    for sub in submasks(mask):
        v = eval_scratch(values, sub)
        if v is None or v.sign() > 0:
            return False
    return True


def brute_f_plus(values, n_atoms):
    return [m for m in range(1 << n_atoms) if is_f_plus_scratch(values, m)]


def brute_f_minus(values, n_atoms):
    return [m for m in range(1 << n_atoms) if is_f_minus_scratch(values, m)]


def quasi_integrable(xi_values, probs, mask):
    """Is the positive or the negative part of the weighted atom sum finite?"""
    pos_infinite = neg_infinite = False
    for i in range(len(xi_values)):
        if not mask >> i & 1:
            continue
        p = probs[i]
        v = xi_values[i]
        if p == 0:
            continue
        if v == PLUS_INF:
            pos_infinite = True
        elif v == MINUS_INF:
            neg_infinite = True
    return not (pos_infinite and neg_infinite)


# ---------------------------------------------------------------------------
# the literal definitions of the decomposition, as the paper states them;
# the library computes the same results in closed form.  They read values
# from a table indexed by mask: scratch_table below, or the library's
# value_table where speed matters (that table is itself checked against
# eval_scratch)


def scratch_table(values, n_atoms):
    """Values of every set by mask, recomputed from scratch; None if ill-posed."""
    return [eval_scratch(values, m) for m in range(1 << n_atoms)]


def family_masks(table, plus):
    """Masks of domain sets all of whose subsets have sign-constrained value.

    Literal brute force: every submask of every candidate is inspected.
    """
    out = []
    for f in range(len(table)):
        if table[f] is None:
            continue
        good = True
        sub = f
        while True:
            v = table[sub]
            if (v < ZERO) if plus else (v > ZERO):
                good = False
                break
            if sub == 0:
                break
            sub = (sub - 1) & f
        if good:
            out.append(f)
    return out


def sup_over_family(table, family, a_mask, flip):
    """sup over F in family of mu(A ∩ F) (negated when ``flip``).

    A ∩ F is a subset of the domain set F, so the lookup never hits an
    ill-posed entry.  Ties keep the first attaining set in canonical
    enumeration order.
    """
    best = None
    best_mask = 0
    for f in family:
        v = table[a_mask & f]
        if flip:
            v = -v
        if best is None or v > best:
            best = v
            best_mask = f
    assert best is not None  # family always contains the empty set
    return best, best_mask


def literal_dominates(table, candidate_table, side):
    """Does the candidate dominate mu (or -mu) on every domain set?"""
    for mask, v in enumerate(table):
        if v is None:
            continue
        if not (-v if side == "minus" else v) <= candidate_table[mask]:
            return False
    return True
