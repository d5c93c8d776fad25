"""Seeded workload inputs as plain data.

Nothing here imports partmeas: the program only ever sees what these
functions generate.  Every stream is derived from the workload seed by
``random.Random`` on a text key, so the same seed gives the same inputs
in every process.

Instance shapes are fixed per (k, shape): how many atoms are positive,
negative, zero or infinite does not depend on the seed, only where they
sit and their exact values do.  The work of the literal F+/F- walk
depends on those counts, so a run's cost barely moves from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import oracle
from oracle import NEG, POS, ZERO

SHAPES = ("nonneg", "mixed", "inf")
DECOMPOSE_KS = tuple(range(6, 12))
CLI_KS = tuple(range(3, 9))


def stream(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _signed(rng: random.Random, sign: int) -> Fraction:
    return Fraction(sign * rng.randint(1, 9), rng.randint(1, 6))


def _finite(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


# ---------------------------------------------------------------------------
# decompose


@dataclass(frozen=True)
class DecomposeCase:
    """One maximal-partial-measure pipeline.

    ``values`` is the atom vector the pipeline must reconstruct: the
    atoms under ``generators`` reach the program through a trace-closed
    domain, the atoms of ``free`` through the maximalize fill.
    """

    k: int
    shape: str
    values: tuple
    generators: tuple[int, ...]
    free: int
    minus_candidate: tuple
    outside: int | None

    @property
    def n_ge0(self) -> int:
        return sum(oracle.order(v) >= oracle.order(ZERO) for v in self.values)

    @property
    def n_le0(self) -> int:
        return sum(oracle.order(v) <= oracle.order(ZERO) for v in self.values)


def decompose_case(rng: random.Random, k: int, shape: str) -> DecomposeCase:
    # one zero atom in every shape, so ties reach the canonical tie-breaks
    kinds = [0]
    if shape == "inf":
        kinds += [POS, NEG]
    n_neg = 0 if shape == "nonneg" else (k - len(kinds)) // 2
    kinds += [-1] * n_neg
    kinds += [1] * (k - len(kinds))
    rng.shuffle(kinds)
    values = tuple(
        t if t in (POS, NEG) else (ZERO if t == 0 else _signed(rng, t))
        for t in kinds
    )

    # two free atoms; the -inf atom is always free so no generator mixes
    # the infinities, and the +inf atom always sits under a generator
    candidates = [i for i, v in enumerate(values) if v not in (POS, NEG)]
    free = rng.sample(candidates, 1 if shape == "inf" else 2)
    free += [i for i, v in enumerate(values) if v == NEG]
    determined = [i for i in range(k) if i not in free]
    rng.shuffle(determined)
    n = len(determined)
    a = (2 * n + 2) // 3
    generators = (
        oracle.mask_of(determined[:a]),
        oracle.mask_of(determined[n - a:]),
    )

    _, minus = oracle.parts(values)
    cand = list(minus)
    finite_pos = [i for i, v in enumerate(minus) if v not in (POS, NEG) and v > 0]
    if finite_pos and rng.random() < 0.5:
        cand[rng.choice(finite_pos)] = ZERO  # no longer dominates
    else:
        finite = [i for i, v in enumerate(minus) if v not in (POS, NEG)]
        cand[rng.choice(finite)] += 1

    outside = None
    if shape == "inf":
        others = [i for i, v in enumerate(values) if v not in (POS, NEG)]
        outside = oracle.mask_of(
            [values.index(POS), values.index(NEG)]
            + rng.sample(others, rng.randint(0, len(others)))
        )
    return DecomposeCase(
        k, shape, values, generators, oracle.mask_of(free), tuple(cand), outside
    )


def decompose_block(seed: int, block: int) -> list[DecomposeCase]:
    """Every (k, shape) pair once, in a seeded order."""
    rng = stream("decompose", seed, block)
    pairs = [(k, s) for k in DECOMPOSE_KS for s in SHAPES]
    rng.shuffle(pairs)
    return [decompose_case(rng, k, s) for k, s in pairs]


# ---------------------------------------------------------------------------
# fuzz


def fuzz_seeds(seed: int, block: int, count: int) -> list[int]:
    rng = stream("fuzz", seed, block)
    return [rng.getrandbits(63) for _ in range(count)]


# ---------------------------------------------------------------------------
# cli


@dataclass(frozen=True)
class CliGroup:
    """The instance files of one atom count k, as plain data."""

    k: int
    space_blocks: tuple[tuple[int, ...], ...]
    space_generators: tuple[tuple[int, ...], ...]
    measure: tuple
    partial_values: tuple
    partial_generators: tuple[int, ...]
    partial_free: int
    fill: Fraction | str
    maximal: tuple
    outside: int
    inside: int
    probs: tuple
    rv: tuple
    maximal_ac: tuple
    ess_sets: tuple[int, int]


def cli_group(seed: int, k: int) -> CliGroup:
    rng = stream("cli-corpus", seed, k)

    # a coarser algebra: k atoms over k + 2 points, one block left implicit
    n_points = k + 2
    order = list(range(n_points))
    rng.shuffle(order)
    blocks = [[j] for j in order[:k]]
    for j in order[k:]:
        blocks[rng.randrange(k)].append(j)
    gens = [list(b) for b in blocks]
    del gens[rng.randrange(k)]
    for g in gens:
        rng.shuffle(g)

    measure = [_finite(rng) for _ in range(k)]
    measure[rng.randrange(k)] = rng.choice((POS, NEG))

    # partial: atom 'free' is left to the fill, the rest sit under two
    # generators that never mix the infinities
    free = rng.randrange(k)
    pvals = [_finite(rng) for _ in range(k)]
    pvals[rng.choice([i for i in range(k) if i != free])] = POS
    determined = [i for i in range(k) if i != free]
    rng.shuffle(determined)
    half = (len(determined) + 1) // 2
    pgens = (oracle.mask_of(determined[:half]), oracle.mask_of(determined[half - 1:]))
    fill = rng.choice((_signed(rng, 1), NEG))

    maximal = [_finite(rng) for _ in range(k)]
    i_pos, i_neg = rng.sample(range(k), 2)
    maximal[i_pos], maximal[i_neg] = POS, NEG
    outside = oracle.mask_of([i_pos, i_neg]) | rng.getrandbits(k)
    inside = (rng.getrandbits(k) | 1 << i_pos) & ~(1 << i_neg)

    null = rng.sample(range(k), 1 + (k > 4))
    weights = [0 if i in null else rng.randint(1, 8) for i in range(k)]
    probs = [Fraction(w, sum(weights)) for w in weights]
    rv = [_finite(rng) for _ in range(k)]
    rv[null[0]] = rng.choice((POS, NEG))
    rv[rng.choice([i for i in range(k) if i not in null])] = rng.choice((POS, NEG))
    ac = [ZERO if i in null else _finite(rng) for i in range(k)]
    ac[rng.choice([i for i in range(k) if i not in null])] = POS
    ess = (rng.randrange(1, 1 << k), rng.randrange(1, 1 << k))

    return CliGroup(
        k,
        tuple(tuple(b) for b in blocks),
        tuple(tuple(g) for g in gens),
        tuple(measure),
        tuple(pvals),
        pgens,
        free,
        fill,
        tuple(maximal),
        outside,
        inside,
        tuple(probs),
        tuple(rv),
        tuple(ac),
        ess,
    )


# one op per entry in every block; the last two must fail
CLI_COMMANDS = (
    "validate-space",
    "validate-measure",
    "validate-partial",
    "validate-maximal",
    "validate-probability",
    "validate-randomvariable",
    "maximalize",
    "jordan",
    "hahn-measure",
    "hahn-maximal",
    "corollary1",
    "musxi",
    "rn",
    "esssup",
    "example3",
    "fuzz",
    "corollary1-in-domain",
    "validate-bad-schema",
)


def cli_block(seed: int, block: int) -> list[tuple[str, int, int]]:
    """(command, k, seed for seeded subcommands) for every command once."""
    rng = stream("cli", seed, block)
    ops = [(c, rng.choice(CLI_KS), rng.getrandbits(31)) for c in CLI_COMMANDS]
    rng.shuffle(ops)
    return ops
