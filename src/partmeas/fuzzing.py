"""Seeded random instances and the property suite behind the fuzz command.

Instance generation is reproducible: the stream for a trial is derived
from (seed, property index, trial index) by integer mixing, never from
global state, so trials could run concurrently without changing any
result.  Generated values favour small rationals so counterexamples stay
readable.

Bounded integer draws go through :func:`symbolic._below`, which
reproduces the ``getrandbits`` rejection sampling of ``Random.randrange``
draw for draw, and value kinds are one ``random()`` compared the way ``Random.choices``
bisects it, so the streams are those of the ``random`` calls they
replace.  ``tests/test_fuzzing.py`` guards this with
``test_seeded_builders_draw_a_fixed_stream`` (every value the builders
draw) and ``test_every_property_draws_a_fixed_stream`` (the generator
state after every trial of every property).

Each property replays one invariant of the package on random instances
and raises :class:`PropertyViolation` with a serialized counterexample
when it fails.

No property builds a ``value_table``.  A property reads only the sets
its check needs, through the vector's own ``in_domain_mask`` and
``mask_sum`` (:func:`_vector_value`), or through ``evaluate`` where that
method is what it checks.  A property that needs every set's value
reads each set once into a list (:func:`_vector_table`, or ``evaluate``
over every mask) and then walks the list.

The additivity property compares the values it reads in exact integer
arithmetic, not through ``ExtReal``'s operators (``tests/test_extreal.py``
and the arithmetic properties check those).  The image rule: a list of
values is scaled once to the lcm D of its finite denominators, so a
finite n/d becomes the int n * (D // d); +inf and -inf become ``inf``
and ``-inf`` for an int ``inf`` more than twice every finite image in
size.  Images then compare as their values do, two finite images add as
their values do, and :func:`_image_sum` adds any two images, raising
:class:`IllPosedError` on +inf and -inf as ``ExtReal`` does.  The
decomposition-identity and difference properties check v = p - q on
each set with ``ExtReal``'s subtraction.  The nonnegative class over all
2^k sets is one down-closure pass over the read values
(:func:`_nonnegative_class`), not a walk of every submask of every set.

``FuzzConfig`` takes its equality, hash and repr from its ``__slots__``
through ``symbolic._Fields``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Callable, NoReturn

from . import extreal, jsonio
from .density import (
    Probability,
    RandomVariable,
    ess_sup,
    is_abs_continuous,
    mu_xi,
    rn_derivative,
)
from .errors import (
    IllPosedError,
    MixedInfinitiesInDomainSetError,
    check_int_between,
)
from .extreal import MINUS_INF, PLUS_INF, ZERO, ExtReal
from .measure import AtomVector, Measure, PositiveMeasure, hahn_decomposition
from .partial import (
    MaximalPartialMeasure,
    check_minimality,
    corollary1_witness,
    diff_measures,
    f_plus,
    hahn_partial,
    is_maximal,
    jordan_decompose_detailed,
    jordan_sup,
    maximalize,
    restrict_to,
    single_set_extensions,
    validate_partial,
)
from .spaces import (
    ENUMERATION_CAP,
    FiniteSpace,
    MeasurableSet,
    generate_algebra,
    iter_bits,
    iter_submasks,
    trace_algebra,
)
from .symbolic import (
    SymbolicSet,
    SymbolicValue,
    _below,
    _Fields,
    f_plus_enumeration_oracle,
    mu3,
    random_algebra_member,
    sym_in_algebra,
    sym_in_f_plus,
)

__all__ = [
    "MAX_FUZZ_TRIALS",
    "FuzzConfig",
    "PropertyViolation",
    "generate_random_instance",
    "run_fuzz",
    "PROPERTIES",
]

_MASK64 = (1 << 64) - 1
_LETTERS = "abcdefghijklmnopqrst"

# the chance that a generated probability makes an atom null, and the
# chance that a generated positive measure puts +inf on an atom
_NULL_ATOM_CHANCE = 0.25
_POSITIVE_INF_CHANCE = 0.15
# a generated probability's weights are p/q with p, q in 1..8, scaled to
# ints over the lcm of every possible q
_WEIGHT_DENOM = lcm(*range(1, 9))

# The largest FuzzConfig.trials (the fuzz command's --trials): 100 times
# the default, about 15 s at max_atoms=6 on a 2-CPU VM (Python 3.11).
MAX_FUZZ_TRIALS = 10_000


# the discrete space on the first k letters, at index k - 1: spaces are
# immutable, so every trial of one size shares one
_DISCRETE_SPACES = tuple(
    FiniteSpace.discrete(_LETTERS[:k]) for k in range(1, ENUMERATION_CAP + 1)
)


def _mix(x: int, part: int) -> int:
    # one splitmix64-style round; fixed arithmetic keeps streams identical
    # everywhere
    x = (x + (part & _MASK64)) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _mix64(*parts: int) -> int:
    x = 0x9E3779B97F4A7C15
    for p in parts:
        x = _mix(x, p)
    return x


class FuzzConfig(_Fields):
    """The seed, the trials per property and the largest generated space."""

    __slots__ = ("seed", "trials", "max_atoms")

    def __init__(self, seed: int = 0, trials: int = 100, max_atoms: int = 6):
        check_int_between(seed, 0, _MASK64, "seed must be a 64-bit unsigned integer")
        check_int_between(
            trials, 1, MAX_FUZZ_TRIALS, f"trials must be between 1 and {MAX_FUZZ_TRIALS}"
        )
        check_int_between(
            max_atoms,
            1,
            ENUMERATION_CAP,
            f"max_atoms must be between 1 and {ENUMERATION_CAP}",
        )
        self.seed = seed
        self.trials = trials
        self.max_atoms = max_atoms


class PropertyViolation(Exception):
    def __init__(self, detail: str, instance: dict | None = None):
        super().__init__(detail)
        self.payload = {"detail": detail, "instance": instance or {}}


# ---------------------------------------------------------------------------
# random builders


def _random_finite(rng: random.Random) -> ExtReal:
    return extreal._ratio(_below(rng, 17) - 8, _below(rng, 8) + 1)


def _random_value(rng: random.Random) -> ExtReal:
    # finite, +inf and -inf in the ratio 6:1:1: rng.choices with those
    # weights bisects random() * 8.0 against the running sums 6, 7, 8,
    # and this is that draw and that bisection
    x = rng.random() * 8.0
    if x < 6.0:
        return _random_finite(rng)
    if x < 7.0:
        return PLUS_INF
    return MINUS_INF


def _random_space(rng: random.Random, max_atoms: int) -> FiniteSpace:
    return _DISCRETE_SPACES[_below(rng, max_atoms)]


def _random_maximal(
    rng: random.Random, cfg: FuzzConfig, space: FiniteSpace | None = None
) -> MaximalPartialMeasure:
    if space is None:
        space = _random_space(rng, cfg.max_atoms)
    return MaximalPartialMeasure(
        space, [_random_value(rng) for _ in range(space.n_atoms)]
    )


def _random_total_measure(rng: random.Random, space: FiniteSpace) -> Measure:
    # a total measure may use only one of the infinities
    sign = (1, -1)[_below(rng, 2)]
    vals = []
    for _ in range(space.n_atoms):
        v = _random_value(rng)
        if not v.is_finite and v.sign() != sign:
            v = -v
        vals.append(v)
    return Measure(space, vals)


def _random_positive_measure(
    rng: random.Random, space: FiniteSpace
) -> PositiveMeasure:
    vals = []
    for _ in range(space.n_atoms):
        if rng.random() < _POSITIVE_INF_CHANCE:
            vals.append(PLUS_INF)
        else:
            vals.append(extreal._ratio(_below(rng, 9), _below(rng, 8) + 1))
    return PositiveMeasure(space, vals)


def _random_probability(rng: random.Random, space: FiniteSpace) -> Probability:
    weights = []  # each atom's weight times _WEIGHT_DENOM
    for _ in range(space.n_atoms):
        if rng.random() < _NULL_ATOM_CHANCE:
            weights.append(0)
        else:
            p = _below(rng, 8) + 1
            weights.append(p * (_WEIGHT_DENOM // (_below(rng, 8) + 1)))
    if not any(weights):
        weights[_below(rng, space.n_atoms)] = _WEIGHT_DENOM
    total = sum(weights)
    return Probability(space, [Fraction(w, total) for w in weights])


def _random_ac_pair(
    rng: random.Random, cfg: FuzzConfig
) -> tuple[MaximalPartialMeasure, Probability]:
    """A measure absolutely continuous w.r.t. a probability with null atoms."""
    space = _random_space(rng, cfg.max_atoms)
    prob = _random_probability(rng, space)
    vals = [ZERO if p == ZERO else _random_value(rng) for p in prob.atom_values]
    return MaximalPartialMeasure(space, vals), prob


def generate_random_instance(
    cfg: FuzzConfig, trial: int
) -> tuple[MaximalPartialMeasure, Probability]:
    """The seeded instance stream: one measure and one probability per trial."""
    rng = random.Random(_mix64(cfg.seed, 0, trial))
    space = _random_space(rng, cfg.max_atoms)
    mu = _random_maximal(rng, cfg, space)
    prob = _random_probability(rng, space)
    return mu, prob


def _fail(detail: str, mu: MaximalPartialMeasure | None = None) -> NoReturn:
    raise PropertyViolation(
        detail, None if mu is None else {"mu": jsonio.wrap_instance("maximal", mu)}
    )


def _signed_throughout(
    value: Callable[[int], ExtReal | None], mask: int, sign: int
) -> bool:
    """The literal sign-class test: every submask s of ``mask`` has a
    value ``value(s)`` (None outside the domain) of sign ``sign`` or 0.

    ``value`` is :func:`_vector_value` or a :func:`_vector_table`'s
    ``__getitem__``."""
    for s in iter_submasks(mask):
        v = value(s)
        if v is None or v.sign() == -sign:
            return False
    return True


def _vector_value(mu: AtomVector) -> Callable[[int], ExtReal | None]:
    """A mask's value by ``mu``'s own evaluators; None outside its domain."""

    def value(mask: int) -> ExtReal | None:
        return mu.mask_sum(mask) if mu.in_domain_mask(mask) else None

    return value


def _vector_table(mu: AtomVector) -> list[ExtReal | None]:
    """Every mask's :func:`_vector_value`, indexed by mask."""
    return list(map(_vector_value(mu), range(1 << mu.space.n_atoms)))


def _nonnegative_class(table: list[ExtReal | None]) -> list[bool]:
    """Which masks of a :func:`_vector_table` are in the nonnegative
    class: ``_signed_throughout(table.__getitem__, mask, 1)`` for every
    mask, in one pass.

    Masks are visited in increasing order, so each one-atom-smaller
    submask of a mask is decided before it.  A mask is in the class when
    its value is defined and >= 0 and each of those submasks is in the
    class, which by induction covers every submask: k * 2^k lookups
    instead of 3^k reads.
    """
    member = [False] * len(table)
    for mask, v in enumerate(table):
        if v is None or v.sign() < 0:
            continue
        rest = mask
        while rest:
            low = rest & -rest
            if not member[mask ^ low]:
                break
            rest ^= low
        else:
            member[mask] = True
    return member


def _images(values: list[ExtReal]) -> tuple[list[int], int]:
    """The integer images of ``values`` and the image of +inf.

    A finite n/d becomes n * (D // d) for the lcm D of the finite
    denominators; +inf and -inf become ``inf`` and ``-inf`` for an
    ``inf`` more than twice every finite image in size.  Images compare
    as their values do, and the sum of two finite images is the image of
    the sum of their values.
    """
    denom = 1
    for v in values:
        d = v._d
        if d is not None and denom % d:
            denom = lcm(denom, d)
    images = [0 if v._d is None else v._n * (denom // v._d) for v in values]
    inf = 2 * max(map(abs, images)) + 1
    for i, v in enumerate(values):
        if v._d is None:
            images[i] = inf * v._kind
    return images, inf


def _image_sum(a: int, b: int, inf: int) -> int:
    """The image of the sum of the values of images ``a`` and ``b``.

    Raises IllPosedError, with ``ExtReal``'s text, when one is +inf and
    the other -inf."""
    if a == inf or a == -inf:
        if b == -a:
            raise IllPosedError("+inf + -inf is not well-posed")
        return a
    if b == inf or b == -inf:
        return b
    return a + b


# ---------------------------------------------------------------------------
# arithmetic properties


def _prop_sum_invariance(rng, cfg):
    xs = [_random_value(rng) for _ in range(_below(rng, 9))]
    has_pos = any(v == PLUS_INF for v in xs)
    has_neg = any(v == MINUS_INF for v in xs)
    try:
        total = extreal.sum(xs)
        ill = False
    except IllPosedError:
        ill = True
    if ill != (has_pos and has_neg):
        _fail(f"ill-posedness mismatch for {[str(v) for v in xs]}")
    if ill:
        return
    shuffled = xs[:]
    rng.shuffle(shuffled)
    if extreal.sum(shuffled) != total:
        _fail("sum is not permutation invariant")

    def fold(items):
        if not items:
            return ZERO
        if len(items) == 1:
            return items[0]
        cut = _below(rng, len(items) - 1) + 1
        return fold(items[:cut]) + fold(items[cut:])

    if fold(xs) != total:
        _fail("sum is not bracketing invariant")


def _prop_negation_and_order(rng, cfg):
    x = _random_value(rng)
    y = _random_value(rng)
    if -(-x) != x:
        _fail(f"negation is not an involution on {x}")
    if x.is_finite and x + -x != ZERO:
        _fail(f"{x} plus its negation is not 0")
    lo1, hi1 = sorted((x, y))
    a = _random_value(rng)
    b = _random_value(rng)
    lo2, hi2 = sorted((a, b))
    try:
        left = lo1 + lo2
        right = hi1 + hi2
    except IllPosedError:
        return
    if not left <= right:
        _fail(f"order broke under addition: {lo1}+{lo2} > {hi1}+{hi2}")


def _prop_encoding_roundtrip(rng, cfg):
    x = _random_value(rng)
    text = str(x)
    if extreal.parse(text) != x:
        _fail(f"parse(str({x!r})) changed the value")
    if str(extreal.parse(text)) != text:
        _fail(f"encoding of {text!r} is not canonical")


# ---------------------------------------------------------------------------
# space properties


def _random_generated_space(rng) -> tuple[FiniteSpace, list[str], list[list[str]]]:
    n = _below(rng, 6) + 1
    points = list(_LETTERS[:n])
    gens = [
        rng.sample(points, _below(rng, n + 1)) for _ in range(_below(rng, 4))
    ]
    return generate_algebra(points, gens), points, gens


def _prop_algebra_generation(rng, cfg):
    space, points, gens = _random_generated_space(rng)
    for g in gens:
        space.set_from_points(g)  # every generator must be measurable
    # atoms are maximal unseparated groups: distinct atoms are separated
    for i in range(space.n_atoms):
        for j in range(i + 1, space.n_atoms):
            pi = space.atom_points(i)[0]
            pj = space.atom_points(j)[0]
            if not any((pi in g) != (pj in g) for g in gens):
                _fail(f"atoms {i} and {j} are not separated by any generator")


def _prop_trace_and_demorgan(rng, cfg):
    space, _, _ = _random_generated_space(rng)
    k = space.n_atoms
    b = MeasurableSet(space, _below(rng, 1 << k))
    traced = trace_algebra(space, b)
    if traced.n_atoms != len(b.atom_indices()):
        _fail("trace atom count differs from the atoms inside the set")
    expected_blocks = sorted(
        tuple(space.atom_points(i)) for i in b.atom_indices()
    )
    got_blocks = sorted(
        tuple(traced.atom_points(i)) for i in range(traced.n_atoms)
    )
    if expected_blocks != got_blocks:
        _fail("trace atoms are not exactly the original atoms inside the set")
    if trace_algebra(space, space.full_set()) != space:
        _fail("trace over the whole space changed the space")
    x = MeasurableSet(space, _below(rng, 1 << k))
    y = MeasurableSet(space, _below(rng, 1 << k))
    if (x | y).complement() != x.complement() & y.complement():
        _fail("De Morgan failed for union")
    if (x & y).complement() != x.complement() | y.complement():
        _fail("De Morgan failed for intersection")


# ---------------------------------------------------------------------------
# measure properties


def _prop_measure_additivity(rng, cfg):
    space = _random_space(rng, cfg.max_atoms)
    m = _random_total_measure(rng, space)
    k = space.n_atoms
    # every set is evaluated once; each disjoint pair compares the images
    # of those values.  An int sum that matches a nonzero image is right
    # (one from +inf and -inf is 0), so only the other pairs need
    # _image_sum, which also raises where ExtReal's sum would.
    image, inf = _images(
        [m.evaluate(MeasurableSet(space, mask)) for mask in range(1 << k)]
    )
    for mask, v in enumerate(image):
        for sub in iter_submasks(space.full_mask ^ mask):
            w = image[mask | sub]
            if (w != v + image[sub] or not w) and w != _image_sum(
                v, image[sub], inf
            ):
                _fail(
                    f"additivity failed on {MeasurableSet(space, mask).key()!r}"
                    f" and {MeasurableSet(space, sub).key()!r}"
                )
    if inf in image and -inf in image:
        _fail("a measure attained both +inf and -inf")
    pos = _random_positive_measure(rng, space)
    pos_image, _ = _images(
        [pos.evaluate(MeasurableSet(space, mask)) for mask in range(1 << k)]
    )
    for mask, v in enumerate(pos_image):
        if not pos_image[mask & _below(rng, 1 << k)] <= v:
            _fail("positive measure is not monotone")


def _prop_hahn_total(rng, cfg):
    space = _random_space(rng, cfg.max_atoms)
    m = _random_total_measure(rng, space)
    p, n = hahn_decomposition(m)
    if p.mask & n.mask or p.mask | n.mask != space.full_mask:
        _fail("positive/negative parts do not partition the space")
    value = _vector_value(m)
    if not _signed_throughout(value, p.mask, 1):
        _fail("a subset of the positive part is negative")
    if not _signed_throughout(value, n.mask, -1):
        _fail("a subset of the negative part is positive")


# ---------------------------------------------------------------------------
# partial measure properties


def _random_domain_generators(rng, mu) -> list[MeasurableSet]:
    k = mu.space.n_atoms
    masks = [m for m in range(1 << k) if mu.in_domain_mask(m)]
    return [
        MeasurableSet(mu.space, masks[_below(rng, len(masks))])
        for _ in range(_below(rng, 4))
    ]


def _prop_restriction_validates(rng, cfg):
    mu = _random_maximal(rng, cfg)
    gens = _random_domain_generators(rng, mu)
    pm = restrict_to(mu, gens)
    sets = pm.domain_sets()
    revalidated = validate_partial(
        pm.space, sets, {s: pm.evaluate(s) for s in sets}
    )
    if revalidated != pm:
        _fail("re-validating a restriction changed it", mu=mu)
    for s in sets:
        if not all(pm.in_domain_mask(sub) for sub in iter_submasks(s.mask)):
            _fail("domain is not closed under subsets", mu=mu)
        if pm.evaluate(s) != extreal.sum(
            mu.atom_values[i] for i in iter_bits(s.mask)
        ):
            _fail("restriction value differs from atom sum", mu=mu)


def _prop_disjoint_family_sums(rng, cfg):
    mu = _random_maximal(rng, cfg)
    table = _vector_table(mu)
    fp = [m for m, member in enumerate(_nonnegative_class(table)) if member]
    u = fp[_below(rng, len(fp))]

    def random_partition() -> list[int]:
        nblocks = _below(rng, 3) + 1
        blocks = [0] * nblocks
        for i in iter_bits(u):
            blocks[_below(rng, nblocks)] |= 1 << i
        return blocks

    fam1 = random_partition()
    fam2 = random_partition()
    s1 = extreal.sum(table[b] for b in fam1)
    s2 = extreal.sum(table[b] for b in fam2)
    if not (s1 == s2 == table[u]):
        _fail(f"disjoint families over {u:b} sum differently: {s1} vs {s2}", mu=mu)


def _prop_union_closure(rng, cfg):
    mu = _random_maximal(rng, cfg)
    member = _nonnegative_class(_vector_table(mu))
    fp = [m for m, ok in enumerate(member) if ok]
    members = rng.sample(fp, min(len(fp), _below(rng, 4) + 1))
    union = 0
    for m in members:
        union |= m
    if not member[union]:
        _fail(f"union of nonnegative-class members left the class: {union:b}", mu=mu)


def _prop_jordan_identity(rng, cfg):
    mu = _random_maximal(rng, cfg)
    d = jordan_decompose_detailed(mu)
    value = _vector_value(mu)
    plus, minus = d.mu_plus.mask_sum, d.mu_minus.mask_sum
    for mask in range(1 << mu.space.n_atoms):
        v = value(mask)
        if v is not None:
            if v != plus(mask) - minus(mask):
                _fail(f"decomposition identity failed on mask {mask:b}", mu=mu)
        elif plus(mask) != PLUS_INF or minus(mask) != PLUS_INF:
            _fail(
                f"outside the domain both parts must be +inf (mask {mask:b})", mu=mu
            )


def _prop_jordan_oracle(rng, cfg):
    mu = _random_maximal(rng, cfg)
    d = jordan_decompose_detailed(mu)
    for i, v in enumerate(mu.atom_values):
        expected_plus = v if v > ZERO else ZERO
        expected_minus = -v if v < ZERO else ZERO
        if d.mu_plus.atom_values[i] != expected_plus:
            _fail(f"positive part disagrees with per-atom oracle at atom {i}", mu=mu)
        if d.mu_minus.atom_values[i] != expected_minus:
            _fail(f"negative part disagrees with per-atom oracle at atom {i}", mu=mu)


def _prop_jordan_sup_additive(rng, cfg):
    mu = _random_maximal(rng, cfg)
    k = mu.space.n_atoms
    d = jordan_decompose_detailed(mu)
    a_mask = _below(rng, 1 << k)
    b_mask = _below(rng, 1 << k) & ~a_mask
    a = MeasurableSet(mu.space, a_mask)
    b = MeasurableSet(mu.space, b_mask)
    va, _ = jordan_sup(mu, a, "plus")
    vb, _ = jordan_sup(mu, b, "plus")
    vu, _ = jordan_sup(mu, a | b, "plus")
    if va + vb != vu:
        _fail("the supremum formula is not additive", mu=mu)
    if vu != d.mu_plus.mask_sum(a_mask | b_mask):
        _fail("the supremum formula disagrees with the positive part", mu=mu)


def _prop_minimality(rng, cfg):
    mu = _random_maximal(rng, cfg)
    d = jordan_decompose_detailed(mu)
    rho = _random_positive_measure(rng, mu.space)
    for part, side in ((d.mu_plus, "plus"), (d.mu_minus, "minus")):
        nu = PositiveMeasure(
            mu.space,
            [a + b for a, b in zip(part.atom_values, rho.atom_values)],
        )
        if not check_minimality(mu, nu, side):
            _fail(f"a dominating candidate was rejected on side {side}", mu=mu)
        for mask in range(1 << mu.space.n_atoms):
            if not part.mask_sum(mask) <= nu.mask_sum(mask):
                _fail(f"extremal property failed on side {side}", mu=mu)


def _prop_minimality_rejects(rng, cfg):
    mu = _random_maximal(rng, cfg)
    positive_atoms = [
        i for i, v in enumerate(mu.atom_values) if v > ZERO
    ]
    if not positive_atoms:
        return
    d = jordan_decompose_detailed(mu)
    i = positive_atoms[_below(rng, len(positive_atoms))]
    vals = list(d.mu_plus.atom_values)
    vals[i] = ExtReal(vals[i].as_fraction() / 2) if vals[i].is_finite else ExtReal(1)
    nu = PositiveMeasure(mu.space, vals)
    if check_minimality(mu, nu, "plus"):
        _fail("a candidate strictly below the measure passed", mu=mu)


def _prop_corollary1(rng, cfg):
    mu = _random_maximal(rng, cfg)
    table = _vector_table(mu)
    for mask, v in enumerate(table):
        if v is not None:
            continue
        a = MeasurableSet(mu.space, mask)
        a_plus, a_minus = corollary1_witness(mu, a)
        if not a_plus.is_subset(a) or not a_minus.is_subset(a):
            _fail("witnesses are not subsets", mu=mu)
        if table[a_plus.mask] != PLUS_INF or table[a_minus.mask] != MINUS_INF:
            _fail("witness values are not the infinities", mu=mu)
        if not _signed_throughout(table.__getitem__, a_plus.mask, 1):
            _fail("positive witness fails class membership", mu=mu)
        if not _signed_throughout(table.__getitem__, a_minus.mask, -1):
            _fail("negative witness fails class membership", mu=mu)


def _prop_hahn_partial(rng, cfg):
    mu = _random_maximal(rng, cfg)
    value = _vector_value(mu)
    c, rest = hahn_partial(mu)
    if not _signed_throughout(value, c.mask, 1):
        _fail("positive side fails class membership", mu=mu)
    if not _signed_throughout(value, rest.mask, -1):
        _fail("negative side fails class membership", mu=mu)


def _prop_f_plus_downward(rng, cfg):
    mu = _random_maximal(rng, cfg)
    fp = {s.mask for s in f_plus(mu)}
    if not fp:
        _fail("the nonnegative class lost the empty set", mu=mu)
    f = sorted(fp)[_below(rng, len(fp))]
    sub = _below(rng, 1 << mu.space.n_atoms) & f
    if sub not in fp:
        _fail("the nonnegative class is not closed under subsets", mu=mu)


def _prop_maximality_characterization(rng, cfg):
    mu = _random_maximal(rng, cfg)
    gens = _random_domain_generators(rng, mu)
    pm = restrict_to(mu, gens)
    candidates = single_set_extensions(pm)
    sets = pm.domain_sets()
    if candidates:
        s = candidates[_below(rng, len(candidates))]
        values = {x: pm.evaluate(x) for x in sets}
        # free atoms are stored as 0, the finite choice that admits s
        for sub in iter_submasks(s.mask):
            ms = MeasurableSet(pm.space, sub)
            if ms not in values:
                values[ms] = extreal.sum(pm.atom_values[i] for i in iter_bits(sub))
        extended = validate_partial(pm.space, values.keys(), values)
        if not extended.in_domain(s):
            _fail("claimed single-set extension did not validate", mu=mu)
    mm = maximalize(pm)
    for b in sets:
        if not mm.in_domain(b) or mm.evaluate(b) != pm.evaluate(b):
            _fail("maximalization does not extend the original", mu=mu)
    if (not candidates) != is_maximal(pm):
        _fail("characterization disagrees with is_maximal", mu=mu)
    # maximal: no set outside the domain joins it, with its atoms, at any value
    for mask in range(1 << mm.space.n_atoms):
        if mm.in_domain_mask(mask):
            continue
        s = MeasurableSet(mm.space, mask)
        atoms = {
            MeasurableSet(mm.space, 1 << i): mm.atom_values[i] for i in iter_bits(mask)
        }
        for v in (ZERO, ExtReal(1), PLUS_INF, MINUS_INF):
            try:
                validate_partial(mm.space, [*atoms, s], {**atoms, s: v})
            except MixedInfinitiesInDomainSetError:
                continue
            _fail("maximalization admitted a further extension", mu=mu)


def _prop_diff_measures(rng, cfg):
    space = _random_space(rng, cfg.max_atoms)
    m1 = _random_positive_measure(rng, space)
    m2 = _random_positive_measure(rng, space)
    d = diff_measures(m1, m2)
    for mask in range(1 << space.n_atoms):
        v1 = m1.mask_sum(mask)
        v2 = m2.mask_sum(mask)
        well_posed = not (v1 == PLUS_INF and v2 == PLUS_INF)
        if d.in_domain_mask(mask) != well_posed:
            _fail(f"difference domain is wrong on {MeasurableSet(space, mask).key()!r}")
        if well_posed and d.mask_sum(mask) != v1 - v2:
            _fail(f"difference value is wrong on {MeasurableSet(space, mask).key()!r}")
    shared_inf = any(
        m1.atom_values[i] == PLUS_INF and m2.atom_values[i] == PLUS_INF
        for i in range(space.n_atoms)
    )
    # derived criterion, believed but not quoted from anywhere: the
    # difference is maximal exactly when no atom is infinite in both operands
    if is_maximal(d) != (not shared_inf):
        _fail("difference maximality criterion failed")


# ---------------------------------------------------------------------------
# density properties


def _prop_mu_xi_domain(rng, cfg):
    space = _random_space(rng, cfg.max_atoms)
    prob = _random_probability(rng, space)
    xi = RandomVariable(space, [_random_value(rng) for _ in range(space.n_atoms)])
    m = mu_xi(xi, prob)
    products = []
    for v, p in zip(xi.atom_values, prob.atom_values):
        if p == ZERO:
            products.append(ZERO)
        elif v.is_finite:
            products.append(ExtReal(v.as_fraction() * p.as_fraction()))
        else:
            products.append(v)
    for i, expected in enumerate(products):
        if m.atom_values[i] != expected:
            _fail(f"integrated atom value is wrong at atom {i}")
    pos = sum(1 << i for i, v in enumerate(products) if v == PLUS_INF)
    neg = sum(1 << i for i, v in enumerate(products) if v == MINUS_INF)
    for mask in range(1 << space.n_atoms):
        quasi = not (mask & pos and mask & neg)
        if m.in_domain_mask(mask) != quasi:
            _fail(f"quasi-integrability domain is wrong on mask {mask:b}")


def _prop_rn_round_trip(rng, cfg):
    mu, prob = _random_ac_pair(rng, cfg)
    xi = rn_derivative(mu, prob)
    if mu_xi(xi, prob) != mu:
        _fail("derivative does not integrate back", mu=mu)
    null_atoms = list(iter_bits(prob.null_mask))
    if null_atoms:
        vals = list(xi.atom_values)
        for i in null_atoms:
            vals[i] = _random_value(rng)
        eta = RandomVariable(mu.space, vals)
        if mu_xi(eta, prob) != mu:
            _fail("perturbing a null atom changed the integral", mu=mu)
    non_null = list(iter_bits(prob.nonnull_mask))
    i = non_null[_below(rng, len(non_null))]
    vals = list(xi.atom_values)
    vals[i] = vals[i] + ExtReal(1) if vals[i].is_finite else ZERO
    eta = RandomVariable(mu.space, vals)
    if mu_xi(eta, prob) == mu:
        _fail("perturbing a non-null atom kept the integral", mu=mu)


def _prop_ac_split(rng, cfg):
    mu, prob = _random_ac_pair(rng, cfg)
    value = _vector_value(mu)
    omega_plus = ess_sup(f_plus(mu), prob)
    if not _signed_throughout(value, omega_plus.mask, 1):
        _fail("essential supremum left the nonnegative class", mu=mu)
    if not _signed_throughout(value, omega_plus.complement().mask, -1):
        _fail("its complement left the nonpositive class", mu=mu)


def _prop_ess_sup_definition(rng, cfg):
    space = _random_space(rng, cfg.max_atoms)
    prob = _random_probability(rng, space)
    k = space.n_atoms
    family = [
        MeasurableSet(space, _below(rng, 1 << k))
        for _ in range(_below(rng, 4) + 1)
    ]
    e = ess_sup(family, prob)

    def null(mask: int) -> bool:
        return mask & prob.nonnull_mask == 0

    for f in family:
        if not null(f.mask & ~e.mask):
            _fail("a family member escapes the essential supremum")
    for a_mask in range(1 << k):
        covers_all = all(null(f.mask & ~a_mask) for f in family)
        covers_e = null(e.mask & ~a_mask)
        if covers_all != covers_e:
            _fail(f"defining equivalence failed on mask {a_mask:b}")


def _prop_abs_continuity_criteria(rng, cfg):
    mu = _random_maximal(rng, cfg)
    prob = _random_probability(rng, mu.space)
    atomwise = is_abs_continuous(mu, prob)
    value = _vector_value(mu)
    # None (outside the domain) never equals ZERO
    quantified = all(value(s) == ZERO for s in iter_submasks(prob.null_mask))
    if atomwise != quantified:
        _fail("atom criterion disagrees with the quantified criterion", mu=mu)


# ---------------------------------------------------------------------------
# symbolic model properties


def _prop_symbolic_closure(rng, cfg):
    s = random_algebra_member(rng)
    t = random_algebra_member(rng)
    for derived in (s.complement(), s.union(t), s.intersect(t)):
        if not sym_in_algebra(derived):
            _fail("the modelled algebra is not closed under set operations")
    disjoint = t.intersect(s.complement())
    union = s.union(disjoint)
    vals = {}
    for name, x in (("s", s), ("t", disjoint), ("u", union)):
        vals[name] = mu3(x)
    if SymbolicValue.UNDEFINED not in vals.values():
        as_ext = {
            SymbolicValue.ZERO: ZERO,
            SymbolicValue.PLUS_INFINITY: PLUS_INF,
            SymbolicValue.MINUS_INFINITY: MINUS_INF,
        }
        try:
            total = as_ext[vals["s"]] + as_ext[vals["t"]]
        except IllPosedError:
            _fail("a defined union mixed the infinities")
        if total != as_ext[vals["u"]]:
            _fail("the symbolic function is not additive where defined")


def _prop_symbolic_decision_vs_oracle(rng, cfg):
    c = random_algebra_member(rng)
    decision = sym_in_f_plus(c)
    if decision.member != f_plus_enumeration_oracle(c):
        _fail(f"decision procedure disagrees with the oracle on {c!r}")
    if not decision.member:
        w = decision.counterexample
        if w is None or not w.is_subset(c):
            _fail("missing or stray counterexample witness")
        if mu3(w) is not SymbolicValue.MINUS_INFINITY:
            _fail("counterexample witness does not have value -inf")


def _prop_symbolic_fragment_maximality(rng, cfg):
    c = random_algebra_member(rng)
    if mu3(c) is not SymbolicValue.UNDEFINED:
        return
    s_plus = SymbolicSet.singleton_b(c.b_part.first_id())
    s_minus = SymbolicSet.singleton_bc(c.bc_part.first_id())
    if not s_plus.is_subset(c) or not s_minus.is_subset(c):
        _fail("infinite singletons are not inside the undefined set")
    if mu3(s_plus) is not SymbolicValue.PLUS_INFINITY:
        _fail("distinguished-half singleton is not +inf")
    if mu3(s_minus) is not SymbolicValue.MINUS_INFINITY:
        _fail("complementary-half singleton is not -inf")


PROPERTIES = [
    ("sum_permutation_and_bracketing", _prop_sum_invariance),
    ("negation_and_order_compatibility", _prop_negation_and_order),
    ("value_encoding_roundtrip", _prop_encoding_roundtrip),
    ("algebra_generation_minimality", _prop_algebra_generation),
    ("trace_atoms_and_de_morgan", _prop_trace_and_demorgan),
    ("measure_additivity_and_monotonicity", _prop_measure_additivity),
    ("total_measure_hahn_split", _prop_hahn_total),
    ("restriction_revalidates", _prop_restriction_validates),
    ("disjoint_families_sum_equally", _prop_disjoint_family_sums),
    ("nonnegative_class_union_closure", _prop_union_closure),
    ("decomposition_identity", _prop_jordan_identity),
    ("decomposition_matches_atom_oracle", _prop_jordan_oracle),
    ("sup_formula_is_additive", _prop_jordan_sup_additive),
    ("decomposition_is_minimal", _prop_minimality),
    ("domination_check_rejects", _prop_minimality_rejects),
    ("outside_domain_witnesses", _prop_corollary1),
    ("finite_scale_hahn_split", _prop_hahn_partial),
    ("nonnegative_class_downward_closed", _prop_f_plus_downward),
    ("maximality_characterization", _prop_maximality_characterization),
    ("difference_of_positive_measures", _prop_diff_measures),
    ("integration_domain_is_quasi_integrability", _prop_mu_xi_domain),
    ("derivative_round_trip_and_uniqueness", _prop_rn_round_trip),
    ("absolutely_continuous_split", _prop_ac_split),
    ("essential_supremum_definition", _prop_ess_sup_definition),
    ("absolute_continuity_criteria_agree", _prop_abs_continuity_criteria),
    ("symbolic_algebra_closure_and_additivity", _prop_symbolic_closure),
    ("symbolic_decision_matches_oracle", _prop_symbolic_decision_vs_oracle),
    ("symbolic_fragment_maximality", _prop_symbolic_fragment_maximality),
]


def run_fuzz(cfg: FuzzConfig) -> tuple[dict, list[dict]]:
    """Run every property for cfg.trials seeded trials.

    Returns the report plus a list of counterexample payloads (at most
    one per property, the first failing trial).  An unexpected exception
    counts as a failure like a :class:`PropertyViolation`.
    """
    property_reports = []
    counterexamples = []
    total_failures = 0
    # one generator, reseeded per trial: the same state as a new one
    rng = random.Random()
    for prop_index, (name, fn) in enumerate(PROPERTIES):
        failures = 0
        # _mix64(seed, prop_index + 1, trial), with the first two rounds
        # mixed once per property
        prop_state = _mix64(cfg.seed, prop_index + 1)
        for trial in range(cfg.trials):
            rng.seed(_mix(prop_state, trial))
            try:
                fn(rng, cfg)
            except Exception as exc:
                failures += 1
                if failures > 1:
                    continue
                if isinstance(exc, PropertyViolation):
                    payload = exc.payload
                else:
                    payload = {
                        "detail": f"unexpected {type(exc).__name__}: {exc}",
                        "instance": {},
                    }
                counterexamples.append(
                    {"property": name, "trial": trial, "seed": cfg.seed, **payload}
                )
        total_failures += failures
        property_reports.append(
            {"name": name, "trials": cfg.trials, "failures": failures}
        )
    report = {
        "seed": cfg.seed,
        "trials": cfg.trials,
        "max_atoms": cfg.max_atoms,
        "failures": total_failures,
        "properties": property_reports,
    }
    return report, counterexamples
