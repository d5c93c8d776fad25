"""The CLI against bench/oracle.py on every small instance.

Every vector over {-inf, -1, 0, 1/2, +inf} on one and two atoms (on up
to three for jordan and hahn), and every probability over {0, 1/2, 1},
goes through ``cli.main`` in process for each command whose answer
bench/oracle.py computes without partmeas.  Each run must exit with the
expected code, print exactly one JSON object and write nothing to
stderr.  tests/corpus/ pins the output bytes; this pins the answers.
"""

import contextlib
import io
import itertools
import json
from fractions import Fraction

import pytest

from partmeas import cli
from oracles import NEG, POS, ZERO, atom_sum, bench

VALUES = (NEG, Fraction(-1), ZERO, Fraction(1, 2), POS)
HALF = Fraction(1, 2)


def vectors(*ks):
    return [list(v) for k in ks for v in itertools.product(VALUES, repeat=k)]


PROBS = [
    list(p)
    for k in (1, 2)
    for p in itertools.product((ZERO, HALF, Fraction(1)), repeat=k)
    if sum(p) == 1
]


def bare(instance):
    """The instance with its space given by its points alone."""
    payload = instance["payload"]
    return {**instance, "payload": {**payload, "space": {"points": payload["space"]["points"]}}}


@pytest.fixture(scope="module")
def check(tmp_path_factory):
    """check(argv, code, want): run ``cli.main`` on argv, where a dict
    stands for an instance file, and compare the printed object with
    want, or its error code with want when want is a string."""
    root = tmp_path_factory.mktemp("instances")
    paths = {}

    def path(instance):
        text = json.dumps(bare(instance))
        if text not in paths:
            paths[text] = root / f"{len(paths)}.json"
            paths[text].write_text(text, encoding="utf-8")
        return str(paths[text])

    def run(argv, code, want):
        argv = [path(a) if isinstance(a, dict) else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            got = cli.main([*argv, "--no-banner"])
        assert (got, err.getvalue()) == (code, ""), argv
        obj = json.loads(out.getvalue())  # one JSON document, nothing after it
        if isinstance(want, str):
            error = obj.get("error")
            assert set(obj) == {"error"} and error["code"] == want, (argv, obj)
            assert set(error) == {"code", "detail"} and isinstance(error["detail"], str)
        else:
            assert obj == want, argv

    return run


def mixes(values):
    return POS in values and NEG in values


def test_validate(check):
    valid = {"valid": True}
    for values in vectors(1, 2):
        for kind in ("maximal", "randomvariable"):
            instance = bench.atom_valued(kind, values)
            check(["validate", instance], 0, {**instance, **valid})
        instance = bench.atom_valued("measure", values)
        if mixes(values):
            check(["validate", instance], 2, "MixedInfinities")
        else:
            check(["validate", instance], 0, {**instance, **valid})
        for mask in range(1 << len(values)):
            if atom_sum(values, mask) is not None:
                instance = bench.partial(values, [mask])
                check(["validate", instance], 0, {**instance, **valid})
    for probs in PROBS:
        instance = bench.probability(probs)
        check(["validate", instance], 0, {**instance, **valid})


def test_jordan(check):
    for values in vectors(1, 2, 3):
        check(["jordan", bench.atom_valued("maximal", values)], 0, bench.jordan(values))


def test_hahn(check):
    for values in vectors(1, 2, 3):
        split = bench.hahn_split(values)
        check(["hahn", bench.atom_valued("maximal", values)], 0, split)
        measure = bench.atom_valued("measure", values)
        check(["hahn", measure], *((2, "MixedInfinities") if mixes(values) else (0, split)))


def test_corollary1(check):
    for values in vectors(1, 2):
        instance = bench.atom_valued("maximal", values)
        for mask in range(1 << len(values)):
            argv = ["corollary1", instance, "--set", bench.key(mask)]
            if atom_sum(values, mask) is None:
                check(argv, 0, bench.corollary1(values, mask))
            else:
                check(argv, 2, "InDomain")


def test_musxi(check):
    for probs in PROBS:
        prob = bench.probability(probs)
        for values in vectors(len(probs)):
            weighted = [bench.times(v, p) for v, p in zip(values, probs)]
            check(
                ["musxi", bench.atom_valued("randomvariable", values), prob],
                0,
                bench.atom_valued("maximal", weighted),
            )


def test_rn(check):
    for probs in PROBS:
        prob = bench.probability(probs)
        for values in vectors(len(probs)):
            argv = ["rn", bench.atom_valued("maximal", values), prob]
            if any(p == 0 and v != 0 for v, p in zip(values, probs)):
                check(argv, 2, "NotAbsContinuous")
            else:
                densities = [bench.density(v, p) for v, p in zip(values, probs)]
                check(argv, 0, bench.atom_valued("randomvariable", densities))


def test_esssup(check):
    for probs in PROBS:
        masks = range(1 << len(probs))
        for a, b in itertools.product(masks, repeat=2):
            check(
                ["esssup", bench.probability(probs), "--set", bench.key(a), "--set", bench.key(b)],
                0,
                bench.ess_sup(probs, (a, b)),
            )
