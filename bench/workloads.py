"""The three workloads: how an op reaches the program and how it is checked.

Each workload turns plain seeded data from gen.py into program inputs
(``prepare``, outside any timing), runs one op through the public API or
the CLI (``run``, the timed part), and compares the op's output with the
oracles in oracle.py (``check``, outside any timing).  ``counts`` gives
the op's deterministic counts, which must repeat exactly on one seed.

Every call into the program goes through ``tr.call(span name, ...)``;
with ``spans.Untraced`` that is a plain call.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import count
from pathlib import Path

import gen
import oracle
from oracle import LETTERS, NEG, POS
from spans import Untraced
from partmeas import (
    MINUS_INF,
    PLUS_INF,
    ExtReal,
    FiniteSpace,
    MeasurableSet,
    PositiveMeasure,
    check_minimality,
    cli,
    corollary1_witness,
    fuzzing,
    hahn_partial,
    jordan_decompose_detailed,
    jsonio,
    maximalize,
    validate_partial,
    value_table,
)

_UNTRACED = Untraced()


def to_ext(v) -> ExtReal:
    if v == POS:
        return PLUS_INF
    if v == NEG:
        return MINUS_INF
    return ExtReal(v)


def from_ext(v):
    """The oracle form of a program value; None stays None."""
    if v is None:
        return None
    if v.is_finite:
        return v.as_fraction()
    return POS if v.sign() > 0 else NEG


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


class Workload:
    name = ""
    # the standard modules partmeas.cli imports, for the startup reference
    STARTUP_IMPORTS = "import argparse, dataclasses, fractions, json, pathlib, random, re"

    def __init__(self, env: dict):
        self.env = env

    def setup(self, seed: int) -> None:
        """Set up inputs for ``seed`` and warm up; repeated, then timed."""

    def block(self, seed: int, index: int) -> list:
        raise NotImplementedError

    def ops(self, seed: int):
        for b in count():
            yield from self.block(seed, b)

    def trace_ops(self, seed: int) -> list:
        """The fixed op list of one traced pass."""
        return self.block(seed, 0)

    def prepare(self, op):
        return op

    def run(self, prepared, tr):
        raise NotImplementedError

    def check(self, op, prepared, out) -> list[str]:
        raise NotImplementedError

    def counts(self, op, out) -> Counter:
        return Counter()

    def describe(self, op) -> dict:
        """Op shape recorded in the mix and the trace."""
        return {}

    def reference_s(self) -> float:
        """Seconds of a fixed in-process computation in the program's idiom
        (exact rationals and dicts) that uses nothing from the program."""
        t0 = time.perf_counter()
        total, seen = Fraction(0), {}
        for i in range(1, 600):
            total += Fraction(i % 7 - 3, i % 5 + 1)
            seen[i & 63] = total
        return time.perf_counter() - t0

    def startup_reference_s(self) -> float:
        """Seconds of a fresh interpreter importing STARTUP_IMPORTS."""
        t0 = time.perf_counter()
        # with pipes the wait after EOF is short; without them a wait with a
        # timeout polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", self.STARTUP_IMPORTS],
                       capture_output=True, env=self.env, check=True, timeout=120)
        return time.perf_counter() - t0

    def cpu(self) -> float:
        return time.process_time()

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def tracing(self, tracer):
        """Context in force during a traced pass."""
        return contextlib.nullcontext()

    def layer_pass(self, fixed, results, tracer) -> list[str]:
        """Extra per-layer timing after a traced pass; returns problems."""
        return []

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------


class Decompose(Workload):
    """The maximal-partial-measure pipeline at k = 6..11 atoms."""

    name = "decompose"

    def setup(self, seed):
        for case in gen.decompose_block(seed, 0):
            if case.k <= 8:
                self.run(self.prepare(case), _UNTRACED)

    def block(self, seed, index):
        return gen.decompose_block(seed, index)

    def prepare(self, case):
        space = FiniteSpace.discrete(LETTERS[: case.k])
        closed = sorted({m for g in case.generators for m in oracle.submasks(g)})
        sets = [MeasurableSet(space, m) for m in closed]
        values = {s: to_ext(oracle.atom_sum(case.values, s.mask)) for s in sets}
        fill = {LETTERS[i]: to_ext(case.values[i]) for i in oracle.bits(case.free)}
        plus, _ = oracle.parts(case.values)
        outside = None if case.outside is None else MeasurableSet(space, case.outside)
        return {
            "space": space,
            "closed": closed,
            "sets": sets,
            "values": values,
            "fill": fill,
            "plus_candidate": PositiveMeasure(space, [to_ext(v) for v in plus]),
            "minus_candidate": PositiveMeasure(
                space, [to_ext(v) for v in case.minus_candidate]
            ),
            "outside": outside,
        }

    def run(self, p, tr):
        pm = tr.call("partial.validate_partial", validate_partial,
                     p["space"], p["sets"], p["values"])
        mu = tr.call("partial.maximalize", maximalize, pm, p["fill"])
        table = tr.call("partial.value_table", value_table, mu)
        d = tr.call("partial.jordan_decompose_detailed", jordan_decompose_detailed, mu)
        dominates_plus = tr.call("partial.check_minimality", check_minimality,
                                 mu, p["plus_candidate"], "plus")
        dominates_minus = tr.call("partial.check_minimality", check_minimality,
                                  mu, p["minus_candidate"], "minus")
        witness = None
        if p["outside"] is not None:
            witness = tr.call("partial.corollary1_witness", corollary1_witness,
                              mu, p["outside"])
        split = tr.call("partial.hahn_partial", hahn_partial, mu)
        return pm, mu, table, d, dominates_plus, dominates_minus, witness, split

    def check(self, case, p, out):
        pm, mu, table, d, dom_plus, dom_minus, witness, split = out
        vals = list(case.values)
        problems: list[str] = []
        domain = pm.domain_sets()
        _expect(problems, "validate_partial domain", [s.mask for s in domain], p["closed"])
        _expect(problems, "validate_partial values",
                [from_ext(pm.evaluate(s)) for s in domain],
                [oracle.atom_sum(vals, s.mask) for s in domain])
        _expect(problems, "maximalize", [from_ext(v) for v in mu.atom_values], vals)
        _expect(problems, "value_table", [from_ext(v) for v in table], oracle.table(vals))
        plus, minus = oracle.parts(vals)
        _expect(problems, "positive part", [from_ext(v) for v in d.mu_plus.atom_values], plus)
        _expect(problems, "negative part", [from_ext(v) for v in d.mu_minus.atom_values], minus)
        att_plus, att_minus = oracle.attaining(vals)
        _expect(problems, "plus attaining sets", [s.mask for s in d.plus_attaining], att_plus)
        _expect(problems, "minus attaining sets", [s.mask for s in d.minus_attaining], att_minus)
        _expect(problems, "check_minimality plus", dom_plus, True)
        _expect(problems, "check_minimality minus", dom_minus,
                oracle.dominates(case.minus_candidate, minus))
        if case.outside is not None:
            _expect(problems, "corollary1_witness",
                    (witness[0].mask, witness[1].mask),
                    oracle.witnesses(vals, case.outside))
        positive = oracle.hahn(vals)
        _expect(problems, "hahn_partial", (split[0].mask, split[1].mask),
                (positive, ((1 << case.k) - 1) ^ positive))
        return problems

    def counts(self, case, out):
        # four calls quantify over all 2^k sets: value_table,
        # jordan_decompose_detailed and check_minimality twice
        return Counter({
            "partial.sets_enumerated": 4 << case.k,
            "partial.f_plus_size": 1 << case.n_ge0,
            "partial.f_minus_size": 1 << case.n_le0,
        })

    def describe(self, case):
        return {"k": case.k, "shape": case.shape,
                "atoms_ge0": case.n_ge0, "atoms_le0": case.n_le0}


# ---------------------------------------------------------------------------


class Fuzz(Workload):
    """run_fuzz at 10 trials per property on at most 6 atoms."""

    name = "fuzz"
    seeds_per_block = 4
    trials = 10
    max_atoms = 6

    def __init__(self, env: dict, property_layers: dict[str, str]):
        super().__init__(env)
        self.property_layers = property_layers

    def setup(self, seed):
        fuzzing.run_fuzz(fuzzing.FuzzConfig(seed=seed, trials=1))

    def block(self, seed, index):
        return gen.fuzz_seeds(seed, index, self.seeds_per_block)

    def prepare(self, s):
        return fuzzing.FuzzConfig(seed=s, trials=self.trials, max_atoms=self.max_atoms)

    def run(self, cfg, tr):
        return tr.call("fuzzing.run_fuzz", fuzzing.run_fuzz, cfg)

    def check(self, s, cfg, out):
        report, counterexamples = out
        problems: list[str] = []
        _expect(problems, "failures", report["failures"], 0)
        _expect(problems, "counterexamples", counterexamples, [])
        _expect(problems, "seed", report["seed"], s)
        _expect(problems, "properties",
                sorted((p["name"], p["trials"], p["failures"]) for p in report["properties"]),
                sorted((name, self.trials, 0) for name in self.property_layers))
        return problems

    def counts(self, s, out):
        return Counter({"fuzz.trials": sum(p["trials"] for p in out[0]["properties"])})

    @contextlib.contextmanager
    def tracing(self, tracer):
        """Wrap every entry of fuzzing.PROPERTIES in a span for the pass."""
        original = list(fuzzing.PROPERTIES)

        def wrap(name, fn):
            span = f"fuzzing.{name}"
            return lambda rng, cfg: tracer.call(span, fn, rng, cfg)

        fuzzing.PROPERTIES[:] = [(name, wrap(name, fn)) for name, fn in original]
        try:
            yield
        finally:
            fuzzing.PROPERTIES[:] = original


# ---------------------------------------------------------------------------


class Cli(Workload):
    """One ``python -m partmeas.cli`` process per op on a seeded corpus."""

    name = "cli"
    example3_trials = 30
    fuzz_args = ("--trials", "1", "--max-atoms", "3")

    def __init__(self, env: dict, workdir: Path):
        super().__init__(env)
        self.workdir = workdir
        self.groups: dict = {}
        self.normalized: dict[str, dict] = {}

    # -- corpus -----------------------------------------------------------

    def _write(self, name: str, obj: dict, normalized: dict | None) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        if normalized is not None:
            self.normalized[str(path)] = normalized
        return str(path)

    def _write_group(self, g: gen.CliGroup) -> dict[str, str]:
        k = g.k
        labels = LETTERS[:k]
        discrete = {"points": list(labels)}
        points = LETTERS[: k + 2]

        def atom_file(kind, field, values):
            return {"kind": kind, "payload": {
                "space": discrete, field: oracle.atom_map(values)}}

        partial_sets = sorted(
            set(g.partial_generators)
            | {1 << i for m in g.partial_generators for i in oracle.bits(m)}
        )
        partial = {"kind": "partial", "payload": {
            "space": discrete,
            "domain": [[labels[i] for i in oracle.bits(m)] for m in partial_sets],
            "values": {oracle.key(m): str(oracle.atom_sum(g.partial_values, m))
                       for m in partial_sets},
        }}
        bad = atom_file("maximal", "atom_values", g.maximal)
        del bad["payload"]["atom_values"][labels[-1]]
        return {
            "space": self._write(f"space{k}.json", {"kind": "space", "payload": {
                "points": list(points),
                "generators": [[points[j] for j in gg] for gg in g.space_generators],
            }}, oracle.partition_space(points, g.space_blocks)),
            "measure": self._write(f"measure{k}.json",
                                   atom_file("measure", "values", g.measure),
                                   oracle.atom_valued("measure", g.measure)),
            "partial": self._write(f"partial{k}.json", partial,
                                   oracle.partial(g.partial_values, g.partial_generators)),
            "maximal": self._write(f"maximal{k}.json",
                                   atom_file("maximal", "atom_values", g.maximal),
                                   oracle.atom_valued("maximal", g.maximal)),
            "probability": self._write(f"probability{k}.json",
                                       {"kind": "probability", "payload": {
                                           "space": discrete,
                                           "probs": oracle.atom_map(g.probs)}},
                                       oracle.probability(g.probs)),
            "randomvariable": self._write(f"rv{k}.json",
                                          atom_file("randomvariable", "values", g.rv),
                                          oracle.atom_valued("randomvariable", g.rv)),
            "ac": self._write(f"ac{k}.json",
                              atom_file("maximal", "atom_values", g.maximal_ac),
                              oracle.atom_valued("maximal", g.maximal_ac)),
            "bad": self._write(f"bad{k}.json", bad, None),
        }

    def setup(self, seed):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.normalized = {}
        self.groups = {}
        for k in gen.CLI_KS:
            g = gen.cli_group(seed, k)
            self.groups[k] = (g, self._write_group(g))
        self.run(self.prepare(("validate-maximal", gen.CLI_KS[-1], 0)), _UNTRACED)

    def close(self):
        for path in self.workdir.glob("*.json"):
            path.unlink()
        with contextlib.suppress(OSError):
            self.workdir.rmdir()

    # -- ops --------------------------------------------------------------

    def block(self, seed, index):
        return gen.cli_block(seed, index)

    def prepare(self, op):
        """(argv, expected exit code, expected object or a checker)."""
        command, k, s = op
        g, f = self.groups[k]
        labels = LETTERS[:k]
        if command.startswith("validate-") and command != "validate-bad-schema":
            path = f[command[len("validate-"):]]
            return ["validate", path], 0, {**self.normalized[path], "valid": True}
        if command == "maximalize":
            values = list(g.partial_values)
            values[g.partial_free] = g.fill
            fill = f"{labels[g.partial_free]}={g.fill}"
            return (["maximalize", f["partial"], "--fill", fill], 0,
                    oracle.atom_valued("maximal", values))
        if command == "jordan":
            return ["jordan", f["maximal"]], 0, oracle.jordan(g.maximal)
        if command == "hahn-measure":
            return ["hahn", f["measure"]], 0, oracle.hahn_split(g.measure)
        if command == "hahn-maximal":
            return ["hahn", f["maximal"]], 0, oracle.hahn_split(g.maximal)
        if command == "corollary1":
            return (["corollary1", f["maximal"], "--set", oracle.key(g.outside)], 0,
                    oracle.corollary1(g.maximal, g.outside))
        if command == "musxi":
            values = [oracle.times(v, p) for v, p in zip(g.rv, g.probs)]
            return (["musxi", f["randomvariable"], f["probability"]], 0,
                    oracle.atom_valued("maximal", values))
        if command == "rn":
            values = [oracle.density(v, p) for v, p in zip(g.maximal_ac, g.probs)]
            return (["rn", f["ac"], f["probability"]], 0,
                    oracle.atom_valued("randomvariable", values))
        if command == "esssup":
            a, b = g.ess_sets
            return (["esssup", f["probability"], "--set", oracle.key(a),
                     "--set", oracle.key(b)], 0, oracle.ess_sup(g.probs, (a, b)))
        if command == "example3":
            return (["example3", "--seed", str(s), "--trials", str(self.example3_trials)],
                    0, self._check_example3(s))
        if command == "fuzz":
            return ["fuzz", "--seed", str(s), *self.fuzz_args], 0, self._check_fuzz(s)
        if command == "corollary1-in-domain":
            return (["corollary1", f["maximal"], "--set", oracle.key(g.inside)], 2,
                    self._check_error("InDomain"))
        if command == "validate-bad-schema":
            return ["validate", f["bad"]], 1, self._check_error("Schema")
        raise ValueError(f"unknown command {command!r}")

    def _check_example3(self, s):
        def check(obj, problems):
            _expect(problems, "example3 summary",
                    (obj.get("hahn_split_exists"), obj.get("counterexamples"),
                     obj.get("trials"), obj.get("seed")),
                    (False, 0, self.example3_trials, s))
            steps = obj.get("steps")
            if not steps or not all(step.get("holds") is True for step in steps):
                problems.append(f"example3: not every step holds: {steps!r}")
        return check

    def _check_fuzz(self, s):
        trials, max_atoms = int(self.fuzz_args[1]), int(self.fuzz_args[3])

        def check(obj, problems):
            _expect(problems, "fuzz summary",
                    (obj.get("failures"), obj.get("seed"), obj.get("trials"),
                     obj.get("max_atoms"), "counterexample_files" in obj),
                    (0, s, trials, max_atoms, False))
            props = obj.get("properties") or []
            _expect(problems, "fuzz properties",
                    (len(props), sum(p.get("failures", 1) for p in props)),
                    (len(fuzzing.PROPERTIES), 0))
        return check

    @staticmethod
    def _check_error(code):
        def check(obj, problems):
            err = obj.get("error")
            if (not isinstance(err, dict) or err.get("code") != code
                    or not isinstance(err.get("detail"), str) or set(obj) != {"error"}):
                problems.append(f"expected an error object with code {code!r}, got {obj!r}")
        return check

    def argv(self, prepared) -> list[str]:
        return [*prepared[0], "--no-banner"]

    def run(self, prepared, tr):
        proc = tr.call("cli.process", subprocess.run,
                       [sys.executable, "-m", "partmeas.cli", *self.argv(prepared)],
                       capture_output=True, env=self.env, cwd=self.workdir, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, op, prepared, out):
        code, stdout, stderr = out
        _, want_code, want = prepared
        problems: list[str] = []
        _expect(problems, f"{op[0]} exit code", code, want_code)
        if stderr:
            problems.append(f"{op[0]}: stderr {stderr[:200]!r}")
        try:
            obj = json.loads(stdout)
        except ValueError:
            obj = None
        if not isinstance(obj, dict):
            problems.append(f"{op[0]}: stdout is not a JSON object: {stdout[:200]!r}")
        elif callable(want):
            want(obj, problems)
        else:
            _expect(problems, op[0], obj, want)
        return problems

    def counts(self, op, out):
        return Counter({"cli.bytes_out": len(out[1]), f"cli.exit_{out[0]}": 1})

    def describe(self, op):
        return {"command": op[0], "k": op[1]}

    def reference_s(self):
        # process start and imports dominate an op, and they follow the
        # host's speed differently from in-process work
        return self.startup_reference_s()

    def cpu(self):
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        return ru.ru_utime + ru.ru_stime

    def peak_rss_mib(self):
        # the largest child this process has waited for
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def layer_pass(self, fixed, results, tracer):
        """cli.main in-process on every op, then load/wrap/render per file.

        In-process output must match the subprocess output byte for byte.
        """
        problems: list[str] = []
        for (op, prepared), result in zip(fixed, results):
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    got = tracer.call("cli.main", cli.main, self.argv(prepared))
            except SystemExit as exc:  # argparse exits on a usage error
                got = exc.code
            if result is None or (got, buf.getvalue().encode()) != result[:2]:
                problems.append(f"{op[0]}: in-process cli.main differs from the process")
            for path in prepared[0][1:]:
                want = self.normalized.get(path)
                if want is None:
                    continue
                obj = json.loads(Path(path).read_text(encoding="utf-8"))
                try:
                    kind, value = tracer.call("jsonio.load_instance",
                                              jsonio.load_instance, obj)
                    wrapped = tracer.call("jsonio.wrap_instance", jsonio.wrap_instance,
                                          kind, value)
                    tracer.call("cli.render", json.dumps, wrapped, indent=2, sort_keys=True)
                except Exception as exc:  # a failed call is a failed check
                    problems.append(f"{path} load/wrap: {type(exc).__name__}: {exc}")
                    continue
                _expect(problems, f"{path} load/wrap", wrapped, want)
        return problems


def make(name: str, env: dict, workdir: Path, property_layers: dict) -> Workload:
    if name == "decompose":
        return Decompose(env)
    if name == "fuzz":
        return Fuzz(env, property_layers)
    if name == "cli":
        return Cli(env, workdir)
    raise ValueError(f"unknown workload {name!r}")
