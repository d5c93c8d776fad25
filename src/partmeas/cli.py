"""Command-line front end.

Reads instance files, dispatches the library operations, and prints one
JSON object per run.  Exit codes are fixed for scriptability:

  0   success
  1   I/O or schema problem (unreadable file, malformed payload)
  2   domain error; stdout carries {"error": {"code": ..., "detail": ...}}
  3   fuzz found failing properties; the report is still written
  64  usage problem (unknown command, bad flags)

Output is deterministic for identical (command, inputs, seed); pass
--no-banner to drop the version banner when comparing bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__, jsonio
from .density import ess_sup, mu_xi, rn_derivative
from .errors import PartmeasError, SchemaError
from .extreal import ExtReal, parse as parse_value
from .fuzzing import FuzzConfig, run_fuzz
from .measure import Measure, hahn_decomposition
from .partial import (
    MaximalPartialMeasure,
    corollary1_witness,
    jordan_decompose_detailed,
    maximalize,
)
from .symbolic import hahn_failure_check


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which this tool reserves for
    # domain errors; route everything through exit code 64 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="partmeas", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--no-banner", action="store_true",
                        help="omit the version banner from the output")
    common.add_argument("--output", metavar="PATH",
                        help="write the JSON result to PATH instead of stdout")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("validate", parents=[common],
                       help="validate any instance file and echo it normalized")
    p.add_argument("file")

    p = sub.add_parser("maximalize", parents=[common],
                       help="extend a partial instance to a maximal one")
    p.add_argument("file")
    p.add_argument("--fill", metavar="ATOM=VALUE,...", default="",
                   help="values for free atoms, e.g. a=1/2,b=+inf")

    p = sub.add_parser("jordan", parents=[common],
                       help="positive/negative decomposition of a maximal instance")
    p.add_argument("file")

    p = sub.add_parser("hahn", parents=[common],
                       help="positive/negative split of a measure or maximal instance")
    p.add_argument("file")

    p = sub.add_parser("corollary1", parents=[common],
                       help="infinite witnesses inside a set outside the domain")
    p.add_argument("file")
    p.add_argument("--set", required=True, metavar="KEY",
                   help="comma-joined point labels of the target set")

    p = sub.add_parser("musxi", parents=[common],
                       help="integrate a random variable against a probability")
    p.add_argument("rv_file")
    p.add_argument("prob_file")

    p = sub.add_parser("rn", parents=[common],
                       help="density of a maximal instance w.r.t. a probability")
    p.add_argument("file")
    p.add_argument("prob_file")

    p = sub.add_parser("esssup", parents=[common],
                       help="essential supremum of the sets given via --set")
    p.add_argument("prob_file")
    p.add_argument("--set", action="append", required=True, metavar="KEY",
                   dest="sets", help="repeatable; comma-joined point labels")

    p = sub.add_parser("example3", parents=[common],
                       help="symbolic proof report: no positive/negative split")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=10000)

    p = sub.add_parser("fuzz", parents=[common],
                       help="run the seeded property suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-atoms", type=int, default=6)

    return parser


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict; a repeated key is a schema error, since
    json.load would otherwise keep only the last of its values."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SchemaError(f"duplicate key {key!r} in a JSON object")
        obj[key] = value
    return obj


def _load(path: str, expected_kind: str | None = None):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise SchemaError(f"{path}: JSON nesting is too deep") from None
        except MemoryError:
            raise SchemaError(f"{path}: JSON document is too large") from None
    kind, value = jsonio.load_instance(obj)
    if expected_kind is not None and kind != expected_kind:
        raise SchemaError(f"{path}: expected a {expected_kind!r} instance, got {kind!r}")
    return kind, value


def _parse_fill(text: str) -> dict[str, ExtReal]:
    fill: dict[str, ExtReal] = {}
    if not text:
        return fill
    for item in text.split(","):
        label, eq, raw = item.partition("=")
        if not eq or not label:
            raise SchemaError(f"--fill entries must look like atom=value, got {item!r}")
        try:
            fill[label] = parse_value(raw)
        except ValueError as exc:
            raise SchemaError(f"--fill: {exc}") from None
    return fill


def _cmd_validate(args) -> dict:
    kind, value = _load(args.file)
    return {**jsonio.wrap_instance(kind, value), "valid": True}


def _cmd_maximalize(args) -> dict:
    _, pm = _load(args.file, "partial")
    result = maximalize(pm, _parse_fill(args.fill))
    return jsonio.wrap_instance("maximal", result)


def _cmd_jordan(args) -> dict:
    _, mu = _load(args.file, "maximal")
    d = jordan_decompose_detailed(mu)
    labels = mu.space.atom_labels
    return {
        "mu_plus": jsonio.wrap_instance("measure", d.mu_plus),
        "mu_minus": jsonio.wrap_instance("measure", d.mu_minus),
        "attaining_sets": {
            "plus": {lab: d.plus_attaining[i].key() for i, lab in enumerate(labels)},
            "minus": {lab: d.minus_attaining[i].key() for i, lab in enumerate(labels)},
        },
    }


def _cmd_hahn(args) -> dict:
    kind, value = _load(args.file)
    if not isinstance(value, (Measure, MaximalPartialMeasure)):
        raise SchemaError(
            f"{args.file}: hahn needs a measure or maximal instance, got {kind!r}"
        )
    positive, negative = hahn_decomposition(value)
    return {"positive": positive.key(), "negative": negative.key()}


def _cmd_corollary1(args) -> dict:
    _, mu = _load(args.file, "maximal")
    labels = args.set.split(",") if args.set else []
    target = mu.space.set_from_points(labels)
    a_plus, a_minus = corollary1_witness(mu, target)
    return {
        "set": target.key(),
        "a_prime": a_plus.key(),
        "a_double_prime": a_minus.key(),
    }


def _cmd_musxi(args) -> dict:
    _, xi = _load(args.rv_file, "randomvariable")
    _, prob = _load(args.prob_file, "probability")
    return jsonio.wrap_instance("maximal", mu_xi(xi, prob))


def _cmd_rn(args) -> dict:
    _, mu = _load(args.file, "maximal")
    _, prob = _load(args.prob_file, "probability")
    return jsonio.wrap_instance("randomvariable", rn_derivative(mu, prob))


def _cmd_esssup(args) -> dict:
    _, prob = _load(args.prob_file, "probability")
    family = []
    for key in args.sets:
        labels = key.split(",") if key else []
        family.append(prob.space.set_from_points(labels))
    return {"ess_sup": ess_sup(family, prob).key()}


def _cmd_example3(args) -> dict:
    return hahn_failure_check(seed=args.seed, trials=args.trials)


def _cmd_fuzz(args) -> dict:
    cfg = FuzzConfig(seed=args.seed, trials=args.trials, max_atoms=args.max_atoms)
    report, counterexamples = run_fuzz(cfg)
    files = []
    target_dir = Path(args.output).parent if args.output else Path.cwd()
    for example in counterexamples:
        path = target_dir / (
            f"counterexample_{example['property']}_{example['trial']}.json"
        )
        path.write_text(_render(example), encoding="utf-8")
        files.append(str(path))
    if files:
        report["counterexample_files"] = files
    return report


_COMMANDS = {
    "validate": _cmd_validate,
    "maximalize": _cmd_maximalize,
    "jordan": _cmd_jordan,
    "hahn": _cmd_hahn,
    "corollary1": _cmd_corollary1,
    "musxi": _cmd_musxi,
    "rn": _cmd_rn,
    "esssup": _cmd_esssup,
    "example3": _cmd_example3,
    "fuzz": _cmd_fuzz,
}


def _render(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(obj: dict, output: str | None, code: int) -> int:
    """Write obj to output (stdout when None) and return the exit code.

    An output file that cannot be written turns into a Schema error
    object on stdout and exit code 1.
    """
    text = _render(obj)
    if output:
        try:
            Path(output).write_text(text, encoding="utf-8")
            return code
        except OSError as exc:
            text = _render({"error": {"code": "Schema", "detail": str(exc)}})
            code = 1
    sys.stdout.write(text)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 64
    handler = _COMMANDS[args.command]
    try:
        result = handler(args)
    except PartmeasError as exc:
        return _emit({"error": {"code": exc.code, "detail": str(exc)}}, args.output, 2)
    except (SchemaError, json.JSONDecodeError, OSError, ValueError) as exc:
        return _emit({"error": {"code": "Schema", "detail": str(exc)}}, args.output, 1)
    code = 3 if args.command == "fuzz" and result["failures"] else 0
    if not args.no_banner:
        result = {"banner": {"tool": "partmeas", "version": __version__}, **result}
    return _emit(result, args.output, code)


if __name__ == "__main__":
    sys.exit(main())
