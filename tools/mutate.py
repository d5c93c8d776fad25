"""Mutation testing of one module of src/partmeas, standard library only.

Usage: python3 tools/mutate.py MODULE TEST... [--workdir DIR]
  e.g. python3 tools/mutate.py src/partmeas/measure.py tests/test_measure.py

Not a test: it runs the given tests once per mutant, too slowly for
every push, so CI runs it only when dispatched by hand.  Each mutant
flips one operator of MODULE: a comparison (< and <=, > and >=, == and
!=, in and not in, is and is not), + and -, & and |, and and or, or
drops one `not`.  Type annotations are left alone.  The tests run in a
copy of src/, tests/, bench/ (whose oracle.py the tests import) and
pyproject.toml made under --workdir (the system's temporary directory
by default), so the checkout is never changed.  They run with a fixed
--hypothesis-seed, so a verdict repeats.  A mutant survives when the
tests pass; a run longer than SLOWDOWN times the unmutated run (plus
SLACK_S) kills it, so a mutant that loops forever costs seconds, not
minutes.  Each test run is a process group of its own, killed when it
ends, times out, or the mutator stops on SIGINT or SIGTERM.  Prints each
survivor's line and the counts, and exits 1 when a survivor is not an
equivalent mutant listed in mutants_allow.txt.
"""

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOW = ROOT / "tools" / "mutants_allow.txt"
SLOWDOWN, SLACK_S = 5, 5.0  # bound a mutant run by the unmutated one
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.And: ast.Or, ast.Or: ast.And,
}


class Mutator(ast.NodeTransformer):
    """Counts the mutation sites in visiting order and mutates the target-th."""

    def __init__(self, target: int = -1):
        self.target, self.sites, self.hit = target, 0, None

    def _site(self, node, op) -> bool:
        self.sites += 1
        if self.sites - 1 != self.target:
            return False
        new = "drop" if isinstance(op, ast.Not) else SWAPS[type(op)].__name__
        self.hit = (node.lineno, f"{type(op).__name__} -> {new}")
        return True

    def visit_arg(self, node):  # annotations are not evaluated
        return node

    def visit_FunctionDef(self, node):  # all but the return annotation
        for child in (*node.decorator_list, node.args, *node.body):
            self.visit(child)
        return node

    def visit_AnnAssign(self, node):
        if node.value is not None:
            node.value = self.visit(node.value)
        return node

    def _flip_op(self, node):
        self.generic_visit(node)
        if type(node.op) in SWAPS and self._site(node, node.op):
            node.op = SWAPS[type(node.op)]()
        return node

    visit_BinOp = visit_AugAssign = visit_BoolOp = _flip_op

    def visit_Compare(self, node):
        self.generic_visit(node)
        for j, op in enumerate(node.ops):
            if type(op) in SWAPS and self._site(node, op):
                node.ops[j] = SWAPS[type(op)]()
        return node

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.Not) and self._site(node, node.op):
            return node.operand
        return node


def listed(path: Path, text: str, change: str) -> bool:
    """Does an entry of mutants_allow.txt cover this survivor?"""
    # an entry is "file | source prefix | change | reason"; no line numbers
    for entry in ALLOW.read_text(encoding="utf-8").splitlines():
        if entry.strip() and not entry.startswith("#"):
            name, prefix, op, _ = (part.strip() for part in entry.split("|", 3))
            if name == path.name and text.startswith(prefix) and op == change:
                return True
    return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", type=Path)
    parser.add_argument("tests", nargs="+")
    parser.add_argument("--workdir", default=None)
    args = parser.parse_args()
    # SIGTERM raises SystemExit, so the finally blocks kill the child and
    # remove the work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    module = args.module.resolve().relative_to(ROOT)
    source = (ROOT / module).read_text(encoding="utf-8")
    lines = source.splitlines()
    counter = Mutator()
    counter.visit(ast.parse(source))
    survived = unlisted = timed_out = 0
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        for name in ("src", "tests", "bench"):
            shutil.copytree(ROOT / name, Path(tmp) / name,
                            ignore=shutil.ignore_patterns("__pycache__", "out"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPATH": str(Path(tmp) / "src")}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p",
                   "no:cacheprovider", "--hypothesis-seed=0", *args.tests]

        def passes(timeout: float | None) -> bool:
            nonlocal timed_out
            child = subprocess.Popen(
                command, cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, start_new_session=True)
            try:
                return child.wait(timeout=timeout) == 0
            except subprocess.TimeoutExpired:
                timed_out += 1
                return False
            finally:
                # the group outlives the child when a test left a process behind
                try:
                    os.killpg(child.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                child.wait()

        started = time.monotonic()
        if not passes(None):
            print("the tests fail on the unmutated module")
            return 1
        timeout = SLOWDOWN * (time.monotonic() - started) + SLACK_S
        for target in range(counter.sites):
            mutator = Mutator(target)
            tree = mutator.visit(ast.parse(source))
            (Path(tmp) / module).write_text(ast.unparse(tree), encoding="utf-8")
            if passes(timeout):
                survived += 1
                line, change = mutator.hit
                text = lines[line - 1].strip()
                known = listed(module, text, change)
                unlisted += not known
                print(f"{module}:{line}: {change} survived"
                      f"{' (listed)' if known else ''}: {text}", flush=True)
    print(f"{module}: {counter.sites} mutants, {survived} survived, "
          f"{unlisted} not listed in {ALLOW.relative_to(ROOT)}, "
          f"{timed_out} killed after {timeout:.0f} s")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
