"""Line coverage of the tier-1 tests over src/partmeas, standard library only.

Usage: python3 tools/linecov.py  (not a test; slow, so CI runs it on one job)

Runs the tier-1 tests in this process under a sys.settrace tracer and
prints each statement line of src/partmeas (the first line of a statement
that compiles to code) that never ran and that no entry of
linecov_allow.txt covers; exits 1 if there is one or a test failed.
Tracing exceeds the wall-time bound of one test, which is deselected.
"""

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "partmeas"
PREFIX = str(SRC) + os.sep
DESELECT = "tests/test_acceptance.py::test_criterion_1_jordan_identity"
ran: dict[str, set[int]] = {}


def _local(frame, event, arg):
    if event == "line":
        ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    if frame.f_code.co_filename.startswith(PREFIX):
        ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return _local
    return None


def statement_lines(source: str) -> set[int]:
    compiled, stack = set(), [compile(source, "<src>", "exec")]
    while stack:
        code = stack.pop()
        compiled.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    stmts = {n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.stmt)}
    return stmts & compiled


def main() -> int:
    import pytest

    # an entry is "file | source prefix | reason"; no line numbers
    allow = [
        [part.strip() for part in entry.split("|", 2)]
        for entry in (ROOT / "tools" / "linecov_allow.txt").read_text().splitlines()
        if entry.strip() and not entry.startswith("#")
    ]
    # read before the run, so the line numbers are those of the code that ran
    sources = {p: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC.parent))
    sys.settrace(_global)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--deselect", DESELECT])
    finally:
        sys.settrace(None)
    unrun = allowed = 0
    for path, source in sources.items():
        lines = source.splitlines()
        for no in sorted(statement_lines(source) - ran.get(str(path), set())):
            text = lines[no - 1].strip()
            if any(f == path.name and text.startswith(p) for f, p, _ in allow):
                allowed += 1
                continue
            unrun += 1
            print(f"{path.relative_to(ROOT)}:{no}: {text}")
    print(f"deselected {DESELECT}: it bounds its own wall time, which tracing exceeds")
    print(f"{unrun} unrun statement lines outside the allowlist, {allowed} allowlisted")
    return 1 if unrun or status else 0


if __name__ == "__main__":
    sys.exit(main())
