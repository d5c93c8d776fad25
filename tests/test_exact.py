"""The exactness rule as a check: no float enters src/partmeas.

Every module is parsed.  A float literal, a call to ``float``, ``round``
or ``.random()``, and a true division each fail the test unless an entry
of tools/floats_allow.txt covers the site.  An entry is
"file | source prefix | reason", as in tools/linecov_allow.txt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOW = ROOT / "tools" / "floats_allow.txt"


def float_sites(source):
    """Line numbers of the float literals, float/round/.random() calls
    and true divisions in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno
        elif isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id in ("float", "round")
            or isinstance(node.func, ast.Attribute) and node.func.attr == "random"
        ):
            yield node.lineno
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno


def test_the_scan_flags_every_kind_of_site():
    source = "a = 0.5\nb = float(x)\nc = round(x)\nd = rng.random()\ne = x / y\nx /= 2\nf = x // 2\ng = 1j\n"
    assert sorted(set(float_sites(source))) == [1, 2, 3, 4, 5, 6, 8]


def test_no_float_outside_the_allowlist():
    entries = []
    for line in ALLOW.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, prefix, _ = (part.strip() for part in line.split("|", 2))
            entries.append((name, prefix))
    unlisted, used = [], set()
    for path in sorted((ROOT / "src" / "partmeas").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for lineno in sorted(set(float_sites(source))):
            text = lines[lineno - 1].strip()
            covering = {e for e in entries if e[0] == path.name and text.startswith(e[1])}
            used |= covering
            if not covering:
                unlisted.append(f"{path.name}:{lineno}: {text}")
    assert unlisted == []
    assert used == set(entries), "an allowlist entry covers no site"
