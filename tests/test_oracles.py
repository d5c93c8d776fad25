"""tests/oracles.py stays independent of the library it checks."""

import subprocess
import sys
from pathlib import Path

import oracles


def test_oracles_import_nothing_from_partmeas():
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import oracles; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'partmeas'))"
    )
    tests = str(Path(__file__).resolve().parent)
    run = subprocess.run(
        [sys.executable, "-c", probe, tests], capture_output=True, text=True, check=True
    )
    assert run.stdout == "[]\n"


def test_oracles_keep_no_copy_of_a_bench_helper():
    own = {
        name
        for name, value in vars(oracles).items()
        if getattr(value, "__module__", None) == "oracles"
    }
    assert own and not own & set(vars(oracles.bench))
    for name in ("submasks", "atom_sum", "table", "order", "neg"):
        assert getattr(oracles, name) is getattr(oracles.bench, name)

