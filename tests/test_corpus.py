"""Golden CLI corpus: every subcommand replayed byte for byte.

``corpus/cases.json`` lists each case's argv (relative to ``corpus/``)
and exit code; ``corpus/expected/<name>.out`` holds the exact stdout.
The recorded outputs are the reference: a library change that alters
any byte of CLI output fails here.
"""

import json
from pathlib import Path

import pytest

from partmeas.cli import main

CORPUS = Path(__file__).resolve().parent / "corpus"
CASES = json.loads((CORPUS / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_is_byte_identical(case, capsys, monkeypatch):
    monkeypatch.chdir(CORPUS)
    code = main(case["argv"])
    captured = capsys.readouterr()
    expected = (CORPUS / "expected" / f"{case['name']}.out").read_text(encoding="utf-8")
    assert code == case["exit"]
    assert captured.out == expected
    assert captured.err == ""
