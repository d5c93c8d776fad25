import importlib
import re
from pathlib import Path

import pytest

import partmeas

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_api_rows():
    """(name, module) for each row of README's "Library API" table."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    return [
        re.match(r"\| `(\w+)` \| `(\w+)` \|", line).groups()
        for line in section.splitlines()
        if line.startswith("| `")
    ]


def test_all_is_the_readme_table():
    rows = readme_api_rows()
    assert [name for name, _ in rows] == partmeas.__all__
    assert len(partmeas.__all__) == 47
    assert dict(rows) == partmeas._SOURCE


def test_exports_are_declared_once():
    # _EXPORTS is the one list; only modules with names of their own
    # beyond it keep an __all__, and it must agree with _EXPORTS
    for module in ("spaces", "measure", "partial", "density"):
        assert not hasattr(importlib.import_module(f"partmeas.{module}"), "__all__")
    for module in ("extreal", "symbolic"):
        names = importlib.import_module(f"partmeas.{module}").__all__
        shared = set(names) & set(partmeas.__all__)
        assert shared == set(partmeas._EXPORTS[module])
        assert {partmeas._SOURCE[name] for name in shared} == {module}


def test_every_export_resolves_and_is_cached():
    for name in partmeas.__all__:
        value = getattr(partmeas, name)
        assert vars(partmeas)[name] is value


def test_star_import_binds_every_export():
    namespace = {}
    exec("from partmeas import *", namespace)
    assert set(partmeas.__all__) <= set(namespace)


def test_dir_lists_every_export():
    # before first access too: see test_cli's fresh-interpreter probe
    assert set(partmeas.__all__) <= set(dir(partmeas))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        partmeas.no_such_name
    assert not hasattr(partmeas, "no_such_name")


def test_submodules_still_import_from_the_package():
    from partmeas import cli, fuzzing, jsonio

    assert (cli.__name__, fuzzing.__name__, jsonio.__name__) == (
        "partmeas.cli",
        "partmeas.fuzzing",
        "partmeas.jsonio",
    )
