import pytest

import partmeas


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
