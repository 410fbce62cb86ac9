"""The package root re-exports the library's names and no submodule."""

import types

import torsionpairs


def test_all_names_resolve_to_the_re_exports_and_no_module():
    assert len(torsionpairs.__all__) == len(set(torsionpairs.__all__))
    for name in torsionpairs.__all__:
        value = getattr(torsionpairs, name)
        assert not isinstance(value, types.ModuleType), name
    assert "decompose" not in torsionpairs.__all__
    assert {"decompose_left", "decompose_right", "enumerate_partitions"} <= set(torsionpairs.__all__)


def test_submodule_import_gives_the_module():
    import torsionpairs.decompose as d

    assert isinstance(d, types.ModuleType)
    assert d.__name__ == "torsionpairs.decompose"
    assert callable(d.decompose)


def test_star_import_binds_no_module():
    namespace = {}
    exec("from torsionpairs import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(torsionpairs.__all__)
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
