"""The package root re-exports the library's names and no submodule."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

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


# -- what a command loads -------------------------------------------------

SRC = str(Path(torsionpairs.__file__).resolve().parent.parent)
HEAVY = {"dataclasses", "inspect", "fractions", "decimal",
         "torsionpairs.oracle", "torsionpairs.tube", "torsionpairs.tubepairs"}


def _run(*argv, code=0):
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC}, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    return proc


def _imported(*argv, code=0):
    """The modules a fresh interpreter imports to run argv, which ends with
    the exit code, less those a bare interpreter imports too (site start-up
    differs between hosts)."""

    def names(stderr):
        return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines() if line.startswith("import time:")}

    return names(_run("-X", "importtime", *argv, code=code).stderr) - names(_run("-X", "importtime", "-c", "pass").stderr)


def test_importing_the_root_loads_no_submodule():
    loaded = _imported("-c", "import torsionpairs")
    assert "torsionpairs" in loaded
    assert not {name for name in loaded if name.startswith("torsionpairs.")}


def test_a_path_count_loads_no_heavy_module():
    loaded = _imported("-m", "torsionpairs", "count", "--an", "1")
    assert "torsionpairs.cli" in loaded
    assert not loaded & HEAVY


JSON = {"json", "json.decoder", "json.encoder"}


@pytest.mark.parametrize("argv", [("count", "--an", "1"), ("count", "--tube", "2", "--check")])
def test_a_count_loads_no_json(argv):
    # the encoder is built on the first encode and the decoder imported
    # where a certificate is read; a count does neither
    loaded = _imported("-m", "torsionpairs", *argv)
    assert "torsionpairs.cli" in loaded
    assert not loaded & JSON


def _pair_certificate(tmp_path):
    cert = tmp_path / "pair.json"
    cert.write_text(json.dumps({
        "schema": "torsion/1", "category": {"shape": "linearA", "n": 2},
        "torsion": [[1, 1], [1, 2], [2, 2]], "free": [],
    }))
    return str(cert)


def test_a_pair_verify_loads_no_heavy_module(tmp_path):
    loaded = _imported("-m", "torsionpairs", "verify", _pair_certificate(tmp_path))
    assert {"torsionpairs.jsonio", "torsionpairs.torsion"} <= loaded
    assert JSON <= loaded
    assert not loaded & HEAVY


def test_every_name_is_the_object_of_its_defining_module():
    # in a fresh interpreter, so no earlier test has touched the root
    script = (
        "import importlib, torsionpairs\n"
        "for name in torsionpairs.__all__:\n"
        "    value = getattr(torsionpairs, name)\n"
        "    home = importlib.import_module(value.__module__)\n"
        "    assert home.__name__.startswith('torsionpairs.'), name\n"
        "    assert getattr(home, name) is value, name\n"
        "print(len(torsionpairs.__all__))\n"
    )
    assert _run("-c", script).stdout == "87\n"


def test_the_bound_error_is_one_class():
    from torsionpairs import oracle, quiver

    assert torsionpairs.BoundExceededError is oracle.BoundExceededError is quiver.BoundExceededError


def test_a_submodule_is_reachable_as_an_attribute_and_unknown_names_raise():
    proc = _run("-c", "import torsionpairs; print(torsionpairs.oracle.__name__)")
    assert proc.stdout == "torsionpairs.oracle\n"
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        torsionpairs.nonesuch  # noqa: B018
    assert set(torsionpairs.__all__) <= set(dir(torsionpairs))


ARGPARSE = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("argv", [("count", "--an", "1"), ("enumerate", "--tube", "2"), ("verify", "{cert}")])
def test_a_plain_command_loads_no_argparse(argv, tmp_path):
    argv = [_pair_certificate(tmp_path) if arg == "{cert}" else arg for arg in argv]
    loaded = _imported("-m", "torsionpairs", *argv)
    assert "torsionpairs.cli" in loaded
    assert not loaded & ARGPARSE


@pytest.mark.parametrize("argv,code", [(("count", "--help"), 0), (("count", "--bogus"), 2)])
def test_help_and_parse_errors_load_argparse(argv, code):
    assert "argparse" in _imported("-m", "torsionpairs", *argv, code=code)
