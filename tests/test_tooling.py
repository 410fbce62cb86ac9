"""The names the bench tracer wraps resolve in the package.

`bench/trace_child.py` rebinds library functions by (module, attribute)
name when a benchmark runs with `--trace 1`; a renamed or deleted
function would only surface there.  The tracer is loaded by path and
compiled in memory, so nothing is written next to it.
"""

import types
from pathlib import Path

import pytest

TRACE_CHILD = Path(__file__).resolve().parents[1] / "bench" / "trace_child.py"


def _load_trace_child():
    module = types.ModuleType("trace_child")
    module.__file__ = str(TRACE_CHILD)
    exec(compile(TRACE_CHILD.read_text(encoding="utf-8"), str(TRACE_CHILD), "exec"), module.__dict__)
    return module


TRACE = _load_trace_child()
TARGETS = (
    [target for targets in TRACE.SPANS.values() for target in targets]
    + list(TRACE.COUNTS.values())
    + [("oracle", "hom_dim_matrix")]
)


@pytest.mark.parametrize("module,attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_traced_name_resolves(module, attr):
    assert callable(TRACE._lookup(module, attr))
