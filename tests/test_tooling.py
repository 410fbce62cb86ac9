"""The bench tracer sees every layer each workload is known to load.

`bench/trace_child.py` rebinds library functions by (module, attribute)
name when a benchmark runs with `--trace 1`; a renamed or deleted
function would only surface there.  A `--trace 1` run also fails when
a layer listed in `bench/run.py`'s `ACTIVE` table reads zero, so a
route that stops going through such a layer fails the benchmark; the
gate test below runs a few small commands of each workload through the
tracer and applies the same table.  Both bench scripts are loaded by
path and compiled in memory, so nothing is written under `bench/`.
"""

import json
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

from torsionpairs import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACE_CHILD = BENCH / "trace_child.py"


def _load(path):
    """The script at path as a module; it is in sys.modules only while it
    runs, where its dataclasses look themselves up."""
    module = types.ModuleType(path.stem)
    module.__file__ = str(path)
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def _load_run():
    """bench/run.py and the workloads module it imports.  bench/ is on
    sys.path only while run.py loads; sys.path and the bytecode flag,
    which run.py sets, are restored afterwards."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    try:
        run = _load(BENCH / "run.py")
        workloads = sys.modules.pop("workloads")
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
    return run, workloads


TRACE = _load(TRACE_CHILD)
RUN, WORKLOADS = _load_run()
TARGETS = (
    [target for targets in TRACE.SPANS.values() for target in targets]
    + list(TRACE.COUNTS.values())
    + [("oracle", "hom_dim_matrix")]
)


@pytest.mark.parametrize("module,attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_traced_name_resolves(module, attr):
    assert callable(TRACE._lookup(module, attr))


def test_loading_the_harness_leaves_bench_and_the_interpreter_as_they_were():
    before = sorted(BENCH.rglob("*"))
    path, flag = list(sys.path), sys.dont_write_bytecode
    _load_run()
    assert sorted(BENCH.rglob("*")) == before
    assert (sys.path, sys.dont_write_bytecode) == (path, flag)
    assert "workloads" not in sys.modules and "run" not in sys.modules


def _small_calls(workload, directory):
    """A few small commands of the workload, built and checked the way
    bench/workloads.py builds and checks its own."""
    w = WORKLOADS
    if workload == "path-enumerate":
        return [w._enumerate_an(4, "json"), w._enumerate_an(4, "text"), w._lattice(3)]
    if workload == "tube-classify":
        return [w._enumerate_tube(3, "json"), w._enumerate_tube(3, "text"), w._count_tube(3)]
    rng = random.Random(0)

    def write(name, cert):
        path = directory / f"{name}.json"
        path.write_text(json.dumps(cert), encoding="utf-8")
        return str(path)

    passes = w._check_exact("PASS\n")
    pair, comps, S = w.pair_certificate(rng, [5], False, False, windowed=True)
    return [
        w.Invocation("verify-pair", ["verify", write("pair", pair)], 0, passes, 1),
        w.Invocation("verify-ntp", ["verify", write("ntp", w.ntp_certificate(rng, [4], 2, False, False))],
                     0, passes, 1),
        w.Invocation("decompose", ["decompose", write("pair", pair), "--side", "both"], 0,
                     w._check_exact(w.expected_decomposition(comps, S)), 1),
        w.Invocation("verify-tube", ["verify", write("tube", w.tube_certificate(rng, 3)), "--cap", "4"],
                     0, passes, 1),
        w.Invocation("count-an3", ["count", "--an", "3", "--check"], 0, w._check_exact("14\n"), 0),
    ]


@pytest.mark.parametrize("workload", sorted(RUN.ACTIVE))
def test_small_commands_keep_every_active_layer_nonzero(workload, tmp_path):
    outcomes = []
    for slot, inv in enumerate(_small_calls(workload, tmp_path)):
        summary = tmp_path / f"trace{slot}.json"
        done = subprocess.run(
            [sys.executable, str(TRACE_CHILD), str(summary), "--", *inv.argv],
            env=RUN.child_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == inv.expect_code, (inv.argv, done.stderr[-500:])
        assert inv.check(done.stdout) is None, (inv.argv, inv.check(done.stdout))
        layers = json.loads(summary.read_text(encoding="utf-8"))
        outcomes.append(RUN.Outcome(0.0, 0.0, True, "", layers=layers))
    metrics = RUN.layer_metrics(outcomes)
    assert [name for name in RUN.ACTIVE[workload] if not metrics[name][0]] == []


def test_the_plain_parse_takes_every_benchmarked_argv(tmp_path):
    # every command the benchmark times is parsed without argparse; one the
    # plain parse declined would load argparse, gettext and locale again
    argvs = [inv.argv for inv in WORKLOADS.fixed_invocations()] + [WORKLOADS.SETUP_ARGV]
    for workload in WORKLOADS.WORKLOADS.values():
        for seed in range(4):
            argvs += [inv.argv for inv in workload(random.Random(seed), tmp_path)]
    declined = [argv for argv in argvs if cli._parse_plain(argv) is None]
    assert declined == []
    assert len(argvs) > 100
