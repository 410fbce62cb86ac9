"""End-to-end and per-layer benchmark of the torsionpairs CLI.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from the
checkout's src/ through PYTHONPATH and nothing is installed.  One client
runs CLI commands as child processes in a closed loop, one at a time.
A workload is a fixed, seeded batch of commands (bench/workloads.py);
the batch repeats until about S seconds have passed.

--trace 0 reports the end-to-end metrics: batch wall time, items per
second, pooled per-command latency (median and tail), set-up time of a
no-work command, and peak child memory.  --trace 1 alternates untraced
and traced batches (bench/trace_child.py) and reports per-layer call
counts, self times and ratios, plus the tracing overhead.

Every stdout is checked: exact SHA-256 digests recorded in
bench/digests.json for the fixed commands, closed-form counts
(Catalan(n+1) on the path, binom(2r, r) on the tube), expected
certificate verdicts and exit codes.  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it
holds provenance and details.  `--workload all` runs the three workloads
in turn, prints each metric with its unit and the error rate per
workload, and ends with the combined result.  `--record-digests`
rewrites digests.json from the current program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True
from workloads import SETUP_ARGV, SETUP_STDOUT, WORKLOADS, Invocation, fixed_invocations  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"

SETUP_REPEATS = 8  # no-work calls before the batches, and as many after
CALL_TIMEOUT_S = 90.0
RUN_DEADLINE_S = 150.0  # no new batch starts after this, whatever --seconds says

# per-command medians quoted by the ROADMAP baseline (s); the CLI adds
# interpreter start, argument parsing and output to the library times
BASELINE_S = {
    "enumerate-an8": 5.7,
    "enumerate-tube6": 2.8,
    "lattice-an6": 1.1,
    "verify-pair-n24": 2.3,
}

# per-layer metrics that must be nonzero on a workload: a zero means the
# trace missed a layer the workload is known to load, so the run fails
ACTIVE = {
    "path-enumerate": ["cli.main.self_s", "quiver.enumerate_partitions.calls",
                       "quiver.subquiver.calls", "intervals.model_build.count",
                       "intervals.extension_closure.calls", "torsion.is_torsion_pair.calls",
                       "decompose.assemble.calls", "jsonio.encode.bytes"],
    "tube-classify": ["cli.main.self_s", "quiver.validate_partition.calls",
                      "intervals.model_build.count", "decompose.decompose.calls",
                      "decompose.induced_check.calls", "tubepairs.enumerate_tube_tps.self_s",
                      "tubepairs.fingerprint.calls", "jsonio.encode.bytes"],
    "certify": ["cli.main.self_s", "intervals.model_build.count", "torsion.is_torsion_pair.calls",
                "torsion.is_ntp.calls", "decompose.decompose.calls", "oracle.bruteforce.calls",
                "oracle.check_tube_tp_truncated.calls", "jsonio.decode.calls"],
}


@dataclass
class Outcome:
    latency_s: float
    rss_mb: float
    ok: bool
    digest: str
    error: str = ""
    layers: dict = field(default_factory=dict)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Runner:
    """Runs CLI calls through bench/spawner.py and checks their outputs."""

    def __init__(self, workdir: Path, digests: dict, deadline: float) -> None:
        self.workdir = workdir
        self.digests = digests
        self.deadline = deadline
        self.spawner = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), text=True,
        )

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait(timeout=CALL_TIMEOUT_S)

    def spawn(self, argv: list[str], out: Path, err: Path, timeout: float) -> tuple:
        """Run argv with stdout/stderr to files; return (seconds, exit code, max RSS in MB)."""
        request = {"argv": argv, "stdout": str(out), "stderr": str(err), "timeout": timeout}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        return reply["seconds"], reply["code"], reply["rss_mb"]

    def execute(self, inv: Invocation, slot: int, traced: bool) -> tuple:
        out = self.workdir / f"out{slot}.txt"
        err = self.workdir / f"err{slot}.txt"
        summary = self.workdir / f"trace{slot}.json"
        if traced:
            argv = [sys.executable, str(BENCH / "trace_child.py"), str(summary), "--", *inv.argv]
        else:
            argv = [sys.executable, "-m", "torsionpairs", *inv.argv]
        timeout = max(1.0, min(CALL_TIMEOUT_S, self.deadline - time.monotonic()))
        return self.spawn(argv, out, err, timeout)

    def collect(self, inv: Invocation, slot: int, traced: bool, latency, code, rss) -> Outcome:
        """Read back and check what execute() left in the work directory."""
        stdout = (self.workdir / f"out{slot}.txt").read_bytes()
        stderr = (self.workdir / f"err{slot}.txt").read_text(errors="replace")
        outcome = Outcome(latency, rss, True, hashlib.sha256(stdout).hexdigest())
        outcome.error = self.judge(inv, code, stdout, stderr, outcome.digest)
        outcome.ok = not outcome.error
        if traced and outcome.ok:
            try:
                outcome.layers = json.loads((self.workdir / f"trace{slot}.json").read_text())
            except (OSError, ValueError) as exc:
                outcome.ok, outcome.error = False, f"no trace summary: {exc}"
        return outcome

    def call(self, inv: Invocation, slot: int, traced: bool) -> Outcome:
        return self.collect(inv, slot, traced, *self.execute(inv, slot, traced))

    def judge(self, inv: Invocation, code: int, stdout: bytes, stderr: str, digest: str) -> str:
        if code != inv.expect_code:
            return f"exit code {code}, want {inv.expect_code}: {stderr.strip()[-200:]}"
        if "Traceback" in stderr:
            return "traceback on stderr"
        if inv.fixed:
            want = self.digests.get(" ".join(inv.argv))
            if want is not None and want != digest:
                return "stdout digest differs from the recorded one"
            if want is None and self.digests:
                return "no recorded digest for this command"
        try:
            problem = inv.check(stdout.decode())
        except (ValueError, IndexError) as exc:
            problem = f"unreadable stdout: {exc}"
        return problem or ""

    def batch(self, calls: list[Invocation], traced: bool) -> tuple[float, list[Outcome]]:
        """Run the calls back to back; outputs are checked after the clock stops."""
        start = time.perf_counter()
        raw = [self.execute(inv, slot, traced) for slot, inv in enumerate(calls)]
        wall = time.perf_counter() - start
        return wall, [self.collect(inv, slot, traced, *r) for slot, (inv, r) in enumerate(zip(calls, raw))]


# -- metrics ---------------------------------------------------------------------


def tail(samples: list[float], per_batch: int) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it in one
    batch, read off the pooled samples, and that percentile.

    The rank comes from the batch, not the pool, so the percentile stays
    the same however many batches a run fits.
    """
    ordered = sorted(samples)
    batches = len(ordered) // per_batch
    rank = max(per_batch - 10, 1)
    return ordered[rank * batches - 1], 100 * rank // per_batch


def end_to_end(calls, batches, setup) -> tuple[dict, dict]:
    walls = [wall for wall, _ in batches]
    latencies = [o.latency_s for _, outs in batches for o in outs]
    wall = statistics.median(walls)
    items = sum(inv.items for inv in calls)
    tail_s, tail_p = tail(latencies, len(calls))
    metrics = {
        "wall_s": (wall, "s"),
        "items_per_s": (items / wall, "1/s"),
        "cmd_p50_s": (statistics.median(latencies), "s"),
        "cmd_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(max(o.rss_mb for o in outs) for _, outs in batches), "MB"),
    }
    by_label: dict[str, list[float]] = {}
    for _, outs in batches:
        for inv, o in zip(calls, outs):
            by_label.setdefault(inv.label, []).append(o.latency_s)
    per_command = {k: round(statistics.median(v), 4) for k, v in sorted(by_label.items())}
    details = {
        "batches": len(batches),
        "commands_per_batch": len(calls),
        "items_per_batch": items,
        "cmd_samples": len(latencies),
        "cmd_tail_percentile": tail_p,
        "setup_samples": len(setup),
        "per_command_median_s": per_command,
        "baseline_s": {k: {"roadmap": v, "measured": per_command[k]}
                       for k, v in BASELINE_S.items() if k in per_command},
    }
    return metrics, details


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(outcomes: list[Outcome]) -> dict:
    """Per-layer metrics of one traced batch: the child summaries summed."""
    spans: dict[str, dict] = {}
    counts: dict[str, int] = {}
    matrix = {"calls": 0, "distinct": 0}
    for o in outcomes:
        if not o.layers:
            continue
        for name, entry in o.layers["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "noted": 0})
            for key, value in entry.items():
                acc[key] = acc.get(key, 0) + value
        for name, value in o.layers["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for key in matrix:
            matrix[key] += o.layers["matrix"][key]

    def get(name: str, key: str):
        return spans.get(name, {}).get(key, 0)

    out: dict[str, tuple[float, str]] = {"cli.main.self_s": (get("cli.main", "self_s"), "s")}
    for name in ("quiver.enumerate_partitions", "quiver.validate_partition", "quiver.subquiver",
                 "intervals.extension_closure", "intervals.gen_closure", "intervals.cogen_closure",
                 "torsion.is_torsion_pair", "torsion.is_ntp", "torsion.extension_closure",
                 "decompose.assemble", "decompose.decompose", "decompose.induced_check",
                 "tubepairs.fingerprint", "oracle.bruteforce", "oracle.check_tube_tp_truncated",
                 "jsonio.decode"):
        out[f"{name}.calls"] = (get(name, "calls"), "count")
        out[f"{name}.self_s"] = (get(name, "self_s"), "s")
    for name in ("torsion.is_torsion_pair", "torsion.is_ntp"):
        calls = get(name, "calls")
        out[f"{name}.fail_ratio"] = (_ratio(calls - get(name, "noted"), calls), "ratio")
    builds = get("intervals.model_build", "calls")
    lookups = get("intervals.model_for", "calls")
    misses = get("intervals.model_build<intervals.model_for", "calls")
    out["intervals.model_build.count"] = (builds, "count")
    out["intervals.model_build.self_s"] = (get("intervals.model_build", "self_s"), "s")
    out["intervals.model_for.hit_ratio"] = (_ratio(lookups - misses, lookups), "ratio")
    out["intervals.hom.calls"] = (counts.get("intervals.hom", 0), "count")
    out["intervals.ext.calls"] = (counts.get("intervals.ext", 0), "count")
    out["tubepairs.enumerate_tube_tps.self_s"] = (get("tubepairs.enumerate_tube_tps", "self_s"), "s")
    induced = "decompose.induced_check<tubepairs.enumerate_tube_tps"
    out["tubepairs.kept_ratio"] = (_ratio(get(induced, "noted"), get(induced, "calls")), "ratio")
    out["tube.hom_dim_tube.calls"] = (counts.get("tube.hom_dim_tube", 0), "count")
    out["oracle.bruteforce.kept_ratio"] = (
        _ratio(get("oracle.bruteforce", "noted"), counts.get("oracle.quotient_closed_subsets", 0)),
        "ratio",
    )
    out["oracle.hom_dim_matrix.calls"] = (matrix["calls"], "count")
    out["oracle.hom_dim_matrix.distinct_ratio"] = (_ratio(matrix["distinct"], matrix["calls"]), "ratio")
    out["jsonio.encode.self_s"] = (get("jsonio.encode", "self_s"), "s")
    out["jsonio.encode.bytes"] = (get("jsonio.encode", "noted"), "bytes")
    return out


# -- provenance ------------------------------------------------------------------


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    tree = hashlib.sha256()
    for path in sorted((SRC / "torsionpairs").glob("*.py")):
        tree.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": tree.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "seed": seed,
    }


def check_package(env: dict) -> str | None:
    """Error text unless `torsionpairs` resolves to this checkout's src/."""
    if not (SRC / "torsionpairs" / "__init__.py").is_file():
        return f"no package sources under {SRC}"
    probe = subprocess.run(
        [sys.executable, "-c", "import torsionpairs; print(torsionpairs.__file__)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    where = Path(probe.stdout.strip() or "/nonexistent").resolve()
    if probe.returncode != 0 or SRC.resolve() not in where.parents:
        return f"torsionpairs resolves to {where}, not under {SRC}: {probe.stderr.strip()[-200:]}"
    return None


def record_digests(workdir: Path) -> int:
    """Write the stdout digests of every fixed command of every workload."""
    runner = Runner(workdir, {}, time.monotonic() + 600)
    digests = {}
    try:
        for inv in fixed_invocations():
            outcome = runner.call(inv, 0, traced=False)
            if not outcome.ok:
                print(f"{' '.join(inv.argv)}: {outcome.error}", file=sys.stderr)
                return 1
            digests[" ".join(inv.argv)] = outcome.digest
    finally:
        runner.close()
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {DIGESTS.relative_to(ROOT)}")
    return 0


# -- main ------------------------------------------------------------------------


def run(args, workload: str, workdir: Path) -> dict:
    t_start = time.monotonic()
    runner = Runner(workdir, json.loads(DIGESTS.read_text()), t_start + RUN_DEADLINE_S)
    try:
        return measure(args, workload, workdir, runner, t_start)
    finally:
        runner.close()


def measure(args, workload: str, workdir: Path, runner: Runner, t_start: float) -> dict:
    prov = provenance(args.seed)
    calls = WORKLOADS[workload](random.Random(args.seed), workdir)
    failures: list[str] = []
    attempted = 0

    def account(outcomes: list[Outcome], calls: list[Invocation]) -> None:
        nonlocal attempted
        attempted += len(outcomes)
        failures.extend(f"{inv.label} {' '.join(inv.argv)}: {o.error}"
                        for inv, o in zip(calls, outcomes) if not o.ok)

    def more(walls: list[float]) -> bool:
        """Start another round while it would mostly fit in --seconds."""
        estimate = statistics.median(walls)
        measured = time.monotonic() - t_measure
        return (measured + estimate / 2 < args.seconds
                and time.monotonic() - t_start + estimate < RUN_DEADLINE_S)

    setup_inv = Invocation("setup", SETUP_ARGV, 0, lambda out: None if out == SETUP_STDOUT else
                           f"stdout {out!r} != {SETUP_STDOUT!r}", 0)
    details: dict = {}
    if args.trace == 0:
        setup: list[float] = []

        def measure_setup() -> None:
            for _ in range(SETUP_REPEATS):
                o = runner.call(setup_inv, 0, traced=False)
                account([o], [setup_inv])
                setup.append(o.latency_s)

        measure_setup()
        t_measure = time.monotonic()
        batches = []
        while True:
            batches.append(runner.batch(calls, traced=False))
            account(batches[-1][1], calls)
            if not more([w for w, _ in batches]):
                break
        measure_setup()
        values, details = end_to_end(calls, batches, setup)
    else:
        t_measure = time.monotonic()
        rounds = []
        while True:
            plain = runner.batch(calls, traced=False)
            traced = runner.batch(calls, traced=True)
            account(plain[1], calls)
            account(traced[1], calls)
            for inv, p, t in zip(calls, plain[1], traced[1]):
                if p.ok and t.ok and p.digest != t.digest:
                    failures.append(f"{inv.label}: traced stdout differs from untraced")
            rounds.append((plain[0], traced[0], traced[1]))
            if not more([p + t for p, t, _ in rounds]):
                break
        per_round = [layer_metrics(outs) for _, _, outs in rounds]
        values = {name: (statistics.median(r[name][0] for r in per_round), unit)
                  for name, (_, unit) in per_round[0].items()}
        failures.extend(f"active layer metric {name} is zero"
                        for name in ACTIVE[workload] if not values[name][0])
        ratio = statistics.median(t for _, t, _ in rounds) / statistics.median(p for p, _, _ in rounds)
        values["trace.overhead_ratio"] = (ratio, "ratio")
        details = {"rounds": len(rounds), "commands_per_batch": len(calls)}
    prov["loadavg_after"] = os.getloadavg()
    details.update(error_rate=len(failures) / max(attempted, 1), failures=failures[:20])
    print(json.dumps({"workload": workload, "trace": args.trace, "provenance": prov,
                      "details": details}, sort_keys=True))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite bench/digests.json from the current program")
    args = parser.parse_args()
    if not args.record_digests and args.workload is None:
        parser.error("--workload is required")
    problem = check_package(child_env())
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    if args.record_digests:
        return with_workdir(record_digests)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: with_workdir(lambda workdir: run(args, name, workdir)) for name in names}
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            print(f"{name:15s} {metric:40s} {entry['value']:12.6g} {entry['unit']}")
        print(f"{name:15s} {'error_rate':40s} {result['failed'] / result['attempted']:12.6g} ratio")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def with_workdir(job):
    """Run job(workdir) in a fresh work directory inside the benchmark's own."""
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        return job(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
