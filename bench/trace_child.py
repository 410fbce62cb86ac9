"""Run one torsionpairs CLI command with spans around the library layers.

    python3 bench/trace_child.py SUMMARY.json -- <cli arguments>

The wrappers are installed from outside the package: every module
attribute that binds a traced function is rebound to one wrapper, so
re-exports such as `cli.peel` (= `decompose.decompose`) and the names
imported into `decompose`, `cli` and `oracle` are all covered.  Spans
stay in memory; when the command returns, their per-name call counts,
self times and noted values are written to SUMMARY.json.  Stdout is
left to the command.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time

PACKAGE = "torsionpairs"

# span name -> [(module, attribute)], with what to note about the result
SPANS = {
    "cli.main": [("cli", "main")],
    "quiver.enumerate_partitions": [("quiver", "enumerate_partitions")],
    "quiver.validate_partition": [("quiver", "validate_partition")],
    "quiver.subquiver": [("quiver", "subquiver")],
    "intervals.model_for": [("intervals", "model_for")],
    "intervals.model_build": [("intervals", "LinearModel.__init__")],
    "intervals.extension_closure": [("intervals", "extension_closure")],
    "intervals.gen_closure": [("intervals", "gen_closure")],
    "intervals.cogen_closure": [("intervals", "cogen_closure")],
    "torsion.is_torsion_pair": [("torsion", "is_torsion_pair")],
    "torsion.is_ntp": [("torsion", "is_ntp")],
    "torsion.extension_closure": [("torsion", "extension_closure")],
    "decompose.assemble": [("decompose", "assemble")],
    "decompose.decompose": [("decompose", "decompose")],
    "decompose.induced_check": [
        ("decompose", "is_tilting_induced"),
        ("decompose", "is_cotilting_induced"),
    ],
    "tubepairs.enumerate_tube_tps": [("tubepairs", "enumerate_tube_tps")],
    "tubepairs.fingerprint": [("tubepairs", "TubeTorsionPair.fingerprint")],
    "oracle.bruteforce": [("oracle", "bruteforce_torsion_pairs")],
    "oracle.check_tube_tp_truncated": [("oracle", "check_tube_tp_truncated")],
    "jsonio.encode": [
        ("jsonio", "dumps_canonical"),
        ("jsonio", "pair_certificate"),
        ("jsonio", "ntp_certificate"),
        ("jsonio", "tube_certificate"),
        ("jsonio", "decomposition_to_obj"),
    ],
    "jsonio.decode": [
        ("jsonio", "certificate_kind"),
        ("jsonio", "pair_from_obj"),
        ("jsonio", "ntp_from_obj"),
        ("jsonio", "tube_pair_from_obj"),
    ],
}
# what a span notes about its result: verdicts, kept pairs, output bytes
NOTES = {
    "torsion.is_torsion_pair": bool,
    "torsion.is_ntp": bool,
    "decompose.induced_check": bool,
    "oracle.bruteforce": len,
    "jsonio.encode": lambda r: len(r) if isinstance(r, str) else 0,
}
# counted, not timed: hundreds of thousands of calls
COUNTS = {
    "intervals.hom": ("intervals", "LinearModel.hom"),
    "intervals.ext": ("intervals", "LinearModel.ext"),
    "tube.hom_dim_tube": ("tube", "hom_dim_tube"),
    "oracle.quotient_closed_subsets": ("oracle", "_quotient_closed_subsets"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index, note)
        self.stack: list[int] = []
        self.counts = {name: 0 for name in COUNTS}
        self.matrix_args: set = set()
        self.matrix_calls = 0

    def span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index] = (name, start, clock(), parent, None)
            if note is not None:
                spans[index] = spans[index][:4] + (note(result),)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        if name == "oracle.quotient_closed_subsets":

            def generator(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counts[name] += 1
                    yield item

            return generator

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def matrix(self, fn):
        def wrapper(X, Y, quiver=None):
            self.matrix_calls += 1
            self.matrix_args.add((X, Y, quiver))
            return fn(X, Y, quiver)

        return wrapper

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = [package] + [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
            if info.name != "__main__"
        ]
        for name, targets in SPANS.items():
            for module, attr in targets:
                self._rebind(modules, module, attr, self.span(name, _lookup(module, attr)))
        for name, (module, attr) in COUNTS.items():
            self._rebind(modules, module, attr, self.counted(name, _lookup(module, attr)))
        self._rebind(modules, "oracle", "hom_dim_matrix", self.matrix(_lookup("oracle", "hom_dim_matrix")))

    @staticmethod
    def _rebind(modules, module, attr, wrapper) -> None:
        owner = importlib.import_module(f"{PACKAGE}.{module}")
        if "." in attr:  # a method: rebind it on its class
            cls_name, method = attr.split(".")
            setattr(getattr(owner, cls_name), method, wrapper)
            return
        original = getattr(owner, attr)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)

    def summary(self) -> dict:
        child = [0.0] * len(self.spans)
        out: dict = {}
        for name, start, end, parent, note in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, parent, note), inner in zip(self.spans, child):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "noted": 0})
            entry["calls"] += 1
            entry["self_s"] += end - start - inner
            if note is not None:
                entry["noted"] += int(note)
            parent_name = self.spans[parent][0] if parent >= 0 else None
            key = f"{name}<{parent_name}"
            if key in ("intervals.model_build<intervals.model_for",
                       "decompose.induced_check<tubepairs.enumerate_tube_tps"):
                sub = out.setdefault(key, {"calls": 0, "noted": 0})
                sub["calls"] += 1
                sub["noted"] += int(note or 0)
        return {
            "spans": out,
            "counts": self.counts,
            "matrix": {"calls": self.matrix_calls, "distinct": len(self.matrix_args)},
        }


def _lookup(module: str, attr: str):
    obj = importlib.import_module(f"{PACKAGE}.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def main() -> int:
    summary_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_child.py SUMMARY.json -- <cli arguments>")
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    code = cli.main(argv)
    sys.stdout.flush()
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.summary(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
