import importlib
import sys
from itertools import combinations_with_replacement

import pytest
from hypothesis import settings

from torsionpairs.decompose import enumerate_torsion_pairs
from torsionpairs.torsion import TorsionPairSeries

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def all_series(q, length):
    """Every nested chain of torsion pairs of the given length on q.

    Nested classes of equal size coincide, so sorting a candidate multiset
    by torsion-class size puts it in nesting order if any order works.
    """
    pairs = enumerate_torsion_pairs(q)
    seen = set()
    out = []
    for combo in combinations_with_replacement(range(len(pairs)), length):
        chain = sorted(
            (pairs[i] for i in combo),
            key=lambda tp: (len(tp.torsion), sorted((X.a, X.b) for X in tp.torsion)),
        )
        if all(a.torsion <= b.torsion for a, b in zip(chain, chain[1:])):
            series = TorsionPairSeries(tuple(chain))
            if series not in seen:
                seen.add(series)
                out.append(series)
    return out


def series_up_to(q, max_length):
    out = []
    for length in range(1, max_length + 1):
        out.extend(all_series(q, length))
    return out


@pytest.fixture
def count_calls(monkeypatch):
    """Install call counters the way bench/trace_child.py does: every
    attribute of a loaded torsionpairs module bound to the function is
    rebound to one counting wrapper, so names imported into other modules
    are counted too.  `count_calls("torsion.is_torsion_pair", ...)` returns
    the counts, keyed by those names; monkeypatch restores the bindings."""
    counts = {}

    def counter(name, original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return counted

    def install(*names):
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "torsionpairs"]
        for name in names:
            module, attr = name.split(".")
            original = getattr(importlib.import_module(f"torsionpairs.{module}"), attr)
            counts[name] = 0
            counted = counter(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        monkeypatch.setattr(m, key, counted)
        return counts

    return install
