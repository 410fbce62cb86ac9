"""Seeded workloads for the torsionpairs CLI benchmark.

Nothing here imports the library.  Certificates come from closed-form
families built below, so every expected verdict and every expected
output is known by construction:

* Pair certificates use, on each linear component, the class
  T_S = {[a,b] : a in S} for a vertex set S, with free class
  F_S = {[c,d] : no vertex of S lies on c..d}.  T_S is closed under
  quotients and extensions and (T_S, F_S) is a torsion pair; the split
  pair {a >= k} / {d < k} is the case S = {k..n}.
* N-torsion-pair certificates cut each component into consecutive
  blocks; part i holds the intervals inside block i, the block nearest
  the sink first.
* Tube certificates take a nonempty delta on the cycle and a tail that
  satisfies the strong partition rule on the residual segments.

Corruptions are chosen among moves that must fail (see `_corrupt_pair`
and `_corrupt_ntp`).  Moving an interval whose failure is not forced,
such as the simple projective [n,n] of a split pair, is never used.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SCHEMA = "torsion/1"


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def dumps(obj) -> str:
    """The CLI's canonical JSON form."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class Invocation:
    """One CLI call: its arguments, the exit code it must end with, and a
    check of its stdout returning an error message or None."""

    label: str
    argv: list[str]
    expect_code: int
    check: Callable[[str], str | None]
    items: int
    fixed: bool = False  # stdout digest is recorded in digests.json


# -- output checks -------------------------------------------------------------


def _check_records(count: int, fmt: str, shape_key: str):
    def check(out: str) -> str | None:
        if fmt == "json":
            records = json.loads(out)
        else:
            records = []
            for i, line in enumerate(out.splitlines()):
                prefix = f"{i}: "
                if not line.startswith(prefix):
                    return f"line {i} lacks its index prefix"
                records.append(json.loads(line[len(prefix):]))
        if len(records) != count:
            return f"{len(records)} records, closed form says {count}"
        if any(r.get("schema") != SCHEMA or shape_key not in r for r in records):
            return "a record lacks the schema tag or its payload"
        if len({dumps(r) for r in records}) != count:
            return "duplicate records"
        return None

    return check


def _check_exact(expected: str):
    def check(out: str) -> str | None:
        return None if out == expected else f"stdout {out[:80]!r} != {expected[:80]!r}"

    return check


def _check_lattice(n: int):
    nodes, edges = catalan(n + 1), n * catalan(n + 1) // 2

    def check(out: str) -> str | None:
        lines = out.splitlines()
        if lines[0] != "digraph lattice {" or lines[-1] != "}":
            return "not a DOT digraph"
        arrows = sum("->" in line for line in lines[1:-1])
        if (len(lines) - 2 - arrows, arrows) != (nodes, edges):
            return f"{len(lines) - 2 - arrows} nodes/{arrows} covers, want {nodes}/{edges}"
        return None

    return check


def _check_fail(out: str) -> str | None:
    return None if out.startswith("FAIL: ") and out.endswith(")\n") else f"not a FAIL verdict: {out[:80]!r}"


# -- closed-form certificate families -----------------------------------------


def _components(sizes: list[int], rng: random.Random | None) -> list[list[int]]:
    """Vertex labels 1..n cut into components; shuffled when rng is given."""
    labels = list(range(1, sum(sizes) + 1))
    if rng is not None:
        rng.shuffle(labels)
    out, start = [], 0
    for size in sizes:
        out.append(labels[start : start + size])
        start += size
    return out


def _category(comps: list[list[int]]) -> dict:
    if len(comps) == 1 and comps[0] == list(range(1, len(comps[0]) + 1)):
        return {"shape": "linearA", "n": len(comps[0])}
    return {"shape": "linearUnion", "components": comps}


def _intervals(comp: list[int]):
    """Positions (i, j), i <= j, of the intervals [comp[i], comp[j]]."""
    for i in range(len(comp)):
        for j in range(i, len(comp)):
            yield i, j


def _pair_classes(comps, S):
    torsion, free = [], []
    for comp in comps:
        for i, j in _intervals(comp):
            if comp[i] in S:
                torsion.append([comp[i], comp[j]])
            elif not S.intersection(comp[i : j + 1]):
                free.append([comp[i], comp[j]])
    return torsion, free


def _corrupt_pair(rng, comps, S, torsion, free) -> None:
    """Apply one move that must break the pair:

    - drop X = [a,b] from T: X's torsion submodule in T minus X is some
      [c,b] with c in S, c after a, or zero, and the quotient contains
      a in S, so it is not in F;
    - move [a,b] from T to F when b is not the end of its component:
      [a,b+1] stays in T and maps onto [a,b];
    - drop Y from F: Y has no nonzero submodule in T and is not in F;
    - move a non-simple [c,d] from F to T: it maps onto [c,d-1] in F.
    """
    ends = {comp[-1] for comp in comps}
    moves = []
    if torsion:
        moves += ["drop_t"]
    if any(b not in ends for _, b in torsion):
        moves += ["t_to_f"]
    if free:
        moves += ["drop_f"]
    if any(a != b for a, b in free):
        moves += ["f_to_t"]
    move = rng.choice(moves)
    if move == "drop_t":
        torsion.pop(rng.randrange(len(torsion)))
    elif move == "drop_f":
        free.pop(rng.randrange(len(free)))
    elif move == "t_to_f":
        X = rng.choice([X for X in torsion if X[1] not in ends])
        torsion.remove(X)
        free.append(X)
    else:
        Y = rng.choice([Y for Y in free if Y[0] != Y[1]])
        free.remove(Y)
        torsion.append(Y)


def _random_subset(rng, vertices) -> set[int]:
    S = {v for v in vertices if rng.random() < 0.5}
    return S or {rng.choice(vertices)}


def _windowed_subset(rng, comps, width: int = 3) -> set[int]:
    """One vertex from each run of `width` consecutive vertices, so every
    segment left after removing S is shorter than 2 * width."""
    return {comp[rng.randrange(i, min(i + width, len(comp)))]
            for comp in comps for i in range(0, len(comp), width)}


def pair_certificate(rng, sizes, shuffle, corrupt, windowed=False):
    """`windowed` bounds the residual segments, and so the size of the
    models that peeling builds, whatever the seed."""
    comps = _components(sizes, rng if shuffle else None)
    if windowed:
        S = _windowed_subset(rng, comps)
    else:
        S = _random_subset(rng, [v for c in comps for v in c])
    torsion, free = _pair_classes(comps, S)
    if corrupt:
        _corrupt_pair(rng, comps, S, torsion, free)
    rng.shuffle(torsion)
    rng.shuffle(free)
    cert = {"schema": SCHEMA, "category": _category(comps), "torsion": torsion, "free": free}
    return cert, comps, S


def _corrupt_ntp(rng, parts) -> None:
    """Drop an interval from its part (no other part holds a piece of it,
    so it has no ordered filtration), or move a non-simple [a,b] to
    another part: to an earlier part it maps onto [a,b-1] left behind in
    its block, to a later part [a+1,b] maps into it."""
    where = [(i, X) for i, part in enumerate(parts) for X in part]
    i, X = rng.choice(where)
    if X[0] == X[1] or rng.random() < 0.5:
        parts[i].remove(X)
        return
    parts[i].remove(X)
    parts[rng.choice([j for j in range(len(parts)) if j != i])].append(X)


def ntp_certificate(rng, sizes, nparts, shuffle, corrupt):
    comps = _components(sizes, rng if shuffle else None)
    parts: list[list[list[int]]] = [[] for _ in range(nparts)]
    for comp in comps:
        cuts = sorted(rng.sample(range(1, len(comp)), nparts - 1))
        bounds = [0] + cuts + [len(comp)]
        # block k (from the source) goes to part nparts-1-k: sink block first
        for k in range(nparts):
            lo, hi = bounds[k], bounds[k + 1]
            for i in range(lo, hi):
                for j in range(i, hi):
                    parts[nparts - 1 - k].append([comp[i], comp[j]])
    if corrupt:
        _corrupt_ntp(rng, parts)
    for part in parts:
        rng.shuffle(part)
    return {"schema": SCHEMA, "category": _category(comps), "parts": parts}


def tube_certificate(rng, rank):
    """Nonempty delta; the tail is either one part (all residual vertices)
    or its sinks (kind 1) / sources (kind 2) followed by the rest."""
    kind = rng.choice((1, 2))
    cycle = list(range(1, rank + 1))
    delta = _random_subset(rng, cycle)
    if len(delta) == rank and rng.random() < 0.7:
        delta.discard(rng.choice(cycle))
    rest = [v for v in cycle if v not in delta]
    tail = []
    if rest:
        succ = {v: v % rank + 1 for v in cycle}
        pred = {w: v for v, w in succ.items()}
        link = succ if kind == 1 else pred
        first = [v for v in rest if link[v] not in rest]
        later = [v for v in rest if v not in first]
        tail = [first, later] if later and rng.random() < 0.5 else [rest]
    return {
        "schema": SCHEMA,
        "rank": rank,
        "kind": kind,
        "delta": sorted(delta),
        "residual_partition": tail,
    }


def expected_decomposition(comps, S) -> str:
    """Exact `decompose --side both` output for the pair (T_S, F_S).

    Left: the projectives in T are those with top in S, leaving segments
    whose modules all lie in F; so the parts are (S, rest).  Right: the
    injectives in F are the component prefixes before the first vertex of
    S; then the projectives in T have tops in S; then the rest.
    """
    vertices = {v for c in comps for v in c}
    prefix = set()
    for comp in comps:
        for v in comp:
            if v in S:
                break
            prefix.add(v)
    left = [S, vertices - S]
    right = [prefix, S, vertices - prefix - S]

    def side(parts, kind, first):
        sides = (first, "injective" if first == "projective" else "projective")
        parts = [p for k, p in enumerate(parts) if k == 0 or p]
        return {
            "partition": {"complete": True, "kind": kind, "parts": [sorted(p) for p in parts]},
            "residual": {"free": [], "torsion": []},
            "residual_category": {"components": [], "shape": "linearUnion"},
            "trace": [
                {"side": sides[k % 2], "stage": k, "vertices": sorted(p)}
                for k, p in enumerate(parts)
            ],
        }

    payload = {
        "left": side(left, "strong1", "projective"),
        "right": side(right, "strong2", "injective"),
        "residuals_agree": True,
    }
    return dumps(payload) + "\n"


# -- the three workloads ----------------------------------------------------------


def _enumerate_an(n: int, fmt: str) -> Invocation:
    argv = ["enumerate", "--an", str(n), "--max-n", "8", "--format", fmt]
    check = _check_records(catalan(n + 1), fmt, "torsion")
    return Invocation(f"enumerate-an{n}", argv, 0, check, catalan(n + 1), True)


def _lattice(n: int) -> Invocation:
    argv = ["export", "--an", str(n), "--dot", "lattice"]
    return Invocation(f"lattice-an{n}", argv, 0, _check_lattice(n), catalan(n + 1), True)


def _enumerate_tube(r: int, fmt: str) -> Invocation:
    total = math.comb(2 * r, r)
    argv = ["enumerate", "--tube", str(r), "--format", fmt]
    return Invocation(f"enumerate-tube{r}", argv, 0, _check_records(total, fmt, "rank"), total, True)


def _count_tube(r: int) -> Invocation:
    total = math.comb(2 * r, r)
    argv = ["count", "--tube", str(r), "--check"]
    return Invocation(f"count-tube{r}", argv, 0, _check_exact(f"{total}\n"), total, True)


def _count_an6() -> Invocation:
    argv = ["count", "--an", "6", "--check"]
    return Invocation("count-an6-check", argv, 0, _check_exact(f"{catalan(7)}\n"), 0, True)


# (n or rank, copies per batch) of the enumeration workloads.  Each
# workload's batch takes 20-30 s on a 2-vCPU VM at the first benchmarked
# commit, so a 25 s run holds one batch and its statistics do not depend
# on how many batches fit.
PATH_MIX = ((6, 12), (7, 2), (8, 2))
LATTICE_MIX = ((5, 4), (6, 2))
TUBE_ENUMERATE_MIX = ((5, 9), (6, 2))
TUBE_COUNT_MIX = ((5, 9), (6, 2))


def fixed_invocations() -> list[Invocation]:
    """Every command whose stdout does not depend on the seed."""
    calls = [_enumerate_an(n, fmt) for n, _ in PATH_MIX for fmt in ("json", "text")]
    calls += [_lattice(n) for n, _ in LATTICE_MIX]
    calls += [_enumerate_tube(r, fmt) for r, _ in TUBE_ENUMERATE_MIX for fmt in ("json", "text")]
    calls += [_count_tube(r) for r, _ in TUBE_COUNT_MIX]
    return calls + [_count_an6()]


def path_enumerate(rng: random.Random, workdir: Path) -> list[Invocation]:
    """Constructive Catalan route: enumerate --an n in a drawn format, and
    the lattice export."""
    calls = [_enumerate_an(n, rng.choice(("json", "text")))
             for n, copies in PATH_MIX for _ in range(copies)]
    calls += [_lattice(n) for n, copies in LATTICE_MIX for _ in range(copies)]
    rng.shuffle(calls)
    return calls


def tube_classify(rng: random.Random, workdir: Path) -> list[Invocation]:
    """Tube classification: enumerate --tube r in a drawn format, and
    count --tube r --check."""
    calls = [_enumerate_tube(r, rng.choice(("json", "text")))
             for r, copies in TUBE_ENUMERATE_MIX for _ in range(copies)]
    calls += [_count_tube(r) for r, copies in TUBE_COUNT_MIX for _ in range(copies)]
    rng.shuffle(calls)
    return calls


# (category sizes, parts or None for a pair, shuffled labels) of the
# verify slots.  Sizes are fixed so that the seed moves little cost.
# Building a model costs about N^2 * n for N intervals on n vertices;
# linearA n=16 and the union 14+6 cost about the same.  With the
# decompose and oracle calls they form one middle group of 16 commands
# of about 0.5 s, which holds both the median and the tail rank of a
# batch, so those statistics do not jump between command kinds.
VERIFY_SLOTS = (
    ([12], None, False), ([12], 3, False),
    ([16], None, False), ([16], None, False), ([16], None, False),
    ([16], 2, False), ([16], 3, False), ([16], 4, False),
    ([14, 6], None, True), ([14, 6], None, True), ([14, 6], None, True),
    ([14, 6], 2, True), ([14, 6], 3, True), ([14, 6], 3, True),
    ([20], None, False), ([20], 5, False), ([24], None, False), ([24], 4, False),
    ([21, 8], None, True), ([17, 8], 3, True),
)
DECOMPOSE_SLOTS = (([14], False), ([13, 3], True), ([18], False), ([16, 6], True))
TUBE_SLOTS = ((3, 6), (4, 8), (5, 7), (6, 8))  # (rank, --cap)
ORACLE_COPIES = 2  # count --an 6 --check


def _size(sizes: list[int]) -> str:
    return f"n{sizes[0]}" if len(sizes) == 1 else "u" + "+".join(map(str, sizes))


def certify(rng: random.Random, workdir: Path) -> list[Invocation]:
    """Certificate checking: verify and decompose on generated certificates,
    tube verification against the matrix oracle, and count --an 6 --check."""
    calls = []
    corrupt = set(rng.sample(range(len(VERIFY_SLOTS)), len(VERIFY_SLOTS) // 2))

    def write(name: str, cert: dict) -> str:
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(cert), encoding="utf-8")
        return str(path)

    for k, (sizes, nparts, shuffle) in enumerate(VERIFY_SLOTS):
        bad = k in corrupt
        if nparts is None:
            cert = pair_certificate(rng, sizes, shuffle, bad)[0]
        else:
            cert = ntp_certificate(rng, sizes, nparts, shuffle, bad)
        kind = "pair" if nparts is None else "ntp"
        argv = ["verify", write(f"verify{k}", cert)]
        check = _check_fail if bad else _check_exact("PASS\n")
        calls.append(Invocation(f"verify-{kind}-{_size(sizes)}", argv, 1 if bad else 0, check, 1))
    for k, (sizes, shuffle) in enumerate(DECOMPOSE_SLOTS):
        cert, comps, S = pair_certificate(rng, sizes, shuffle, False, windowed=True)
        argv = ["decompose", write(f"decompose{k}", cert), "--side", "both"]
        expected = expected_decomposition(comps, S)
        calls.append(Invocation(f"decompose-{_size(sizes)}", argv, 0, _check_exact(expected), 1))
    for k, (rank, cap) in enumerate(TUBE_SLOTS):
        argv = ["verify", write(f"tube{k}", tube_certificate(rng, rank)), "--cap", str(cap)]
        calls.append(Invocation(f"verify-tube{rank}", argv, 0, _check_exact("PASS\n"), 1))
    calls += [_count_an6() for _ in range(ORACLE_COPIES)]
    rng.shuffle(calls)
    return calls


WORKLOADS = {
    "path-enumerate": path_enumerate,
    "tube-classify": tube_classify,
    "certify": certify,
}

# The no-work invocation that measures set-up cost.
SETUP_ARGV = ["count", "--an", "1"]
SETUP_STDOUT = f"{catalan(2)}\n"
