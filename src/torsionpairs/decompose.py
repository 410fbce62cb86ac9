"""Decomposition of torsion pairs by projectives and injectives, and the
resulting classification over linearly oriented A-type quivers.

Peeling a torsion pair alternates two moves: collect the vertices of the
indecomposable projectives of the current support quiver lying in the
torsion class, then the vertices of the current injectives lying in the
free class, restricting the support after each move.  On A-type quivers
every vertex is taken (the residual pair is always empty), the recorded
vertex sets form a complete strong part partition, and the peeling is a
bijection onto those partitions; this yields the Catalan count of
torsion pairs, canonical generator sets, and the tilting/cotilting
criteria.

Peeling and assembly share one stage walk: a stage is a vertex set of the
home quiver, whose projectives or injectives `_stage_row` reads off the
home quiver's arrows and the home model's `end_chains`, with no subquiver
or model per stage, and caches.  The mask walk (`_mask_walk`) offers
`quiver.walk_partitions` each stage's parts with their generator masks,
so the walk carries each prefix's class masks to its extensions;
`enumerate --an` and the tube classification read it.
`generators` and `trace_ntp` read the generators `decompose` records.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

from .intervals import (
    Interval,
    LinearModel,
    cogen_closure,
    extension_closure,
    gen_closure,
    model_for,
)
from .quiver import (
    STRONG_ONE,
    STRONG_TWO,
    PartPartition,
    Quiver,
    Record,
    _set,
    enumerate_partitions,
    linear_an,
    projective_stage,
    strong_stage_parts,
    subquiver,
    validate_partition,
    walk_partitions,
)
from .torsion import (
    NTorsionPair,
    TorsionPair,
    ext_injectives_in,
    ext_projectives_in,
    filtration,
    is_torsion_pair,
    objects_of,
)

PROJECTIVE = "projective"
INJECTIVE = "injective"
# the residual pair of every peeling: on A-type quivers no vertex is left
_EMPTY = TorsionPair((), ())


class TraceStage(Record):
    """One peeling stage: the vertices it took and their stage projectives
    (side "projective") or stage injectives (side "injective"), which lie
    in the torsion (free) class."""

    _fields = ("index", "side", "vertices", "generators")

    def __init__(self, index: int, side: str, vertices: frozenset[int], generators: frozenset[Interval]) -> None:
        _set(self, "index", index)
        _set(self, "side", side)
        _set(self, "vertices", vertices)
        _set(self, "generators", generators)


class DecompositionResult(Record):
    _fields = ("partition", "residual", "residual_quiver", "trace")

    def __init__(
        self, partition: PartPartition, residual: TorsionPair, residual_quiver: Quiver,
        trace: tuple[TraceStage, ...],
    ) -> None:
        _set(self, "partition", partition)
        _set(self, "residual", residual)
        _set(self, "residual_quiver", residual_quiver)
        _set(self, "trace", trace)


@lru_cache(maxsize=64)
def _stage_row(model: LinearModel, support: frozenset[int], projective: bool) -> dict[int, int]:
    """Each vertex v of `support` with the index in `model` (of the home
    quiver) of its projective [v, w] (injective [u, v]) of the full
    subquiver on `support`: w is the last vertex reached from v inside
    `support` (u the first reaching v).  With w k steps from v, [v, w] is
    entry k of the quotient chain of the projective of v in the home quiver
    (the mirror for [u, v]), read off `model.end_chains`.  Shared, so read
    only: a model's walk and the peelings of its pairs visit the same
    supports."""
    q = model.quiver
    step = q.succ if projective else q.pred
    chains = model.end_chains[0 if projective else 1]
    out = {}
    for v in support:
        w, k = v, 0
        while step.get(w) in support:
            w, k = step[w], k + 1
        out[v] = chains[v][k]
    return out


def decompose(q: Quiver, tp: TorsionPair, side: str = "left") -> DecompositionResult:
    """Peel a torsion pair into a complete part partition.

    side="left" starts on the projective side and produces a 1-type
    partition; side="right" starts on the injective side and produces the
    2-type mirror.  Stage zero may be empty (the only stage on a quiver with
    no vertices); the first later empty stage stops the peeling.  By then
    every vertex is taken, so the result's residual pair and quiver are
    empty; a vertex left over raises RuntimeError as a model defect.  Only
    the input is checked, once per call: a pair that is not a torsion pair
    raises ValueError.  The tests check that the partition is valid.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    full = model_for(q)
    check = is_torsion_pair(full, tp.torsion, tp.free)
    if not check:
        raise ValueError(f"not a torsion pair: {check.reason}")
    objects, support = full.objects, q.vertex_set
    parts: list[frozenset[int]] = []
    trace: list[TraceStage] = []
    stage, projective = 0, side == "left"
    while True:
        # a stage generator lies inside the support, so the classes need
        # no restriction before the membership test
        members = tp.torsion if projective else tp.free
        gens = _stage_row(full, support, projective)
        found = frozenset(v for v, i in gens.items() if objects[i] in members)
        if stage > 0 and not found:
            break
        parts.append(found)
        generated = frozenset(objects[gens[v]] for v in found)
        trace.append(TraceStage(stage, PROJECTIVE if projective else INJECTIVE, found, generated))
        support -= found
        stage, projective = stage + 1, not projective
        if not support:
            break
    if support:
        raise RuntimeError(f"peeling left vertices {sorted(support)}; model defect")
    partition = PartPartition(parts, STRONG_ONE if side == "left" else STRONG_TWO, complete=True)
    return DecompositionResult(partition, _EMPTY, subquiver(q, ()), tuple(trace))


def decompose_left(q: Quiver, tp: TorsionPair) -> DecompositionResult:
    return decompose(q, tp, "left")


def decompose_right(q: Quiver, tp: TorsionPair) -> DecompositionResult:
    return decompose(q, tp, "right")


def _residual_in_e(q: Quiver, residual: TorsionPair) -> bool:
    """Residual lies in E: no projective in the torsion class, no injective
    in the free class, over the residual quiver."""
    model = model_for(q)
    return (
        bool(is_torsion_pair(model, residual.torsion, residual.free))
        and residual.torsion.isdisjoint(model.projectives())
        and residual.free.isdisjoint(model.injectives())
    )


def _part_mask(model: LinearModel, support: frozenset[int], projective: bool, part: frozenset[int]) -> int:
    """The generator mask over `model` of a part taken from `support`: the OR of its
    vertices' `_stage_row` quotient (submodule) masks on a projective (injective) stage."""
    table = model.quot_masks if projective else model.sub_masks
    row, mask = _stage_row(model, support, projective), 0
    for v in part:
        mask |= table[row[v]]
    return mask


def _stage_masks(model: LinearModel, partition: PartPartition) -> tuple[int, int]:
    """The masks over `model` generating the torsion and the free class of a partition, before
    extension closure: the OR of its projective (injective) stages' `_part_mask`s; nothing is checked."""
    support, masks = model.quiver.vertex_set, [0, 0]
    for j, part in enumerate(partition.parts):
        projective = projective_stage(partition.kind, j)
        masks[not projective] |= _part_mask(model, support, projective, part)
        support -= part
    return masks[0], masks[1]


def _mask_walk(model: LinearModel, kind: str, start: int) -> Iterator[tuple[tuple[frozenset[int], ...], int, int]]:
    """Every complete strong `kind` partition of `model.quiver`, its parts
    taken from stage `start` on (0 on a path; 1 on a residual of the cycle,
    whose stage 0 is Delta), with its `_stage_masks`, in
    `PartPartition.sort_key` order; nothing is checked.

    The partitions come from `walk_partitions`, each part offered with its
    `_part_mask`.  The offers depend only on the stage parity and the
    vertices left, so each is computed once per walk, with one copy of each
    vertex set: parts and sets left recur across nodes, and with a copy each
    `enumerate --an 11` peaked at 48.3 MB, not 20.8, on CPython 3.11.
    """
    q = model.quiver
    if not q.vertices:
        return iter([((), 0, 0)])
    table, shared = {}, {}  # (parity, vertices left) -> its offers; a vertex set -> its one copy

    def offers(stage: int, projective: bool, remaining: frozenset[int], parts: tuple) -> tuple:
        # stage 0 is the one node of its parity with every vertex left
        key = (projective, remaining)
        found = table.get(key)
        if found is None:
            found = []
            for part in strong_stage_parts(q, remaining, stage, projective):
                left, mask = remaining - part, _part_mask(model, remaining, projective, part)
                found.append((shared.setdefault(part, part), mask, shared.setdefault(left, left)))
            found = table[key] = tuple(found)
        return found

    return walk_partitions(kind, start, q.vertex_set, offers)


def assemble(q: Quiver, partition: PartPartition, residual: TorsionPair | None = None) -> TorsionPair:
    """Rebuild the torsion pair from a partition and a residual pair.

    Inverse to `decompose` on valid inputs, and the checked entry point:
    the inputs are checked once per call (a valid partition, a residual
    pair in E); that the output is a torsion pair is left to the tests.
    """
    if not validate_partition(q, partition):
        raise ValueError(f"invalid partition {partition}")
    if residual is None:
        residual = TorsionPair(frozenset(), frozenset())
    if not _residual_in_e(subquiver(q, q.vertex_set - partition.support), residual):
        raise ValueError("residual pair must avoid residual projectives and injectives")
    model = model_for(q)
    torsion, free = _stage_masks(model, partition)
    return TorsionPair(
        extension_closure(q, residual.torsion | objects_of(model, torsion)),
        extension_closure(q, residual.free | objects_of(model, free)),
    )


def same_residual(left: DecompositionResult, right: DecompositionResult) -> bool:
    """Two peelings end in the same residual pair on the same quiver."""
    return left.residual == right.residual and left.residual_quiver == right.residual_quiver


def residuals_agree(q: Quiver, tp: TorsionPair) -> bool:
    """Left and right peelings end in the same residual pair."""
    return same_residual(decompose(q, tp, "left"), decompose(q, tp, "right"))


def tp_to_partition(q: Quiver, tp: TorsionPair) -> PartPartition:
    """Complete strong 1-type partition of a torsion pair."""
    return decompose(q, tp, "left").partition


def iter_torsion_pairs(q: Quiver) -> Iterator[TorsionPair]:
    """All torsion pairs, through the partition bijection, in partition
    order, one at a time: the partition walk reaches each partition when
    the caller asks for the next pair, and the pair is assembled then, so
    a caller that drops each pair holds at most one."""
    for S in enumerate_partitions(q, STRONG_ONE, complete=True):
        yield assemble(q, S)


def enumerate_torsion_pairs(q: Quiver) -> list[TorsionPair]:
    """All torsion pairs, through the partition bijection, in partition order."""
    return list(iter_torsion_pairs(q))


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def count_torsion_pairs(n: int, check: bool = False) -> int:
    """Number of torsion pairs on the linear quiver with n vertices.

    With check=True the closed form is compared against the number of
    partitions the walk yields, counted as they come with none kept, and
    the exhaustive oracle search, the oracle first, so an n past its
    bound raises before anything is enumerated.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not check:
        return catalan(n + 1)
    from .oracle import enumerate_torsion_pairs_bruteforce

    by_oracle = len(enumerate_torsion_pairs_bruteforce(n))
    value = catalan(n + 1)
    by_partition = sum(1 for _ in enumerate_partitions(linear_an(n), STRONG_ONE, complete=True))
    if not value == by_partition == by_oracle:
        raise RuntimeError(
            f"count mismatch at n={n}: formula {value}, "
            f"partitions {by_partition}, oracle {by_oracle}"
        )
    return value


def generators(q: Quiver, tp: TorsionPair) -> tuple[frozenset[Interval], frozenset[Interval]]:
    """Minimal (T_gen, F_cog) with Gen(T_gen) = T and Cogen(F_cog) = F.

    These are the stage projectives and stage injectives of the peeling;
    their total count is the number of vertices.
    """
    trace = decompose(q, tp, "left").trace
    t_gen = [t.generators for t in trace if t.side == PROJECTIVE]
    f_cog = [t.generators for t in trace if t.side == INJECTIVE]
    return frozenset().union(*t_gen), frozenset().union(*f_cog)


def is_tilting_induced(q: Quiver, tp: TorsionPair) -> bool:
    """True when stage zero of the 1-type peeling holds every source: the torsion class holds
    every injective, as the tests check.  A pair that is not a torsion pair raises ValueError."""
    return q.sources <= decompose(q, tp, "left").partition.parts[0]


def is_cotilting_induced(q: Quiver, tp: TorsionPair) -> bool:
    """True when stage zero of the 2-type peeling holds every sink: the free class holds every
    projective, as the tests check.  A pair that is not a torsion pair raises ValueError."""
    return q.sinks <= decompose(q, tp, "right").partition.parts[0]


def trace_ntp(q: Quiver, result: DecompositionResult) -> NTorsionPair:
    """The (m+2)-torsion pair recorded by a peeling trace.

    Projective-stage pieces in peeling order, then the residual classes,
    then the injective-stage pieces in reverse order.
    """
    left_parts = [gen_closure(q, t.generators) for t in result.trace if t.side == PROJECTIVE]
    right_parts = [cogen_closure(q, t.generators) for t in result.trace if t.side == INJECTIVE]
    middle = [result.residual.torsion, result.residual.free]
    parts = left_parts + middle + right_parts[::-1]
    return NTorsionPair(tuple(parts))


def projective_correspondence(q: Quiver, ntp: NTorsionPair) -> dict[Interval, tuple[int, Interval]]:
    """Send each indecomposable projective to its last nonzero filtration factor.

    The image at index i consists of members of part i that are
    Ext-projective in the extension closure of parts i..end; the map is a
    bijection onto the union of those sets.
    """
    model = model_for(q)
    out = {}
    for P in model.projectives():
        filt = filtration(model, ntp, P)
        nonzero = filt.nonzero_factors()
        index, factor = nonzero[-1]
        out[P] = (index, factor)
    return out


def injective_correspondence(q: Quiver, ntp: NTorsionPair) -> dict[Interval, tuple[int, Interval]]:
    """Send each indecomposable injective to its first nonzero filtration factor."""
    model = model_for(q)
    out = {}
    for I in model.injectives():
        filt = filtration(model, ntp, I)
        nonzero = filt.nonzero_factors()
        index, factor = nonzero[0]
        out[I] = (index, factor)
    return out


def suffix_ext_projectives(q: Quiver, ntp: NTorsionPair, index: int) -> frozenset[Interval]:
    """Members of part `index` (1-based) Ext-projective in the closure of parts index..end."""
    suffix = extension_closure(q, frozenset().union(*ntp.parts[index - 1 :]))
    return ext_projectives_in(model_for(q), ntp.parts[index - 1], suffix)


def prefix_ext_injectives(q: Quiver, ntp: NTorsionPair, index: int) -> frozenset[Interval]:
    """Members of part `index` (1-based) Ext-injective in the closure of parts 1..index."""
    prefix = extension_closure(q, frozenset().union(*ntp.parts[:index]))
    return ext_injectives_in(model_for(q), ntp.parts[index - 1], prefix)
