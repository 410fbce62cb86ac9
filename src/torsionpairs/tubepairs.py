"""Classification of torsion pairs on the tube of rank n.

Every torsion pair on the tube falls into one of two families indexed by
a nonempty vertex set Delta of the cycle together with a torsion pair on
the residual union of linear segments:

  kind 1:  (Coray(Delta) + T', F')  with (T', F') cotilting-induced,
  kind 2:  (T', F' + Ray(Delta))    with (T', F') tilting-induced.

Kind 1 pairs have an infinite torsion class and kind 2 pairs a finite
one, so the two families never overlap.  Both are also indexed by the
complete strong part partitions of the cycle whose leading part is
nonempty: dropping the leading part Delta and prepending an empty stage
turns the remainder into a partition of the residual segments.  The
classification is built from this bijection, one pair per partition
(Baur-Buan-Marsh, "Torsion pairs and rigid objects in tubes", 2014), so
there are binom(2n, n) pairs.

The mask walk yields only valid partitions, so `_classified` makes the
classification from its tails' stage masks unchecked, one (kind, delta)
group at a time, in `TubeTorsionPair.sort_key` order; the walked
partitions are validated by `count_tube_tps(check=True)`.  Partitions
from outside (certificates) go through `partition_to_tube_tp`, which
validates them on the cycle and then builds the pair from the tail's
stage masks, as the classification does.  Within the tube route a
truncated class is a mask over `all_tube_modules(rank, cap)`; module
sets appear only in the descriptors.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

from .decompose import (
    _mask_walk,
    _stage_masks,
    catalan,
    decompose,
    is_cotilting_induced,
    is_tilting_induced,
)
from .intervals import LinearModel, model_for
from .quiver import (
    STRONG_ONE,
    STRONG_TWO,
    MalformedPartitionError,
    PartPartition,
    Quiver,
    Record,
    _set,
    _subsets,
    cyclic_an,
    subquiver,
    validate_partition,
)
from .torsion import TorsionPair, bit_indices, bit_order, mask_of, objects_of
from .tube import (
    CORAY_FINITE,
    FINITE,
    RAY_FINITE,
    TubeModule,
    TubeSubcatDescriptor,
    _infinite_part,
    all_tube_modules,
    l_r_sets,
    module_index,
)

TORSION = "torsion"
FREE = "free"
NEITHER = "neither"


class ClassificationDefectError(RuntimeError):
    """A classified pair violates a structural law (collision, empty L and R)."""


@lru_cache(maxsize=1)
def _tube_table(rank: int, model: LinearModel) -> tuple[int, ...]:
    """Each residual interval's bit over `all_tube_modules(rank, cap)`, for
    every cap of at least rank.  A residual segment is shorter than the
    cycle, so [a, b] runs (b - a) % rank + 1 vertices along it and is the
    module of that length with socle b.  Only the latest table is kept:
    the classification's groups come one by one."""
    return tuple(module_index(X.b, (X.b - X.a) % rank + 1, rank) for X in model.objects)


class TubeTorsionPair(Record):
    """One classified torsion pair on the tube of the given rank, with the
    partition it was built from: `delta`, then `residual_partition`, the tail
    whose stage masks make `residual_pair` on `residual_quiver`.  The pair
    keeps the residual classes as two masks over the residual model and
    builds `residual_pair`, of the model's own intervals, on each access."""

    _fields = ("rank", "kind", "delta", "residual_quiver", "residual_pair", "residual_partition")

    def __init__(
        self, rank: int, kind: int, delta: frozenset[int], residual_quiver: Quiver,
        residual_pair: TorsionPair, residual_partition: tuple[frozenset[int], ...],
    ) -> None:
        if kind not in (1, 2):
            raise ValueError("kind must be 1 or 2")
        if not delta:
            raise ValueError("delta must be nonempty")
        cycle = cyclic_an(rank)
        if not delta <= cycle.vertex_set or residual_quiver != subquiver(cycle, cycle.vertex_set - delta):
            raise ValueError(f"the residual quiver must be the cycle of rank {rank} less delta")
        model = model_for(residual_quiver)
        try:
            masks = [mask_of(model, side) for side in (residual_pair.torsion, residual_pair.free)]
        except KeyError as exc:
            raise ValueError(f"{exc.args[0]} is not an interval of the residual quiver") from None
        _fill(self, rank, kind, delta, model, *masks, residual_partition)

    @property
    def residual_pair(self) -> TorsionPair:
        return TorsionPair(objects_of(self._model, self._torsion), objects_of(self._model, self._free))

    @property
    def residual_quiver(self) -> Quiver:
        return self._model.quiver

    def _tube_mask(self, mask: int) -> int:
        """The residual intervals of the mask as a mask over the tube modules."""
        bits = _tube_table(self.rank, self._model)
        return sum(1 << bits[i] for i in bit_indices(mask))

    def _finite_part(self, mask: int) -> frozenset[TubeModule]:
        """The residual intervals of the mask as tube modules."""
        return frozenset(map(all_tube_modules(self.rank, self.rank).__getitem__, bit_indices(self._tube_mask(mask))))

    @cached_property
    def torsion_descriptor(self) -> TubeSubcatDescriptor:
        finite = self._finite_part(self._torsion)
        if self.kind == 1:
            return TubeSubcatDescriptor(CORAY_FINITE, self.rank, self.delta, finite)
        return TubeSubcatDescriptor(FINITE, self.rank, frozenset(), finite)

    @cached_property
    def free_descriptor(self) -> TubeSubcatDescriptor:
        finite = self._finite_part(self._free)
        if self.kind == 2:
            return TubeSubcatDescriptor(RAY_FINITE, self.rank, self.delta, finite)
        return TubeSubcatDescriptor(FINITE, self.rank, frozenset(), finite)

    def membership(self, X: TubeModule) -> str:
        """Side of X, or "neither" for the modules with a proper canonical
        sequence (a torsion pair does not partition the indecomposables)."""
        if X.rank != self.rank:
            raise ValueError("module rank does not match the classification")
        if self.torsion_descriptor.contains(X):
            return TORSION
        if self.free_descriptor.contains(X):
            return FREE
        return NEITHER

    def fingerprint(self, cap: int) -> tuple[int, int]:
        """The two classes truncated at `cap`, as (torsion, free) masks over
        `all_tube_modules(rank, cap)`: `truncate` of the descriptors, made
        from the residual masks and delta's families.  The bits run in
        (length, socle) order, so the low `rank * cap` bits are the
        modules of length at most cap."""
        low = (1 << self.rank * cap) - 1
        torsion, free = self._tube_mask(self._torsion) & low, self._tube_mask(self._free) & low
        if self.kind == 1:
            return torsion | _infinite_part(self.rank, cap, CORAY_FINITE, self.delta), free
        return torsion, free | _infinite_part(self.rank, cap, RAY_FINITE, self.delta)

    def sort_key(self) -> tuple:
        """Kind, sorted delta, then the torsion class's bits: the residual
        model lists its intervals in (a, b) order."""
        return (self.kind, tuple(sorted(self.delta)), tuple(bit_indices(self._torsion)))


_STORED = ("rank", "kind", "delta", "_model", "_torsion", "_free", "residual_partition")


def _fill(data: TubeTorsionPair, *values) -> TubeTorsionPair:
    """Set a pair's stored attributes, given in `_STORED` order, unchecked."""
    for name, value in zip(_STORED, values):
        _set(data, name, value)
    return data


def tube_membership(data: TubeTorsionPair, X: TubeModule) -> str:
    return data.membership(X)


def check_l_r(data: TubeTorsionPair) -> tuple[frozenset[int], frozenset[int]]:
    """Tops of the infinite torsion family and socles of the infinite free
    family; a classified pair must have at least one of them nonempty."""
    l_t = l_r_sets(data.torsion_descriptor)[0]
    r_f = l_r_sets(data.free_descriptor)[1]
    if not l_t and not r_f:
        raise ClassificationDefectError("both infinite-direction sets are empty")
    return l_t, r_f


def _classified(rank: int) -> Iterator[tuple[int, frozenset[int], LinearModel, list]]:
    """The classification one group at a time, as (kind, delta, residual
    model, walk), in `TubeTorsionPair.sort_key` order: kind 1 then kind 2,
    the deltas by their sorted vertices, and each group's mask walk
    (`decompose._mask_walk`, tails from stage 1 on with their stage masks,
    which are the residual classes) sorted by the torsion mask's bits."""
    if rank < 1:
        raise ValueError("rank must be positive")
    cycle = cyclic_an(rank)
    deltas = sorted(_subsets(cycle.vertices, include_empty=False), key=sorted)
    # one model of the residual segments serves both kinds
    models = [model_for(subquiver(cycle, cycle.vertex_set - delta)) for delta in deltas]

    def groups():
        for kind, name in ((1, STRONG_ONE), (2, STRONG_TWO)):
            for delta, model in zip(deltas, models):
                walk = sorted(_mask_walk(model, name, 1), key=lambda step: bit_order(step[1]))
                yield kind, delta, model, walk

    return groups()


def enumerate_tube_tps(rank: int) -> list[TubeTorsionPair]:
    """All torsion pairs on the tube of the given rank, in `sort_key` order.

    Built from the bijection: for each kind, every complete strong
    partition of the cycle with nonempty leading part Delta gives one
    pair, which keeps it and the walk's masks.  `_classified` yields the
    groups in order, each sorted, so there is no global sort.  The walk
    yields only valid partitions, so none is validated again here; that
    each is valid, that each pair is a torsion pair of its kind and that
    no two pairs coincide are checked by `count_tube_tps(check=True)`.
    """
    return [
        _fill(object.__new__(TubeTorsionPair), rank, kind, delta, model, torsion, free, tail)
        for kind, delta, model, walk in _classified(rank)
        for tail, torsion, free in walk
    ]


def count_tube_tps(rank: int, check: bool = False) -> int:
    """Number of torsion pairs on the tube of the given rank, the closed form.

    With check=True the classification is built and five legs must hold:
      - formula: there are binom(2 rank, rank) pairs (Baur-Buan-Marsh,
        "Torsion pairs and rigid objects in tubes", 2014);
      - tally: for each kind and each nonempty delta, the number of
        classified pairs equals the number of tilting modules on the
        residual segments, the product of Catalan(|C|) over its
        components C.  The classification is built one pair per
        partition; this leg checks it independently, one (kind, delta)
        at a time;
      - validity: the partition each pair keeps is a valid complete strong
        partition of the cycle of its kind, which the walk promised and
        `enumerate_tube_tps` trusted;
      - induced: each residual pair is a torsion pair of its kind, kind 1
        cotilting-induced and kind 2 tilting-induced, by both criteria:
        the predicate's peeling and the definition over the residual model;
      - fingerprint: no two pairs share a membership fingerprint truncated
        at 2 rank + 2.  Kind collisions are impossible (finite versus
        infinite torsion class), so any collision is a defect.  The
        fingerprints are two masks made from the residual masks, not the
        descriptors, packed into one int that keys a dict of the pairs
        seen, so the scan keeps no module sets.
    """
    if rank < 1:
        raise ValueError("rank must be positive")
    value = math.comb(2 * rank, rank)
    if not check:
        return value
    data = enumerate_tube_tps(rank)
    if len(data) != value:
        raise RuntimeError(f"count mismatch at rank={rank}: formula {value}, classification {len(data)}")
    cycle = cyclic_an(rank)
    tally = Counter((d.kind, d.delta) for d in data)
    for delta in _subsets(cycle.vertices, include_empty=False):
        residual = subquiver(cycle, cycle.vertex_set - delta)
        want = math.prod(catalan(len(comp)) for comp in residual.components)
        for kind in (1, 2):
            if tally[kind, delta] != want:
                raise RuntimeError(
                    f"count mismatch at rank={rank}, kind {kind}, delta "
                    f"{sorted(delta)}: {tally[kind, delta]} pairs, {want} tilting modules"
                )
    for datum in data:
        kind, parts = datum.kind, (datum.delta,) + datum.residual_partition
        name = STRONG_ONE if kind == 1 else STRONG_TWO
        try:
            valid = validate_partition(cycle, PartPartition(parts, name, complete=True))
        except MalformedPartitionError:
            valid = False
        pair, model = datum.residual_pair, datum._model
        if kind == 1:
            induced = valid and is_cotilting_induced(model.quiver, pair) and pair.free.issuperset(model.projectives())
        else:
            induced = valid and is_tilting_induced(model.quiver, pair) and pair.torsion.issuperset(model.injectives())
        if not induced:
            problem = f"is not a valid {name} partition of the cycle" if not valid else f"gives no kind {kind} pair"
            raise ClassificationDefectError(f"partition {[sorted(p) for p in parts]} {problem}")
    cap = 2 * rank + 2
    shift = len(all_tube_modules(rank, cap))
    seen: dict[int, TubeTorsionPair] = {}  # packed fingerprint -> the pair with it
    for datum in data:
        torsion, free = datum.fingerprint(cap)
        earlier = seen.setdefault(torsion | free << shift, datum)
        if earlier is not datum:
            raise ClassificationDefectError(f"kind {earlier.kind} and kind {datum.kind} describe the same pair")
    return value


def partition_to_tube_tp(S: PartPartition, kind: int, rank: int | None = None) -> TubeTorsionPair:
    """Torsion pair of a complete strong partition of the cycle with
    nonempty leading part; the pair keeps the partition.

    The checked entry point, for certificates and library callers.  Kind 1
    takes a strong 1-type partition; the tail, read with an empty leading
    stage, is a partition of the residual segments whose pair is
    cotilting-induced.  Kind 2 is the mirror.  The cycle has `rank`
    vertices, by default as many as the partition covers; the partition
    must cover exactly 1..rank and is validated on the cycle.  A tail
    valid there is valid on the residual (the same stage ends, the same
    parity), so the pair is built from its stage masks unchecked, as
    `enumerate_tube_tps` builds it.
    """
    if kind not in (1, 2):
        raise ValueError("kind must be 1 or 2")
    want = STRONG_ONE if kind == 1 else STRONG_TWO
    if S.kind != want:
        raise ValueError(f"kind {kind} needs a {want} partition")
    if not S.parts or not S.parts[0]:
        raise ValueError("the leading part must be nonempty")
    if not S.complete:
        raise ValueError("the partition must be complete")
    if rank is None:
        rank = len(S.support)
    # the size test first keeps a huge claimed rank from building its range
    if len(S.support) != rank or S.support != frozenset(range(1, rank + 1)):
        raise ValueError(f"the partition must cover the vertices 1..{rank} of the cycle")
    cycle = cyclic_an(rank)
    if not validate_partition(cycle, S):
        raise ValueError(f"invalid partition {S}")
    model = model_for(subquiver(cycle, cycle.vertex_set - S.parts[0]))
    masks = _stage_masks(model, PartPartition((frozenset(),) + S.parts[1:], S.kind, complete=True))
    return _fill(object.__new__(TubeTorsionPair), rank, kind, S.parts[0], model, *masks, S.parts[1:])


def tube_tp_to_partition(data: TubeTorsionPair) -> PartPartition:
    """Complete strong partition of the cycle indexing a classified pair,
    peeled again from the residual pair: the inverse of `partition_to_tube_tp`
    found apart from the stored partition, which the tests compare it with."""
    side = "left" if data.kind == 1 else "right"
    tail = decompose(data.residual_quiver, data.residual_pair, side).partition
    if tail.parts and tail.parts[0]:
        raise ClassificationDefectError("residual pair is not of the induced kind")
    parts = (data.delta,) + tail.parts[1:]
    kind = STRONG_ONE if data.kind == 1 else STRONG_TWO
    return PartPartition(parts, kind, complete=True)


class CombinedTorsionPair(Record):
    """Componentwise torsion pair on a Hom-orthogonal direct sum of categories."""

    _fields = ("components",)

    def __init__(self, components: tuple) -> None:
        _set(self, "components", components)

    def membership(self, index: int, X) -> str:
        part = self.components[index]
        if isinstance(part, TubeTorsionPair):
            return part.membership(X)
        if X in part.torsion:
            return TORSION
        if X in part.free:
            return FREE
        return NEITHER


def combine_components(per_component: Sequence) -> CombinedTorsionPair:
    """Direct-sum torsion pair from one torsion pair per component."""
    return CombinedTorsionPair(tuple(per_component))


def truncated_check(data: TubeTorsionPair, cap: int):
    """Run the independent truncated torsion pair check on a classified pair."""
    from .oracle import check_tube_tp_truncated

    return check_tube_tp_truncated(
        data.rank, data.torsion_descriptor, data.free_descriptor, cap
    )
