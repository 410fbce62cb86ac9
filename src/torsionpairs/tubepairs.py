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

The walk yields only valid partitions, so each pair is built from its
tail's stage masks unchecked; partitions from outside are validated by
`partition_to_tube_tp`, and walked ones by `count_tube_tps(check=True)`.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property
from typing import Iterable, Sequence

from .decompose import (
    _stage_masks,
    catalan,
    decompose,
    is_cotilting_induced,
    is_tilting_induced,
)
from .intervals import Interval, model_for
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
    enumerate_partitions,
    subquiver,
    validate_partition,
)
from .torsion import TorsionPair, objects_of
from .tube import (
    CORAY_FINITE,
    FINITE,
    RAY_FINITE,
    TubeModule,
    TubeSubcatDescriptor,
    all_tube_modules,
    l_r_sets,
    module_index,
    truncate,
)

TORSION = "torsion"
FREE = "free"
NEITHER = "neither"


class ClassificationDefectError(RuntimeError):
    """A classified pair violates a structural law (collision, empty L and R)."""


def _interval_to_tube(rank: int, X: Interval) -> TubeModule:
    """Reread an interval [a, b] on a residual segment as a tube module.

    A residual segment is shorter than the cycle, so the interval runs
    (b - a) % rank + 1 vertices along it and the module is one of
    `all_tube_modules(rank, rank)`; the shared instance is returned, since
    the classified pairs keep their descriptors.
    """
    return all_tube_modules(rank, rank)[module_index(X.b, (X.b - X.a) % rank + 1, rank)]


class TubeTorsionPair(Record):
    """One classified torsion pair on the tube of the given rank, with the
    partition it was built from: `delta`, then `residual_partition`, the tail
    whose stage masks make `residual_pair` on `residual_quiver`."""

    _fields = ("rank", "kind", "delta", "residual_quiver", "residual_pair", "residual_partition")

    def __init__(
        self, rank: int, kind: int, delta: frozenset[int], residual_quiver: Quiver,
        residual_pair: TorsionPair, residual_partition: tuple[frozenset[int], ...],
    ) -> None:
        if kind not in (1, 2):
            raise ValueError("kind must be 1 or 2")
        if not delta:
            raise ValueError("delta must be nonempty")
        _set(self, "rank", rank)
        _set(self, "kind", kind)
        _set(self, "delta", delta)
        _set(self, "residual_quiver", residual_quiver)
        _set(self, "residual_pair", residual_pair)
        _set(self, "residual_partition", residual_partition)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.rank, self.kind, self.delta, self.residual_quiver, self.residual_pair, self.residual_partition
        ) == (
            other.rank, other.kind, other.delta, other.residual_quiver, other.residual_pair, other.residual_partition
        )

    def __hash__(self) -> int:
        return hash(
            (self.rank, self.kind, self.delta, self.residual_quiver, self.residual_pair, self.residual_partition)
        )

    def _finite_side(self, intervals: frozenset[Interval]) -> frozenset[TubeModule]:
        return frozenset(_interval_to_tube(self.rank, X) for X in intervals)

    @cached_property
    def torsion_descriptor(self) -> TubeSubcatDescriptor:
        finite = self._finite_side(self.residual_pair.torsion)
        if self.kind == 1:
            return TubeSubcatDescriptor(CORAY_FINITE, self.rank, self.delta, finite)
        return TubeSubcatDescriptor(FINITE, self.rank, frozenset(), finite)

    @cached_property
    def free_descriptor(self) -> TubeSubcatDescriptor:
        finite = self._finite_side(self.residual_pair.free)
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

    def fingerprint(self, cap: int) -> tuple[frozenset, frozenset]:
        return (
            frozenset(truncate(self.torsion_descriptor, cap)),
            frozenset(truncate(self.free_descriptor, cap)),
        )

    def sort_key(self) -> tuple:
        return (
            self.kind,
            tuple(sorted(self.delta)),
            tuple(sorted((X.a, X.b) for X in self.residual_pair.torsion)),
        )


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


def _tube_pair(cycle: Quiver, S: PartPartition, kind: int) -> TubeTorsionPair:
    """Pair of kind `kind` of a valid partition S of `cycle`, nothing checked.

    The tail, read with an empty leading stage, is a partition of the
    residual segments; its stage masks make the residual classes, which
    need no closure (as in `decompose._iter_class_masks`)."""
    residual = subquiver(cycle, cycle.vertex_set - S.parts[0])
    model = model_for(residual)
    tail = PartPartition((frozenset(),) + S.parts[1:], S.kind, complete=True)
    torsion, free = _stage_masks(model, tail)
    tp = TorsionPair(objects_of(model, torsion), objects_of(model, free))
    return TubeTorsionPair(len(cycle.vertices), kind, S.parts[0], residual, tp, S.parts[1:])


def enumerate_tube_tps(rank: int) -> list[TubeTorsionPair]:
    """All torsion pairs on the tube of the given rank, in `sort_key` order.

    Built from the bijection: for each kind, every complete strong
    partition of the cycle with nonempty leading part gives one pair,
    which keeps it.  The walk yields only valid partitions, so none is
    validated again here; that each is valid, that each pair is a torsion
    pair of its kind and that no two pairs coincide are checked by
    `count_tube_tps(check=True)`.
    """
    if rank < 1:
        raise ValueError("rank must be positive")
    cycle = cyclic_an(rank)
    data = [
        _tube_pair(cycle, S, kind)
        for kind, name in ((1, STRONG_ONE), (2, STRONG_TWO))
        for S in enumerate_partitions(cycle, name, complete=True)
        if S.parts[0]
    ]
    data.sort(key=TubeTorsionPair.sort_key)
    return data


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
        cotilting-induced and kind 2 tilting-induced, each computed two
        ways and compared;
      - fingerprint: no two pairs share a membership fingerprint truncated
        at 2 rank + 2.  Kind collisions are impossible (finite versus
        infinite torsion class), so any collision is a defect.
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
        parts = (datum.delta,) + datum.residual_partition
        S = [sorted(p) for p in parts]
        name = STRONG_ONE if datum.kind == 1 else STRONG_TWO
        try:
            valid = validate_partition(cycle, PartPartition(parts, name, complete=True))
        except MalformedPartitionError:
            valid = False
        if not valid:
            raise ClassificationDefectError(f"partition {S} is not a valid {name} partition of the cycle")
        residual, tp = datum.residual_quiver, datum.residual_pair
        check_kind = is_cotilting_induced if datum.kind == 1 else is_tilting_induced
        if not check_kind(residual, tp):
            raise ClassificationDefectError(f"partition {S} gives no kind {datum.kind} pair")
    cap = 2 * rank + 2
    seen: dict[tuple[int, int], TubeTorsionPair] = {}
    for datum in data:
        # each side as a bitmask over the truncation: the same comparison,
        # without keeping two module sets per pair
        fp = tuple(
            sum(1 << module_index(X.socle, X.length, rank) for X in side)
            for side in datum.fingerprint(cap)
        )
        if fp in seen:
            raise ClassificationDefectError(
                f"kind {seen[fp].kind} and kind {datum.kind} describe the same pair"
            )
        seen[fp] = datum
    return value


def partition_to_tube_tp(S: PartPartition, kind: int, rank: int | None = None) -> TubeTorsionPair:
    """Torsion pair of a complete strong partition of the cycle with
    nonempty leading part; the pair keeps the partition.

    The checked entry point, for certificates and library callers.  Kind 1
    takes a strong 1-type partition; the tail, read with an empty leading
    stage, is a partition of the residual segments whose pair is
    cotilting-induced.  Kind 2 is the mirror.  The cycle has `rank`
    vertices, by default as many as the partition covers; the partition
    must cover exactly 1..rank and is validated once, on the cycle, before
    `enumerate_tube_tps`'s builder makes the pair.
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
    return _tube_pair(cycle, S, kind)


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

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.components == other.components

    def __hash__(self) -> int:
        return hash((self.components,))

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


def count_combinations(per_component_choices: Iterable[Sequence]) -> int:
    """Number of torsion pairs on the direct sum: the product of the counts."""
    total = 1
    for choices in per_component_choices:
        total *= len(choices)
    return total


def truncated_check(data: TubeTorsionPair, cap: int):
    """Run the independent truncated torsion pair check on a classified pair."""
    from .oracle import check_tube_tp_truncated

    return check_tube_tp_truncated(
        data.rank, data.torsion_descriptor, data.free_descriptor, cap
    )
