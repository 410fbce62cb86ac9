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
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .decompose import (
    assemble,
    catalan,
    decompose,
    is_cotilting_induced,
    is_tilting_induced,
)
from .intervals import Interval, model_for
from .quiver import (
    STRONG_ONE,
    STRONG_TWO,
    PartPartition,
    Quiver,
    _subsets,
    cyclic_an,
    enumerate_partitions,
    subquiver,
)
from .torsion import TorsionPair
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


def _interval_to_tube(q: Quiver, rank: int, X: Interval) -> TubeModule:
    """Reread an interval on a residual segment as a tube module.

    A residual segment is shorter than the cycle, so the module is one of
    `all_tube_modules(rank, rank)`; the shared instance is returned, since
    the classified pairs keep their descriptors.
    """
    return all_tube_modules(rank, rank)[module_index(X.b, model_for(q).length(X), rank)]


@dataclass(frozen=True)
class TubeTorsionPair:
    """One classified torsion pair on the tube of the given rank."""

    rank: int
    kind: int
    delta: frozenset[int]
    residual_quiver: Quiver
    residual_pair: TorsionPair

    def __post_init__(self) -> None:
        if self.kind not in (1, 2):
            raise ValueError("kind must be 1 or 2")
        if not self.delta:
            raise ValueError("delta must be nonempty")

    def _finite_side(self, intervals: frozenset[Interval]) -> frozenset[TubeModule]:
        return frozenset(
            _interval_to_tube(self.residual_quiver, self.rank, X) for X in intervals
        )

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


def enumerate_tube_tps(rank: int) -> list[TubeTorsionPair]:
    """All torsion pairs on the tube of the given rank, in `sort_key` order.

    Built from the bijection: for each kind, every complete strong
    partition of the cycle with nonempty leading part gives one pair
    through `partition_to_tube_tp`, whose `assemble` validates the
    residual partition.  That each pair is a torsion pair of its kind and
    that no two pairs coincide are checked by `count_tube_tps(check=True)`.
    """
    if rank < 1:
        raise ValueError("rank must be positive")
    cycle = cyclic_an(rank)
    data = [
        partition_to_tube_tp(S, kind, rank)
        for kind, name in ((1, STRONG_ONE), (2, STRONG_TWO))
        for S in enumerate_partitions(cycle, name, complete=True)
        if S.parts[0]
    ]
    data.sort(key=TubeTorsionPair.sort_key)
    return data


def count_tube_tps(rank: int, check: bool = False) -> int:
    """Number of torsion pairs on the tube of the given rank, by classification.

    With check=True five more legs must agree with it, in this order:
      - formula: the closed form binom(2 rank, rank) (Baur-Buan-Marsh,
        "Torsion pairs and rigid objects in tubes", 2014);
      - partitions: the number of complete strong partitions of the
        cycle with nonempty leading part, of both kinds;
      - tally: for each kind and each nonempty delta, the number of
        classified pairs equals the number of tilting modules on the
        residual segments, the product of Catalan(|C|) over its
        components C.  The classification is built from the same
        partitions as the second leg; this leg checks it independently,
        one (kind, delta) at a time;
      - induced: each residual pair is a torsion pair of its kind, kind 1
        cotilting-induced and kind 2 tilting-induced, each computed two
        ways and compared;
      - fingerprint: no two pairs share a membership fingerprint truncated
        at 2 rank + 2.  Kind collisions are impossible (finite versus
        infinite torsion class), so any collision is a defect.
    """
    data = enumerate_tube_tps(rank)
    value = len(data)
    if check:
        cycle = cyclic_an(rank)
        by_partition = sum(
            1
            for kind in (STRONG_ONE, STRONG_TWO)
            for S in enumerate_partitions(cycle, kind, complete=True)
            if S.parts[0]
        )
        closed = math.comb(2 * rank, rank)
        if not closed == by_partition == value:
            raise RuntimeError(
                f"count mismatch at rank={rank}: formula {closed}, "
                f"partitions {by_partition}, classification {value}"
            )
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
            residual, tp = datum.residual_quiver, datum.residual_pair
            check_kind = is_cotilting_induced if datum.kind == 1 else is_tilting_induced
            if not check_kind(residual, tp):
                # rebuilding the partition for the message raises its own
                # defect when the peeling already shows the wrong kind
                S = tube_tp_to_partition(datum)
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
    nonempty leading part.

    Kind 1 takes a strong 1-type partition; the tail, read with an empty
    leading stage, is a partition of the residual segments whose pair is
    cotilting-induced.  Kind 2 is the mirror.  The cycle has `rank`
    vertices, by default as many as the partition covers; the partition
    must cover exactly 1..rank.  Then `assemble`'s check of the tail on the
    residual segments decides for the whole partition: past stage zero, a
    strong stage must hold the same vertices on the cycle as on the segments.
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
    delta = S.parts[0]
    residual = subquiver(cycle, frozenset(cycle.vertices) - delta)
    tail = PartPartition((frozenset(),) + S.parts[1:], want, complete=True)
    tp = assemble(residual, tail)
    return TubeTorsionPair(rank, kind, delta, residual, tp)


def tube_tp_to_partition(data: TubeTorsionPair) -> PartPartition:
    """Complete strong partition of the cycle indexing a classified pair."""
    side = "left" if data.kind == 1 else "right"
    tail = decompose(data.residual_quiver, data.residual_pair, side).partition
    if tail.parts and tail.parts[0]:
        raise ClassificationDefectError("residual pair is not of the induced kind")
    parts = (data.delta,) + tail.parts[1:]
    kind = STRONG_ONE if data.kind == 1 else STRONG_TWO
    return PartPartition(parts, kind, complete=True)


@dataclass(frozen=True)
class CombinedTorsionPair:
    """Componentwise torsion pair on a Hom-orthogonal direct sum of categories."""

    components: tuple

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
