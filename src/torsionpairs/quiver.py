"""Quivers and part partitions.

Three shapes are supported: the linearly oriented path 1 -> 2 -> ... -> n,
the oriented cycle on n vertices (arrows i -> i+1 mod n), and full support
subquivers of either, which are disjoint unions of linearly oriented paths.
Support subquivers stand in for the quotient algebras obtained by killing
the idempotents at the removed vertices.

A part partition is an ordered tuple of pairwise disjoint vertex subsets
(Delta_0, Delta_1, ..., Delta_m) whose middle parts must be nonempty and
which satisfies alternating sink/source or path conditions; "strong"
variants ask for sink/source containment, "complete" ones cover every
vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Iterator

LINEAR = "linearA"
CYCLIC = "cyclicA"
LINEAR_UNION = "linearUnion"

PLAIN_ONE = "1"
PLAIN_TWO = "2"
STRONG_ONE = "strong1"
STRONG_TWO = "strong2"
PARTITION_KINDS = (PLAIN_ONE, PLAIN_TWO, STRONG_ONE, STRONG_TWO)


class MalformedPartitionError(ValueError):
    """Structurally broken partition: overlapping parts or an empty middle part."""


@dataclass(frozen=True)
class Quiver:
    """Finite quiver with at most one arrow into and out of every vertex."""

    vertices: tuple[int, ...]
    arrows: tuple[tuple[int, int], ...]
    shape: str

    def __post_init__(self) -> None:
        if self.shape not in (LINEAR, CYCLIC, LINEAR_UNION):
            raise ValueError(f"unknown quiver shape {self.shape!r}")
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        for s, t in self.arrows:
            if s not in vs or t not in vs:
                raise ValueError(f"arrow ({s},{t}) leaves the vertex set")
        outs = [s for s, _ in self.arrows]
        ins = [t for _, t in self.arrows]
        if len(set(outs)) != len(outs) or len(set(ins)) != len(ins):
            raise ValueError("a vertex carries two arrows in the same direction")
        if self.shape == LINEAR:
            n = len(self.vertices)
            if self.vertices != tuple(range(1, n + 1)) or self.arrows != tuple(
                (i, i + 1) for i in range(1, n)
            ):
                raise ValueError("linear quiver must be 1 -> 2 -> ... -> n")
        elif self.shape == CYCLIC:
            n = len(self.vertices)
            want = tuple((i, i % n + 1) for i in range(1, n + 1))
            if n == 0 or self.vertices != tuple(range(1, n + 1)) or self.arrows != want:
                raise ValueError("cyclic quiver must be the oriented n-cycle")
        else:
            if self._has_cycle():
                raise ValueError("linear-union quiver must be acyclic")

    def _has_cycle(self) -> bool:
        succ = dict(self.arrows)
        for start in self.vertices:
            seen = set()
            v = start
            while v in succ:
                v = succ[v]
                if v == start or v in seen:
                    return True
                seen.add(v)
        return False

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    @cached_property
    def succ(self) -> dict[int, int]:
        return dict(self.arrows)

    @cached_property
    def pred(self) -> dict[int, int]:
        return {t: s for s, t in self.arrows}

    @cached_property
    def sinks(self) -> frozenset[int]:
        return frozenset(v for v in self.vertices if v not in self.succ)

    @cached_property
    def sources(self) -> frozenset[int]:
        return frozenset(v for v in self.vertices if v not in self.pred)

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components, each listed in arrow order.

        A cycle is one component starting at its smallest vertex.
        """
        if self.shape == CYCLIC:
            return (self.vertices,)
        comps = []
        for start in sorted(self.sources):
            comp = [start]
            v = start
            while v in self.succ:
                v = self.succ[v]
                comp.append(v)
            comps.append(tuple(comp))
        comps.sort(key=lambda c: c[0])
        return tuple(comps)

    @cached_property
    def position(self) -> dict[int, tuple[int, int]]:
        """vertex -> (component index, offset along the component)."""
        pos = {}
        for ci, comp in enumerate(self.components):
            for off, v in enumerate(comp):
                pos[v] = (ci, off)
        return pos

    @property
    def is_linear_type(self) -> bool:
        return self.shape in (LINEAR, LINEAR_UNION)

    def __repr__(self) -> str:
        if self.shape in (LINEAR, CYCLIC):
            return f"Quiver({self.shape}, n={len(self.vertices)})"
        return f"Quiver({self.shape}, components={self.components})"


def linear_an(n: int) -> Quiver:
    """The linearly oriented path quiver 1 -> 2 -> ... -> n."""
    if n < 1:
        raise ValueError("a linear quiver needs at least one vertex")
    return Quiver(
        vertices=tuple(range(1, n + 1)),
        arrows=tuple((i, i + 1) for i in range(1, n)),
        shape=LINEAR,
    )


def cyclic_an(n: int) -> Quiver:
    """The oriented cycle on n vertices; n = 1 gives a single loop."""
    if n < 1:
        raise ValueError("a cyclic quiver needs at least one vertex")
    return Quiver(
        vertices=tuple(range(1, n + 1)),
        arrows=tuple((i, i % n + 1) for i in range(1, n + 1)),
        shape=CYCLIC,
    )


def subquiver(q: Quiver, keep: Iterable[int]) -> Quiver:
    """Full subquiver on `keep`, retaining arrows with both ends kept.

    Keeping every vertex returns q itself; proper subquivers are memoised,
    so the residual quivers of repeated peelings and assemblies share one
    quiver and its cached properties.
    """
    keep = frozenset(keep)
    if keep == q.vertex_set:
        return q
    return _proper_subquiver(q, keep)


@lru_cache(maxsize=2048)
def _proper_subquiver(q: Quiver, keep: frozenset[int]) -> Quiver:
    if not keep <= q.vertex_set:
        raise ValueError("keep must be a subset of the vertex set")
    vertices = tuple(sorted(keep))
    arrows = tuple((s, t) for s, t in q.arrows if s in keep and t in keep)
    return Quiver(vertices=vertices, arrows=arrows, shape=LINEAR_UNION)


def path_exists(q: Quiver, sources: Iterable[int], targets: Iterable[int]) -> bool:
    """Directed path of length >= 0 from some source vertex to some target."""
    src = set(sources) & set(q.vertices)
    dst = set(targets) & set(q.vertices)
    if not src or not dst:
        return False
    seen = set(src)
    frontier = list(src)
    while frontier:
        if seen & dst:
            return True
        nxt = []
        for v in frontier:
            w = q.succ.get(v)
            if w is not None and w not in seen:
                seen.add(w)
                nxt.append(w)
        frontier = nxt
    return bool(seen & dst)


@dataclass(frozen=True)
class PartPartition:
    """Ordered tuple (Delta_0, ..., Delta_m) of disjoint vertex subsets.

    Delta_0 may be empty; all later parts must be nonempty.  `complete`
    records whether the parts cover the whole vertex set of the home
    quiver.
    """

    parts: tuple[frozenset[int], ...]
    kind: str
    complete: bool

    def __post_init__(self) -> None:
        if self.kind not in PARTITION_KINDS:
            raise ValueError(f"unknown partition kind {self.kind!r}")
        object.__setattr__(self, "parts", tuple(frozenset(p) for p in self.parts))

    @property
    def support(self) -> frozenset[int]:
        return frozenset().union(*self.parts) if self.parts else frozenset()

    def sort_key(self) -> tuple:
        return tuple(tuple(sorted(p)) for p in self.parts)

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, sorted(p))) + "}" for p in self.parts)
        return f"PartPartition([{inner}], {self.kind})"


def _check_structure(q: Quiver, partition: PartPartition) -> None:
    seen: set[int] = set()
    vs = set(q.vertices)
    for j, part in enumerate(partition.parts):
        if not part <= vs:
            raise MalformedPartitionError(f"part {j} is not a subset of the vertices")
        if j >= 1 and not part:
            raise MalformedPartitionError(f"part {j} is empty")
        if part & seen:
            raise MalformedPartitionError(f"part {j} overlaps an earlier part")
        seen |= part
    if not partition.parts:
        raise MalformedPartitionError("a partition needs at least the part Delta_0")


def projective_stage(kind: str, j: int) -> bool:
    """Whether stage j of a `kind` partition peels projectives (else
    injectives): the even stages of a 1-type partition, the odd of a 2-type."""
    return (j % 2 == 0) == (kind in (PLAIN_ONE, STRONG_ONE))


def stage_ends(q: Quiver, support: frozenset[int], projective: bool) -> frozenset[int]:
    """Sources (on a projective stage) or sinks of the full subquiver on
    `support`: the vertices whose predecessor (successor) in q lies outside it."""
    step = q.pred if projective else q.succ
    return frozenset(v for v in support if step.get(v) not in support)


def _linked(q: Quiver, prev: frozenset[int], rest: frozenset[int], vertices: Iterable[int],
            projective: bool) -> frozenset[int]:
    """The `vertices` joined to the previous part `prev` by a path inside
    `prev | rest`, the plain kinds' condition: a vertex of a projective
    stage reaches into `prev`, one of an injective stage is reached from it.
    """
    residual = subquiver(q, prev | rest)
    return frozenset(
        v
        for v in vertices
        if (path_exists(residual, {v}, prev) if projective else path_exists(residual, prev, {v}))
    )


def _kind_conditions_hold(q: Quiver, parts: tuple[frozenset[int], ...], kind: str) -> bool:
    strong = kind in (STRONG_ONE, STRONG_TWO)
    support = q.vertex_set
    for j, part in enumerate(parts):
        projective = projective_stage(kind, j)
        if j >= 1 and strong and not stage_ends(q, support, projective) <= part:
            return False
        if j >= 2 and not strong:
            prev = parts[j - 1]
            if _linked(q, prev, support, part, projective) != part:
                return False
        support = support - part
    return True


def validate_partition(q: Quiver, partition: PartPartition) -> bool:
    """Check a part partition against its declared kind on q.

    Sink/source containment is superset containment (extra vertices are
    allowed).  Overlapping parts or empty middle parts raise
    MalformedPartitionError; a completeness flag that disagrees with the
    actual union, or a failed kind condition, just returns False.
    """
    _check_structure(q, partition)
    if partition.complete != (partition.support == frozenset(q.vertices)):
        return False
    return _kind_conditions_hold(q, partition.parts, partition.kind)


def _subsets(pool: Iterable[int], include_empty: bool) -> Iterator[frozenset[int]]:
    pool = sorted(pool)
    sizes = range(0 if include_empty else 1, len(pool) + 1)
    for k in sizes:
        for combo in combinations(pool, k):
            yield frozenset(combo)


def enumerate_partitions(q: Quiver, kind: str, complete: bool = True) -> list[PartPartition]:
    """All valid partitions of the given kind, in lexicographic order.

    With complete=True only partitions covering every vertex are produced;
    otherwise every valid partition is listed, complete ones included.
    Partitions that share a part set share one frozenset object for it,
    so the list holds one copy of each distinct part.
    """
    if kind not in PARTITION_KINDS:
        raise ValueError(f"unknown partition kind {kind!r}")
    all_vertices = frozenset(q.vertices)
    results: list[PartPartition] = []
    shared: dict[frozenset[int], frozenset[int]] = {}

    def emit(parts: list[frozenset[int]]) -> None:
        support = frozenset().union(*parts) if parts else frozenset()
        is_complete = support == all_vertices
        if complete and not is_complete:
            return
        results.append(PartPartition(tuple(shared.setdefault(p, p) for p in parts), kind, is_complete))

    def candidates(parts: list[frozenset[int]], remaining: frozenset[int]) -> Iterator[frozenset[int]]:
        j = len(parts)
        projective = projective_stage(kind, j)
        if kind in (STRONG_ONE, STRONG_TWO):
            mandatory = stage_ends(q, remaining, projective)
            for extra in _subsets(remaining - mandatory, include_empty=True):
                part = mandatory | extra
                if part:
                    yield part
        else:
            if j == 1:
                pool = remaining
            else:
                prev = parts[-1]
                pool = _linked(q, prev, remaining, remaining, projective)
            yield from _subsets(pool, include_empty=False)

    def extend(parts: list[frozenset[int]], remaining: frozenset[int]) -> None:
        emit(parts)
        if not remaining:
            return
        for part in candidates(parts, remaining):
            extend(parts + [part], remaining - part)

    for delta0 in _subsets(all_vertices, include_empty=True):
        extend([delta0], all_vertices - delta0)

    results.sort(key=PartPartition.sort_key)
    return results
