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

`Record` is the base of the library's immutable value classes.
"""

from __future__ import annotations

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


# defined here, in a module every command loads, so that the CLI reports
# it without importing the oracle
class BoundExceededError(RuntimeError):
    """Requested size is beyond the configured exhaustive-search bound."""


# how a Record's __init__ sets a field past the frozen __setattr__
_set = object.__setattr__


class Record:
    """Immutable value with named fields.

    A subclass names its fields in `_fields`, sets them with `_set` in
    `__init__`, and defines `__eq__` (equal field tuples in the same
    class, else NotImplemented) and `__hash__` (the hash of the field
    tuple).  Assignment and deletion raise AttributeError;
    `cached_property` writes `__dict__` directly and still works.
    """

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Quiver(Record):
    """Finite quiver with at most one arrow into and out of every vertex.

    Quivers key many caches, so the hash is computed once.
    """

    _fields = ("vertices", "arrows", "shape")

    def __init__(self, vertices: tuple[int, ...], arrows: tuple[tuple[int, int], ...], shape: str) -> None:
        _set(self, "vertices", vertices)
        _set(self, "arrows", arrows)
        _set(self, "shape", shape)
        _set(self, "_hash", hash((vertices, arrows, shape)))
        if shape not in (LINEAR, CYCLIC, LINEAR_UNION):
            raise ValueError(f"unknown quiver shape {shape!r}")
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
        elif sum(map(len, self.components)) != len(self.vertices):
            # with one arrow in and out at most, the walks from the sources
            # miss exactly the vertices on a cycle
            raise ValueError("linear-union quiver must be acyclic")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertices, self.arrows, self.shape) == (other.vertices, other.arrows, other.shape)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__: a str hash, and so the stored one,
        # differs between processes
        return (Quiver, (self.vertices, self.arrows, self.shape))

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


class PartPartition(Record):
    """Ordered tuple (Delta_0, ..., Delta_m) of disjoint vertex subsets.

    Delta_0 may be empty; all later parts must be nonempty.  `complete`
    records whether the parts cover the whole vertex set of the home
    quiver.
    """

    _fields = ("parts", "kind", "complete")

    def __init__(self, parts: Iterable[Iterable[int]], kind: str, complete: bool) -> None:
        if kind not in PARTITION_KINDS:
            raise ValueError(f"unknown partition kind {kind!r}")
        _set(self, "parts", tuple(frozenset(p) for p in parts))
        _set(self, "kind", kind)
        _set(self, "complete", complete)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.parts, self.kind, self.complete) == (other.parts, other.kind, other.complete)

    def __hash__(self) -> int:
        return hash((self.parts, self.kind, self.complete))

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


def validate_partition(q: Quiver, partition: PartPartition) -> bool:
    """Check a part partition against its declared kind on q.

    Sink/source containment is superset containment (extra vertices are
    allowed).  Overlapping parts or empty middle parts raise
    MalformedPartitionError; a completeness flag that disagrees with the
    actual union, or a failed kind condition, just returns False.
    """
    _check_structure(q, partition)
    if partition.complete != (partition.support == q.vertex_set):
        return False
    strong = partition.kind in (STRONG_ONE, STRONG_TWO)
    support = q.vertex_set
    for j, part in enumerate(partition.parts):
        projective = projective_stage(partition.kind, j)
        if j >= 1 and strong and not stage_ends(q, support, projective) <= part:
            return False
        if j >= 2 and not strong and _linked(q, partition.parts[j - 1], support, part, projective) != part:
            return False
        support -= part
    return True


def _subsets(pool: Iterable[int], include_empty: bool) -> Iterator[frozenset[int]]:
    pool = sorted(pool)
    sizes = range(0 if include_empty else 1, len(pool) + 1)
    for k in sizes:
        for combo in combinations(pool, k):
            yield frozenset(combo)


def enumerate_partitions(q: Quiver, kind: str, complete: bool = True) -> Iterator[PartPartition]:
    """All valid partitions of the given kind, one at a time, in `sort_key` order.

    With complete=True only partitions covering every vertex are produced;
    otherwise every valid partition is yielded, complete ones included.
    An unknown kind raises here, before the first partition is asked for.

    One loop walks them depth first over a stack of (candidate parts,
    vertices left) per stage; `parts` holds the parts drawn below the top.
    Each stage offers its candidates ordered by their sorted vertices, so
    the walk reaches the partitions in `sort_key` order and yields each
    as it reaches it.
    """
    if kind not in PARTITION_KINDS:
        raise ValueError(f"unknown partition kind {kind!r}")
    strong = kind in (STRONG_ONE, STRONG_TWO)

    def candidates(parts: list[frozenset[int]], remaining: frozenset[int]) -> Iterator[frozenset[int]]:
        j = len(parts)
        projective = projective_stage(kind, j)
        if j == 0:
            found = _subsets(remaining, include_empty=True)
        elif strong:
            mandatory = stage_ends(q, remaining, projective)
            extras = _subsets(remaining - mandatory, include_empty=True)
            found = (mandatory | extra for extra in extras if mandatory or extra)
        else:
            pool = remaining if j == 1 else _linked(q, parts[-1], remaining, remaining, projective)
            found = _subsets(pool, include_empty=False)
        return iter(sorted(found, key=sorted))

    def walk() -> Iterator[PartPartition]:
        parts: list[frozenset[int]] = []
        stack = [(candidates(parts, q.vertex_set), q.vertex_set)]
        while stack:
            options, remaining = stack[-1]
            del parts[len(stack) - 1 :]
            part = next(options, None)
            if part is None:
                stack.pop()
                continue
            parts.append(part)
            left = remaining - part
            if not (complete and left):
                yield PartPartition(tuple(parts), kind, not left)
            if left:
                stack.append((candidates(parts, left), left))

    return walk()
