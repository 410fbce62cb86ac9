"""Tube modules: finite-dimensional nilpotent representations of an oriented cycle.

The cycle of rank n carries the arrows i -> i+1 (mod n), extending the
linear orientation 1 -> 2 -> ... -> n.  Every indecomposable is uniserial
and determined by its socle and length: U(s, l) has socle S_s, composition
factors S_{s-l+1}, ..., S_{s-1}, S_s read from the top, hence top vertex
s - l + 1 (mod n).  Submodules share the socle, quotients share the top,
and the AR translate shifts the socle forward along the cycle:

    tau U(s, l) = U(s+1, l),      Ext^1(X, Y) = Hom(Y, tau X).

Vertex arithmetic is 1-based with wraparound to 1..n.  Infinite
subcategories are represented by descriptors carrying a membership
predicate; explicit sets are always truncations by length.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable

from .quiver import Record, _set
from .torsion import ChainModel

FINITE = "finite"
CORAY_FINITE = "coray+finite"
RAY_FINITE = "ray+finite"
DESCRIPTOR_KINDS = (FINITE, CORAY_FINITE, RAY_FINITE)


def norm_vertex(v: int, n: int) -> int:
    """Map an integer to the representative in 1..n."""
    return (v - 1) % n + 1


class TubeModule(Record):
    """Uniserial nilpotent module with the given socle and length."""

    _fields = ("socle", "length", "rank")

    def __init__(self, socle: int, length: int, rank: int) -> None:
        if rank < 1:
            raise ValueError("rank must be positive")
        if not 1 <= socle <= rank:
            raise ValueError("socle vertex out of range")
        if length < 1:
            raise ValueError("length must be positive")
        _set(self, "socle", socle)
        _set(self, "length", length)
        _set(self, "rank", rank)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.socle, self.length, self.rank) == (other.socle, other.length, other.rank)

    def __hash__(self) -> int:
        return hash((self.socle, self.length, self.rank))

    @property
    def top(self) -> int:
        return norm_vertex(self.socle - self.length + 1, self.rank)

    def __repr__(self) -> str:
        return f"U({self.socle},{self.length})"

    def sort_key(self) -> tuple[int, int]:
        return (self.length, self.socle)


def _same_rank(X: TubeModule, Y: TubeModule) -> int:
    if X.rank != Y.rank:
        raise ValueError("modules live on cycles of different rank")
    return X.rank


def hom_dim_tube(X: TubeModule, Y: TubeModule) -> int:
    """Dimension of Hom(X, Y).

    A basis is indexed by the lengths l' <= min(len X, len Y) for which the
    length-l' quotient of X equals the length-l' submodule of Y, i.e.
    l' = socle(Y) - socle(X) + len(X)  (mod n).
    """
    n = _same_rank(X, Y)
    m = min(X.length, Y.length)
    r = norm_vertex(Y.socle - X.socle + X.length, n)
    if r > m:
        return 0
    return (m - r) // n + 1


def tau_tube(X: TubeModule) -> TubeModule:
    """AR translate; total, since the tube has no projectives or injectives."""
    return TubeModule(norm_vertex(X.socle + 1, X.rank), X.length, X.rank)


def tau_inv_tube(X: TubeModule) -> TubeModule:
    return TubeModule(norm_vertex(X.socle - 1, X.rank), X.length, X.rank)


def ext_dim_tube(X: TubeModule, Y: TubeModule) -> int:
    """dim Ext^1(X, Y) via AR duality in a category without projectives."""
    _same_rank(X, Y)
    return hom_dim_tube(Y, tau_tube(X))


class TubeSubcatDescriptor(Record):
    """Decidable membership description of a subcategory of the tube.

    kind "coray+finite" holds every module with top in `delta` plus an
    explicit finite part; "ray+finite" every module with socle in `delta`;
    "finite" only the explicit part.
    """

    _fields = ("kind", "rank", "delta", "finite_part")

    def __init__(
        self, kind: str, rank: int, delta: Iterable[int] = frozenset(),
        finite_part: Iterable[TubeModule] = frozenset(),
    ) -> None:
        if kind not in DESCRIPTOR_KINDS:
            raise ValueError(f"unknown descriptor kind {kind!r}")
        delta, finite_part = frozenset(delta), frozenset(finite_part)
        if not all(1 <= v <= rank for v in delta):
            raise ValueError("delta contains a vertex outside 1..rank")
        if any(m.rank != rank for m in finite_part):
            raise ValueError("finite part contains modules of another rank")
        if kind == FINITE and delta:
            raise ValueError("a finite descriptor carries no delta")
        _set(self, "kind", kind)
        _set(self, "rank", rank)
        _set(self, "delta", delta)
        _set(self, "finite_part", finite_part)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.rank, self.delta, self.finite_part) == (
            other.kind, other.rank, other.delta, other.finite_part
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.rank, self.delta, self.finite_part))

    def contains(self, X: TubeModule) -> bool:
        if X.rank != self.rank:
            raise ValueError("module rank does not match the descriptor")
        if self.kind == CORAY_FINITE and X.top in self.delta:
            return True
        if self.kind == RAY_FINITE and X.socle in self.delta:
            return True
        return X in self.finite_part

    __call__ = contains


def ray(delta: Iterable[int], rank: int) -> TubeSubcatDescriptor:
    """All modules with socle in delta."""
    return TubeSubcatDescriptor(kind=RAY_FINITE, rank=rank, delta=frozenset(delta))


def coray(delta: Iterable[int], rank: int) -> TubeSubcatDescriptor:
    """All modules with top in delta."""
    return TubeSubcatDescriptor(kind=CORAY_FINITE, rank=rank, delta=frozenset(delta))


def l_r_sets(desc: TubeSubcatDescriptor) -> tuple[frozenset[int], frozenset[int]]:
    """(tops, socles) of the infinite families the descriptor carries.

    A coray part supplies infinitely many modules with each top in delta;
    a ray part infinitely many with each socle in delta; finite parts
    supply nothing.
    """
    if desc.kind == CORAY_FINITE:
        return desc.delta, frozenset()
    if desc.kind == RAY_FINITE:
        return frozenset(), desc.delta
    return frozenset(), frozenset()


def module_index(socle: int, length: int, rank: int) -> int:
    """Position of U(socle, length) in `all_tube_modules(rank, cap)`, for
    every cap of at least `length`; the socle is taken mod rank."""
    return (length - 1) * rank + norm_vertex(socle, rank) - 1


@lru_cache(maxsize=256)
def all_tube_modules(rank: int, cap: int) -> tuple[TubeModule, ...]:
    """Every indecomposable of length at most cap, ordered by (length, socle).

    Shared: the tuple and its modules are immutable.
    """
    return tuple(
        TubeModule(s, l, rank) for l in range(1, cap + 1) for s in range(1, rank + 1)
    )


@lru_cache(maxsize=256)
def _families(rank: int, cap: int) -> tuple[tuple[frozenset[TubeModule], ...], ...]:
    """Modules of length at most cap with top v (the coray families) and
    with socle v (the ray families), each indexed by v - 1."""
    members = all_tube_modules(rank, cap)
    vertices = range(1, rank + 1)
    by_top = tuple(frozenset(X for X in members if X.top == v) for v in vertices)
    by_socle = tuple(frozenset(X for X in members if X.socle == v) for v in vertices)
    return by_top, by_socle


def truncate(
    desc: TubeSubcatDescriptor | Callable[[TubeModule], bool],
    cap: int,
    rank: int | None = None,
) -> tuple[TubeModule, ...]:
    """Members of the descriptor (or raw predicate) with length <= cap,
    ordered by (length, socle).

    A descriptor is read directly: the coray or ray families of its delta
    plus the short modules of its finite part.  A raw predicate is tested
    on every module of length <= cap.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if isinstance(desc, TubeSubcatDescriptor):
        members = {X for X in desc.finite_part if X.length <= cap}
        if desc.kind != FINITE:
            by_top, by_socle = _families(desc.rank, cap)
            family = by_top if desc.kind == CORAY_FINITE else by_socle
            for v in desc.delta:
                members |= family[v - 1]
        return tuple(sorted(members, key=TubeModule.sort_key))
    if rank is None:
        raise ValueError("a raw predicate needs an explicit rank")
    return tuple(X for X in all_tube_modules(rank, cap) if desc(X))


class TubeModel(ChainModel):
    """Finite truncation of the tube: all modules of length <= cap.

    A `ChainModel` like the interval model, so the torsion pair calculus
    can run on it; gluings that would leave the truncation are reported
    as absent.  U(s, l) sits at `module_index(s, l, rank)` of `objects`,
    and the per-object tables are built from that arithmetic, `hom_rows`
    from `hom_dim_tube`; vertex v is bit v - 1 of a vertex mask.
    """

    def __init__(self, rank: int, cap: int):
        if rank < 1 or cap < 1:
            raise ValueError("rank and cap must be positive")
        self.rank = rank
        self.cap = cap
        objs = all_tube_modules(rank, cap)

        def at(socle: int, length: int) -> int:
            return module_index(socle, length, rank)

        hom_rows = tuple(
            sum(1 << j for j, Y in enumerate(objs) if hom_dim_tube(X, Y)) for X in objs
        )
        # submodules keep the socle; the length-h quotient has socle s - (l - h)
        sub_chains = tuple(
            tuple(at(X.socle, h) for h in range(1, X.length + 1)) for X in objs
        )
        quot_chains = tuple(
            tuple(at(X.socle - X.length + h, h) for h in range(1, X.length + 1)) for X in objs
        )
        vertex_masks = tuple(
            sum(1 << norm_vertex(X.socle - k, rank) - 1 for k in range(min(X.length, rank)))
            for X in objs
        )
        # the longest modules with socle before the top, and with the same socle
        glue_chains = (
            tuple(at(X.socle - X.length, cap) for X in objs),
            tuple(at(X.socle, cap) for X in objs),
        )
        super().__init__(objs, hom_rows, sub_chains, quot_chains, vertex_masks, glue_chains)

    def hom(self, X: TubeModule, Y: TubeModule) -> int:
        return hom_dim_tube(X, Y)

    def ext(self, X: TubeModule, Y: TubeModule) -> int:
        return ext_dim_tube(X, Y)

    def slice(self, X: TubeModule, lo: int, hi: int) -> TubeModule:
        """Subquotient between socle heights lo < hi (height 0 is the socle)."""
        if not 0 <= lo < hi <= X.length:
            raise ValueError("slice heights out of range")
        return TubeModule(norm_vertex(X.socle - lo, X.rank), hi - lo, X.rank)

    def glue(self, bottom: TubeModule, top: TubeModule) -> TubeModule | None:
        """Middle term of a nonsplit extension of `top` by `bottom`, capped."""
        if bottom.length + top.length > self.cap:
            return None
        if top.socle == norm_vertex(bottom.socle - bottom.length, self.rank):
            return TubeModule(bottom.socle, bottom.length + top.length, self.rank)
        return None
