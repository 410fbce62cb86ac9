"""Interval modules over linearly oriented A-type quivers.

With the orientation a -> a+1 -> ... -> b, the interval module [a, b] has
top S_a and socle S_b.  Its submodules shorten it from the top end
([c, b] for a <= c <= b), its quotients from the socle end ([a, c]), and
the AR translate shifts one step toward the sink: tau [a, b] = [a+1, b+1]
whenever [a, b] is not projective.  Everything here also works on disjoint
unions of linear components (support subquivers), interpreted componentwise.

Hom and Ext spaces between intervals are 0- or 1-dimensional.  Hom is
nonzero exactly when the map "quotient then include" exists (c <= a <= d
<= b for [a,b] -> [c,d]); Ext is computed by AR duality,
Ext^1(X, Y) = Hom(Y, tau X), which also covers the overlap extensions
whose middle terms decompose.  Both are closed forms in the positions of
the interval ends, evaluated on every call; no table is kept.  Every
model checks them against the Euler form on all ordered pairs when it is
built, and the test suite checks them against explicit matrix
representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .quiver import Quiver


class ModelDefectError(RuntimeError):
    """Internal consistency violation between independent computation rules."""


@dataclass(frozen=True, order=True)
class Interval:
    """Indecomposable module supported on the directed path from a to b.

    On the standard labeling that is the segment a, a+1, ..., b; support
    subquivers of a cycle may carry non-monotone labels.
    """

    a: int
    b: int

    def __repr__(self) -> str:
        return f"[{self.a},{self.b}]"


class LinearModel:
    """Finite category model of the interval modules over an A-type quiver.

    Stores the N interval objects and the quiver's vertex positions, O(N)
    in all; hom, ext and euler are O(1) closed forms in those positions.
    Construction checks hom - ext = euler on all N^2 ordered pairs of
    objects, O(1) each, through the same hom and ext that serve callers.
    All values are immutable, so one model may be shared freely.
    """

    def __init__(self, q: Quiver):
        if not q.is_linear_type:
            raise ValueError("interval modules require a linear-type quiver")
        self.quiver = q
        self._position = q.position
        objs = []
        for comp in q.components:
            for i in range(len(comp)):
                for j in range(i, len(comp)):
                    objs.append(Interval(comp[i], comp[j]))
        self.objects: tuple[Interval, ...] = tuple(sorted(objs))
        hom, ext, euler = self.hom, self.ext, self.euler
        for X in self.objects:
            for Y in self.objects:
                if hom(X, Y) - ext(X, Y) != euler(X, Y):
                    raise ModelDefectError(
                        f"hom/ext rules disagree with the Euler form at ({X}, {Y})"
                    )

    # -- bookkeeping -------------------------------------------------

    def _pos(self, v: int) -> tuple[int, int]:
        return self._position[v]

    def check_interval(self, X: Interval) -> None:
        pos = self.quiver.position
        if X.a not in pos or X.b not in pos:
            raise ValueError(f"{X} is not supported on the quiver")
        (ca, pa), (cb, pb) = pos[X.a], pos[X.b]
        if ca != cb or pa > pb:
            raise ValueError(f"{X} is not a directed segment of the quiver")

    def length(self, X: Interval) -> int:
        (_, pa), (_, pb) = self._pos(X.a), self._pos(X.b)
        return pb - pa + 1

    def support(self, X: Interval) -> tuple[int, ...]:
        ci, pa = self._pos(X.a)
        _, pb = self._pos(X.b)
        return self.quiver.components[ci][pa : pb + 1]

    def dim_vector(self, X: Interval) -> tuple[int, ...]:
        supp = set(self.support(X))
        return tuple(1 if v in supp else 0 for v in self.quiver.vertices)

    def top(self, X: Interval) -> int:
        return X.a

    def socle(self, X: Interval) -> int:
        return X.b

    # -- hom / ext ---------------------------------------------------
    #
    # X = [a, b] and Y = [c, d] sit on components cx, cy at offsets
    # pa <= pb and pc <= pd; modules on different components are
    # orthogonal.

    def hom(self, X: Interval, Y: Interval) -> int:
        pos = self._position
        (cx, pa), (_, pb) = pos[X.a], pos[X.b]
        (cy, pc), (_, pd) = pos[Y.a], pos[Y.b]
        # quotient of X to [a, d], then inclusion into Y: c <= a <= d <= b
        return 1 if cx == cy and pc <= pa <= pd <= pb else 0

    def ext(self, X: Interval, Y: Interval) -> int:
        # AR duality: Ext^1(X, Y) = Hom(Y, tau X) with tau X at offsets
        # pa+1, pb+1.  pb + 1 <= pd keeps tau X on the component, so a
        # projective X (socle at the sink) has no extensions.
        pos = self._position
        (cx, pa), (_, pb) = pos[X.a], pos[X.b]
        (cy, pc), (_, pd) = pos[Y.a], pos[Y.b]
        return 1 if cx == cy and pa < pc <= pb + 1 <= pd else 0

    def euler(self, X: Interval, Y: Interval) -> int:
        """<dim X, dim Y>: shared support minus arrows from supp X into supp Y.

        An arrow leaves offset p for p + 1, so the arrows counted are the
        offsets of [pa, pb] that fall in [pc - 1, pd - 1].
        """
        pos = self._position
        (cx, pa), (_, pb) = pos[X.a], pos[X.b]
        (cy, pc), (_, pd) = pos[Y.a], pos[Y.b]
        if cx != cy:
            return 0
        shared = max(0, min(pb, pd) - max(pa, pc) + 1)
        arrows = max(0, min(pb, pd - 1) - max(pa, pc - 1) + 1)
        return shared - arrows

    # -- uniserial structure ------------------------------------------

    def slice(self, X: Interval, lo: int, hi: int) -> Interval:
        """Subquotient between socle heights lo < hi (height 0 is the socle)."""
        ci, pa = self._pos(X.a)
        _, pb = self._pos(X.b)
        if not 0 <= lo < hi <= pb - pa + 1:
            raise ValueError("slice heights out of range")
        comp = self.quiver.components[ci]
        return Interval(comp[pb - hi + 1], comp[pb - lo])

    def submodules(self, X: Interval) -> tuple[Interval, ...]:
        """Nonzero submodules [c, b], shortest first."""
        return tuple(self.slice(X, 0, h) for h in range(1, self.length(X) + 1))

    def quotients(self, X: Interval) -> tuple[Interval, ...]:
        """Nonzero quotients [a, c], shortest first."""
        n = self.length(X)
        return tuple(self.slice(X, n - h, n) for h in range(1, n + 1))

    def glue(self, bottom: Interval, top: Interval) -> Interval | None:
        """Indecomposable stack of `top` on `bottom`, if the ends abut.

        Overlap extensions have decomposable middle terms whose summands
        are reached by gluing quotients instead, so the gluing fixpoint
        still computes extension closures of quotient-closed classes and
        of part unions of valid tuples.
        """
        if self.quiver.succ.get(top.b) == bottom.a:
            return Interval(top.a, bottom.b)
        return None

    # -- projectives, injectives, AR translation ----------------------

    def projectives(self) -> tuple[Interval, ...]:
        return tuple(sorted(Interval(v, comp[-1]) for comp in self.quiver.components for v in comp))

    def injectives(self) -> tuple[Interval, ...]:
        return tuple(sorted(Interval(comp[0], v) for comp in self.quiver.components for v in comp))

    def tau(self, X: Interval) -> Interval | None:
        nb = self.quiver.succ.get(X.b)
        if nb is None:
            return None
        return Interval(self.quiver.succ[X.a], nb)

    def tau_inv(self, X: Interval) -> Interval | None:
        pa = self.quiver.pred.get(X.a)
        if pa is None:
            return None
        return Interval(pa, self.quiver.pred[X.b])


@lru_cache(maxsize=None)
def model_for(q: Quiver) -> LinearModel:
    return LinearModel(q)


def indecomposables(q: Quiver) -> tuple[Interval, ...]:
    """All interval modules, n(n+1)/2 per linear component of size n."""
    return model_for(q).objects


def hom_dim(q: Quiver, X: Interval, Y: Interval) -> int:
    m = model_for(q)
    m.check_interval(X)
    m.check_interval(Y)
    return m.hom(X, Y)


def ext_dim(q: Quiver, X: Interval, Y: Interval) -> int:
    m = model_for(q)
    m.check_interval(X)
    m.check_interval(Y)
    return m.ext(X, Y)


def quotients(q: Quiver, X: Interval) -> tuple[Interval, ...]:
    m = model_for(q)
    m.check_interval(X)
    return m.quotients(X)


def submodules(q: Quiver, X: Interval) -> tuple[Interval, ...]:
    m = model_for(q)
    m.check_interval(X)
    return m.submodules(X)


def projectives(q: Quiver) -> tuple[Interval, ...]:
    return model_for(q).projectives()


def injectives(q: Quiver) -> tuple[Interval, ...]:
    return model_for(q).injectives()


def tau(q: Quiver, X: Interval) -> Interval | None:
    """AR translate, absent on projectives."""
    m = model_for(q)
    m.check_interval(X)
    return m.tau(X)


def tau_inv(q: Quiver, X: Interval) -> Interval | None:
    """Inverse AR translate, absent on injectives."""
    m = model_for(q)
    m.check_interval(X)
    return m.tau_inv(X)


def dim_vector(q: Quiver, X: Interval) -> tuple[int, ...]:
    return model_for(q).dim_vector(X)


def gen_closure(q: Quiver, modules: Iterable[Interval]) -> frozenset[Interval]:
    """Closure under quotients: all top-preserving shortenings of members."""
    m = model_for(q)
    out: set[Interval] = set()
    for X in modules:
        out.update(m.quotients(X))
    return frozenset(out)


def cogen_closure(q: Quiver, modules: Iterable[Interval]) -> frozenset[Interval]:
    """Closure under submodules: all socle-preserving shortenings of members."""
    m = model_for(q)
    out: set[Interval] = set()
    for X in modules:
        out.update(m.submodules(X))
    return frozenset(out)


def extension_closure(q: Quiver, modules: Iterable[Interval]) -> frozenset[Interval]:
    """Least set containing the input and closed under end-to-end gluing."""
    m = model_for(q)
    out = set(modules)
    grew = True
    while grew:
        grew = False
        for top in list(out):
            for bottom in list(out):
                glued = m.glue(bottom, top)
                if glued is not None and glued not in out:
                    out.add(glued)
                    grew = True
    return frozenset(out)


def restrict_support(q: Quiver, modules: Iterable[Interval], keep: Iterable[int]) -> frozenset[Interval]:
    """Members supported entirely inside `keep` (the quotient algebra's modules)."""
    keep = frozenset(keep)
    m = model_for(q)
    return frozenset(X for X in modules if set(m.support(X)) <= keep)
