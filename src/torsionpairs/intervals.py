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
the interval ends, evaluated on every call; no Hom table is kept, as
the checks read Hom off the chain masks by `ChainModel`'s image rule.
The test suite checks hom and ext against explicit matrix
representations and against the Euler form, and the rule against hom.
"""

from __future__ import annotations

from functools import lru_cache, total_ordering
from typing import Iterable

from .quiver import Quiver, Record, _set
from .torsion import ChainModel, _union, extension_closure as _closure, mask_of, objects_of


@total_ordering
class Interval(Record):
    """Indecomposable module supported on the directed path from a to b.

    On the standard labeling that is the segment a, a+1, ..., b; support
    subquivers of a cycle may carry non-monotone labels.  Intervals are
    ordered by (a, b).
    """

    _fields = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "_hash", hash((a, b)))

    # written out, and the hash kept, as the path and tube routes hash and
    # compare intervals by the thousand
    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.a, self.b) == (other.a, other.b)

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.a, self.b) < (other.a, other.b)

    def __repr__(self) -> str:
        return f"[{self.a},{self.b}]"


class LinearModel(ChainModel):
    """Finite category model of the interval modules over an A-type quiver.

    Objects are the N intervals in sorted order, and the chains it gives
    `ChainModel` take O(N n) ints in all for n vertices.  `end_chains`
    holds two dicts: per vertex v, the quotient chain of the projective
    [v, sink] and the submodule chain of the injective [source, v], from
    which the stage walk reads its generators.  hom and ext are O(1)
    closed forms in the vertex positions.  All values are immutable, so
    one model may be shared freely.
    """

    def __init__(self, q: Quiver):
        if not q.is_linear_type:
            raise ValueError("interval modules require a linear-type quiver")
        self.quiver = q
        self._position = q.position
        # grid[c][p][k] = [comp[p], comp[p + k]] on component c
        grid = [
            [[Interval(a, b) for b in comp[p:]] for p, a in enumerate(comp)]
            for comp in q.components
        ]
        flat = [X for g in grid for row in g for X in row]
        order = sorted(range(len(flat)), key=flat.__getitem__)  # objects[i] = flat[order[i]]
        at = sorted(range(len(flat)), key=order.__getitem__)  # flat[f] = objects[at[f]]
        self._projectives = tuple(sorted(row[-1] for g in grid for row in g))  # [v, sink]
        self._injectives = tuple(sorted(X for g in grid for X in g[0]))  # [source, v]
        n_obj = len(flat)
        subs, quots = [()] * n_obj, [()] * n_obj
        before, same_socle = [None] * n_obj, [0] * n_obj
        end_quots, end_subs = {}, {}
        grid_at = iter(at)
        for comp, g in zip(q.components, grid):
            rows = [[next(grid_at) for _ in row] for row in g]
            for p, row in enumerate(rows):
                for k, i in enumerate(row):
                    quots[i] = tuple(row[: k + 1])
                    subs[i] = tuple(rows[p + k - m][m] for m in range(k + 1))
                    # [0, p-1] and [0, p+k] by offsets
                    if p > 0:
                        before[i] = rows[0][p - 1]
                    else:  # the injective [source, comp[k]]
                        end_subs[comp[k]] = subs[i]
                    same_socle[i] = rows[0][p + k]
                end_quots[comp[p]] = quots[i]  # the projective [comp[p], sink]
        self.end_chains = (end_quots, end_subs)
        super().__init__(
            tuple(map(flat.__getitem__, order)),
            tuple(subs),
            tuple(quots),
            (tuple(before), tuple(same_socle)),
        )

    # -- bookkeeping -------------------------------------------------

    def check_interval(self, X: Interval) -> None:
        pos = self.quiver.position
        if X.a not in pos or X.b not in pos:
            raise ValueError(f"{X} is not supported on the quiver")
        (ca, pa), (cb, pb) = pos[X.a], pos[X.b]
        if ca != cb or pa > pb:
            raise ValueError(f"{X} is not a directed segment of the quiver")

    def support(self, X: Interval) -> tuple[int, ...]:
        pos = self._position
        (ci, pa), (_, pb) = pos[X.a], pos[X.b]
        return self.quiver.components[ci][pa : pb + 1]

    def dim_vector(self, X: Interval) -> tuple[int, ...]:
        supp = set(self.support(X))
        return tuple(1 if v in supp else 0 for v in self.quiver.vertices)

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

    # -- uniserial structure ------------------------------------------

    def slice(self, X: Interval, lo: int, hi: int) -> Interval:
        """Subquotient between socle heights lo < hi (height 0 is the socle)."""
        pos = self._position
        (ci, pa), (_, pb) = pos[X.a], pos[X.b]
        if not 0 <= lo < hi <= pb - pa + 1:
            raise ValueError("slice heights out of range")
        comp = self.quiver.components[ci]
        return Interval(comp[pb - hi + 1], comp[pb - lo])

    def glue(self, bottom: Interval, top: Interval) -> Interval | None:
        """Indecomposable stack of `top` on `bottom`, if the ends abut.

        Overlap extensions have decomposable middle terms whose summands
        are reached by gluing quotients instead, so the gluing closure
        still computes extension closures of quotient-closed classes and
        of part unions of valid tuples.
        """
        if self.quiver.succ.get(top.b) == bottom.a:
            return Interval(top.a, bottom.b)
        return None

    # -- projectives, injectives, AR translation ----------------------

    def projectives(self) -> tuple[Interval, ...]:
        """The intervals [v, sink], sorted (built with the model)."""
        return self._projectives

    def injectives(self) -> tuple[Interval, ...]:
        """The intervals [source, v], sorted (built with the model)."""
        return self._injectives

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


@lru_cache(maxsize=1024)
def model_for(q: Quiver) -> LinearModel:
    """Shared model of q; the bound holds every subquiver of a 10-vertex path."""
    return LinearModel(q)


def indecomposables(q: Quiver) -> tuple[Interval, ...]:
    """All interval modules, n(n+1)/2 per linear component of size n."""
    return model_for(q).objects


def _checked(q: Quiver, *modules: Interval) -> LinearModel:
    """The model of q, once each module is checked to be an interval on q."""
    m = model_for(q)
    for X in modules:
        m.check_interval(X)
    return m


def hom_dim(q: Quiver, X: Interval, Y: Interval) -> int:
    return _checked(q, X, Y).hom(X, Y)


def ext_dim(q: Quiver, X: Interval, Y: Interval) -> int:
    return _checked(q, X, Y).ext(X, Y)


def quotients(q: Quiver, X: Interval) -> tuple[Interval, ...]:
    return _checked(q, X).quotients(X)


def submodules(q: Quiver, X: Interval) -> tuple[Interval, ...]:
    return _checked(q, X).submodules(X)


def projectives(q: Quiver) -> tuple[Interval, ...]:
    return model_for(q).projectives()


def injectives(q: Quiver) -> tuple[Interval, ...]:
    return model_for(q).injectives()


def tau(q: Quiver, X: Interval) -> Interval | None:
    """AR translate, absent on projectives."""
    return _checked(q, X).tau(X)


def tau_inv(q: Quiver, X: Interval) -> Interval | None:
    """Inverse AR translate, absent on injectives."""
    return _checked(q, X).tau_inv(X)


def dim_vector(q: Quiver, X: Interval) -> tuple[int, ...]:
    return model_for(q).dim_vector(X)


def gen_closure(q: Quiver, modules: Iterable[Interval]) -> frozenset[Interval]:
    """Closure under quotients: all top-preserving shortenings of members."""
    m = model_for(q)
    return objects_of(m, _union(m.quot_masks, mask_of(m, modules)))


def cogen_closure(q: Quiver, modules: Iterable[Interval]) -> frozenset[Interval]:
    """Closure under submodules: all socle-preserving shortenings of members."""
    m = model_for(q)
    return objects_of(m, _union(m.sub_masks, mask_of(m, modules)))


def extension_closure(q: Quiver, modules: Iterable[Interval]) -> frozenset[Interval]:
    """Least set containing the input and closed under end-to-end gluing."""
    return _closure(model_for(q), modules)


def restrict_support(q: Quiver, modules: Iterable[Interval], keep: Iterable[int]) -> frozenset[Interval]:
    """Members supported entirely inside `keep` (the quotient algebra's modules)."""
    keep = frozenset(keep)
    m = model_for(q)
    return frozenset(X for X in modules if set(m.support(X)) <= keep)
