"""Independent ground truth for the combinatorial models.

Morphism spaces are computed from explicit matrix representations: a
homomorphism is a tuple of vertex-wise linear maps commuting with every
arrow map, and its dimension is the nullity of the resulting linear
system, solved by exact fraction-free elimination over the integers
(floating point would make ranks unreliable).  Torsion pairs are
enumerated by exhausting the quotient-closed subsets of indecomposables
(one length cap per possible top) and filtering by extension closure,
read from a gluing table, and the torsion pair axioms.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import gcd
from typing import Callable, Iterable

from .intervals import Interval, model_for
from .quiver import CYCLIC, BoundExceededError, Quiver, cyclic_an, linear_an
from .torsion import CheckResult, TorsionPair, is_torsion_pair
from .tube import TubeModule, TubeSubcatDescriptor, all_tube_modules, norm_vertex


# -- exact linear algebra ---------------------------------------------------


def _rank(rows: list[list[int]]) -> int:
    """Rank over the rationals by fraction-free elimination: each row r below
    the pivot row p becomes p[col] * r - r[col] * p, divided by its gcd."""
    rows = [row[:] for row in rows if any(row)]
    rank = 0
    col = 0
    ncols = len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank]
        lead = p[col]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col]
            if factor != 0:
                row = [lead * x - factor * y for x, y in zip(rows[r], p)]
                g = gcd(*row)
                rows[r] = [x // g for x in row] if g > 1 else row
        rank += 1
        col += 1
    return rank


# -- explicit representations ----------------------------------------------


def _interval_rep(q: Quiver, X: Interval):
    """Vertex dimensions and arrow matrices: K on the support, identity maps."""
    supp = set(model_for(q).support(X))
    dims = {v: (1 if v in supp else 0) for v in q.vertices}
    mats = {}
    for s, t in q.arrows:
        mats[s, t] = [[1]] if s in supp and t in supp else []
    return dims, mats


# read-only once built, so every pair a module is in shares its rep
@lru_cache(maxsize=256)
def _tube_rep(X: TubeModule):
    """Nilpotent representation of the cycle with basis z_1..z_l from the top.

    z_k sits at vertex top + k - 1 (mod n) and the arrow maps send z_k to
    z_{k+1}, with z_l mapped to zero; the composite around the cycle is
    nilpotent.
    """
    n = X.rank
    q = cyclic_an(n)
    vertex_of = [norm_vertex(X.top + k, n) for k in range(X.length)]
    basis_at = {v: [k for k, w in enumerate(vertex_of) if w == v] for v in q.vertices}
    dims = {v: len(basis_at[v]) for v in q.vertices}
    mats = {}
    for s, t in q.arrows:
        mat = [[0] * dims[s] for _ in range(dims[t])]
        for col, k in enumerate(basis_at[s]):
            if k + 1 < X.length and vertex_of[k + 1] == t:
                row = basis_at[t].index(k + 1)
                mat[row][col] = 1
        mats[s, t] = mat
    return q, dims, mats


def _hom_system(q: Quiver, repX, repY) -> int:
    """Nullity of { f_t A_a^X = A_a^Y f_s : a an arrow } in the maps (f_v)."""
    dimsX, matsX = repX
    dimsY, matsY = repY
    offsets = {}
    nvars = 0
    for v in q.vertices:
        offsets[v] = nvars
        nvars += dimsX[v] * dimsY[v]

    def var(v: int, row: int, col: int) -> int:
        return offsets[v] + row * dimsX[v] + col

    rows: list[list[int]] = []
    for s, t in q.arrows:
        AX, AY = matsX[s, t], matsY[s, t]
        for i in range(dimsY[t]):
            for j in range(dimsX[s]):
                row = [0] * nvars
                # (f_t A_X)_{ij} = sum_k f_t[i,k] AX[k,j]
                for k in range(dimsX[t]):
                    row[var(t, i, k)] += AX[k][j]
                # (A_Y f_s)_{ij} = sum_k AY[i,k] f_s[k,j]
                for k in range(dimsY[s]):
                    row[var(s, k, j)] -= AY[i][k]
                rows.append(row)
    if nvars == 0:
        return 0
    return nvars - _rank(rows)


def hom_dim_matrix(X, Y, quiver: Quiver | None = None) -> int:
    """dim Hom(X, Y) from explicit representations (intervals or tube modules)."""
    if isinstance(X, TubeModule):
        if X.rank != Y.rank:
            raise ValueError("modules live on cycles of different rank")
        qc, dimsX, matsX = _tube_rep(X)
        _, dimsY, matsY = _tube_rep(Y)
        return _hom_system(qc, (dimsX, matsX), (dimsY, matsY))
    if quiver is None:
        raise ValueError("interval modules need their home quiver")
    return _hom_system(quiver, _interval_rep(quiver, X), _interval_rep(quiver, Y))


def euler_form(d: Iterable[int], e: Iterable[int], q: Quiver) -> int:
    """sum_i d_i e_i - sum_{arrows i->j} d_i e_j, for acyclic quivers only."""
    if q.shape == CYCLIC:
        raise ValueError("the Euler form here is reserved for acyclic quivers")
    return _euler_any(tuple(d), tuple(e), q)


def _euler_any(d: tuple[int, ...], e: tuple[int, ...], q: Quiver) -> int:
    if len(d) != len(q.vertices) or len(e) != len(q.vertices):
        raise ValueError("dimension vector length must match the vertex count")
    idx = {v: i for i, v in enumerate(q.vertices)}
    total = sum(a * b for a, b in zip(d, e))
    for s, t in q.arrows:
        total -= d[idx[s]] * e[idx[t]]
    return total


def ext_dim_matrix(X, Y, quiver: Quiver | None = None) -> int:
    """dim Ext^1(X, Y) = dim Hom(X, Y) - <dim X, dim Y>.

    Valid over any path algebra (the standard two-step projective
    resolution of a representation), including the cycle acting on
    nilpotent representations.
    """
    if isinstance(X, TubeModule):
        q = cyclic_an(X.rank)
        dX = _tube_dim_vector(X)
        dY = _tube_dim_vector(Y)
    else:
        if quiver is None:
            raise ValueError("interval modules need their home quiver")
        q = quiver
        dX = model_for(q).dim_vector(X)
        dY = model_for(q).dim_vector(Y)
    return hom_dim_matrix(X, Y, quiver) - _euler_any(dX, dY, q)


def _tube_dim_vector(X: TubeModule) -> tuple[int, ...]:
    dims = [0] * X.rank
    for k in range(X.length):
        dims[norm_vertex(X.socle - k, X.rank) - 1] += 1
    return tuple(dims)


# -- exhaustive torsion pair search -----------------------------------------


def _quotient_closed_subsets(q: Quiver):
    """Quotient-closed interval sets: a length cap (possibly none) per top.
    The sets hold the model's own objects, so its tables hit by identity."""
    model = model_for(q)
    per_top = []
    for comp in q.components:
        for v in comp:
            # [v, v] up to [v, sink]: the quotient chain of the projective of v
            chain = [model.objects[i] for i in model.end_chains[0][v]]
            per_top.append([frozenset(chain[:k]) for k in range(len(chain) + 1)])
    for chosen in product(*per_top):
        yield frozenset().union(*chosen)


def _gluing_table(model) -> dict:
    """Per top, the (bottom, glued) pairs with model.glue(bottom, top) = glued."""
    return {top: [(bottom, glued) for bottom in model.objects
                  if (glued := model.glue(bottom, top)) is not None] for top in model.objects}


def _is_extension_closed(table: dict, T: frozenset) -> bool:
    """Whether every gluing of two members of T lies in T."""
    for top in T:
        for bottom, glued in table[top]:
            if bottom in T and glued not in T:
                return False
    return True


def bruteforce_torsion_pairs(q: Quiver) -> list[TorsionPair]:
    """All torsion pairs on the interval modules of q, deterministically ordered."""
    model = model_for(q)
    table = _gluing_table(model)
    # into[Y]: the X with Hom(X, Y) != 0; Y is in T's right perp iff it misses T
    into = {Y: frozenset(X for X in model.objects if model.hom(X, Y)) for Y in model.objects}
    found = []
    for T in _quotient_closed_subsets(q):
        if not _is_extension_closed(table, T):
            continue
        F = frozenset(Y for Y in model.objects if into[Y].isdisjoint(T))
        if is_torsion_pair(model, T, F):
            found.append(TorsionPair(T, F))
    found.sort(key=lambda tp: tuple(sorted((X.a, X.b) for X in tp.torsion)))
    return found


def enumerate_torsion_pairs_bruteforce(n: int, bound: int = 6) -> list[TorsionPair]:
    """Exhaustive torsion pair search on the linear quiver with n vertices."""
    if n > bound:
        raise BoundExceededError(f"n = {n} exceeds the exhaustive-search bound {bound}")
    return bruteforce_torsion_pairs(linear_an(n))


# -- truncated checks on the tube -------------------------------------------


def check_tube_tp_truncated(
    rank: int,
    torsion: TubeSubcatDescriptor | Callable[[TubeModule], bool],
    free: TubeSubcatDescriptor | Callable[[TubeModule], bool],
    cap: int,
) -> CheckResult:
    """Torsion pair axioms on the length-capped tube.

    Orthogonality is checked with matrix Hom spaces over every truncated
    member pair; canonical sequences are demanded for every indecomposable
    of length at most cap - 1, so both ends stay inside the truncation.
    """
    if cap < 2:
        raise ValueError("cap must be at least 2")
    in_t = torsion.contains if isinstance(torsion, TubeSubcatDescriptor) else torsion
    in_f = free.contains if isinstance(free, TubeSubcatDescriptor) else free
    members = all_tube_modules(rank, cap)
    T = [X for X in members if in_t(X)]
    F = [Y for Y in members if in_f(Y)]
    for X in T:
        for Y in F:
            if hom_dim_matrix(X, Y) != 0:
                return CheckResult(False, (X, Y), f"Hom({X},{Y}) != 0")
    for X in members:
        if X.length > cap - 1:
            continue
        height = 0
        for h in range(X.length, 0, -1):
            if in_t(TubeModule(X.socle, h, rank)):
                height = h
                break
        if height < X.length:
            quotient = TubeModule(
                norm_vertex(X.socle - height, rank), X.length - height, rank
            )
            if not in_f(quotient):
                return CheckResult(False, X, f"no canonical sequence for {X}")
    return CheckResult(True)
