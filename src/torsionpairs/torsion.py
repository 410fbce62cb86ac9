"""Torsion pair calculus over a finite category model.

A model is any object exposing `objects` (a tuple of uniserial
indecomposables), `object_set` (the same objects as a frozenset, the
default ambient), `hom(X, Y)`, `ext(X, Y)`, `length(X)`,
`slice(X, lo, hi)` (the subquotient between two socle heights),
`submodules(X)` and `quotients(X)` (the nonzero submodules and quotients,
shortest first, so entry h - 1 has length h), `glue(bottom, top)` (the
indecomposable middle term of a nonsplit extension, if any) and
`glue_ends(X)` (the top vertex of X and the vertex after its socle, or
None where the socle has no successor: `glue(bottom, top)` can only
succeed when the second end of `top` is the first end of `bottom`).
Both the interval model and the truncated tube model qualify.

Subcategories are frozensets of indecomposables; additive closure is
implicit and the zero module is handled out of band (no object encodes
it).  A torsion pair (T, F) demands Hom(T, F) = 0 and, for every object,
an exact sequence 0 -> t(X) -> X -> X/t(X) -> 0 with ends in T and F.
An n-torsion pair is an (n+1)-tuple of parts refining a nested chain of
torsion pairs; the maps `series_to_ntp` / `ntp_to_series` translate
between the two presentations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence


@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict with the first witness of failure, if any."""

    ok: bool
    witness: object = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class TorsionPair:
    torsion: frozenset
    free: frozenset

    def __post_init__(self) -> None:
        object.__setattr__(self, "torsion", frozenset(self.torsion))
        object.__setattr__(self, "free", frozenset(self.free))


@dataclass(frozen=True)
class NTorsionPair:
    """Parts (C_1, ..., C_{n+1}); empty parts are allowed."""

    parts: tuple[frozenset, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(frozenset(p) for p in self.parts))
        if not self.parts:
            raise ValueError("an n-torsion pair needs at least one part")


@dataclass(frozen=True)
class TorsionPairSeries:
    """Nested chain of torsion pairs: T_1 <= T_2 <= ... <= T_n."""

    pairs: tuple[TorsionPair, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple(self.pairs))
        if not self.pairs:
            raise ValueError("a series needs at least one pair")
        for earlier, later in zip(self.pairs, self.pairs[1:]):
            if not earlier.torsion <= later.torsion:
                raise ValueError("torsion classes in a series must be nested")


@dataclass(frozen=True)
class Filtration:
    """Chain 0 = X_0 <= ... <= X_{n+1} = X with factor i attributed to part i.

    `chain[i]` is X_i (None encodes the zero module) and `factors[i-1]` is
    X_i / X_{i-1} (None for a zero factor), so the index alignment with the
    parts is kept even where factors vanish.
    """

    chain: tuple
    factors: tuple

    def nonzero_factors(self) -> tuple:
        return tuple((i + 1, f) for i, f in enumerate(self.factors) if f is not None)


# -- perpendicular categories --------------------------------------------


def _ambient(model, ambient):
    return model.object_set if ambient is None else frozenset(ambient)


@lru_cache(maxsize=256)
def _witness_order(amb: frozenset) -> tuple:
    """Ambient objects in the order checks search them for a witness."""
    return tuple(sorted(amb, key=repr))


def perp_left(model, D: Iterable, ambient=None) -> frozenset:
    """{X : Hom(X, d) = 0 for all d in D}, within the ambient objects."""
    D = tuple(D)
    return frozenset(X for X in _ambient(model, ambient) if all(model.hom(X, d) == 0 for d in D))


def perp_right(model, D: Iterable, ambient=None) -> frozenset:
    """{Y : Hom(d, Y) = 0 for all d in D}, within the ambient objects."""
    D = tuple(D)
    return frozenset(Y for Y in _ambient(model, ambient) if all(model.hom(d, Y) == 0 for d in D))


def extension_closure(model, modules: Iterable) -> frozenset:
    """Least superset closed under stacking (gluing worklist).

    A uniserial object filtered by members arises from iterated gluings,
    so on the classes occurring here (unions of parts of a valid tuple,
    quotient-closed classes) this equals the closure under extensions.
    Each member is glued, both ways round, only against the members
    already indexed (itself included) whose ends meet it, found through
    two indexes: members by top vertex and by the vertex after the socle.
    """
    out = set(modules)
    work = list(out)
    by_top: dict = {}
    by_next: dict = {}
    glue, ends = model.glue, model.glue_ends

    def add(glued) -> None:
        if glued is not None and glued not in out:
            out.add(glued)
            work.append(glued)

    for X in work:  # also visits the members appended while it runs
        top, nxt = ends(X)
        by_top.setdefault(top, []).append(X)
        by_next.setdefault(nxt, []).append(X)
        for bottom in by_top.get(nxt, ()):
            add(glue(bottom, X))
        for upper in by_next.get(top, ()):
            add(glue(X, upper))
    return frozenset(out)


# -- torsion pairs ---------------------------------------------------------


def _torsion_height(model, T: frozenset, X) -> int:
    """Largest socle height h with the height-h submodule of X in T (0 if none)."""
    subs = model.submodules(X)
    for h in range(len(subs), 0, -1):
        if subs[h - 1] in T:
            return h
    return 0


def torsion_submodule(model, T: Iterable, X):
    """Maximal submodule of the uniserial X lying in T, or None for zero."""
    T = frozenset(T)
    h = _torsion_height(model, T, X)
    return None if h == 0 else model.slice(X, 0, h)


def is_torsion_pair(model, torsion: Iterable, free: Iterable, ambient=None) -> CheckResult:
    """Check orthogonality and the canonical sequence for every ambient object.

    The torsion submodule is the largest chain submodule lying in the
    torsion class; under orthogonality this is equivalent to asking for any
    witness submodule.
    """
    T, F = frozenset(torsion), frozenset(free)
    amb = _ambient(model, ambient)
    if not T <= amb or not F <= amb:
        return CheckResult(False, None, "classes leave the ambient subcategory")
    for X in T:
        for Y in F:
            if model.hom(X, Y) != 0:
                return CheckResult(False, (X, Y), f"Hom({X},{Y}) != 0")
    for X in _witness_order(amb):
        h = _torsion_height(model, T, X)
        quots = model.quotients(X)
        # the quotient by the height-h submodule has length len(X) - h
        if h < len(quots) and quots[len(quots) - h - 1] not in F:
            return CheckResult(False, X, f"no canonical sequence for {X}")
    return CheckResult(True)


def decompose_along(model, tp: TorsionPair, D: Iterable) -> tuple[frozenset, frozenset]:
    """Torsion submodules and torsion-free quotients of the members of D."""
    subs, quots = set(), set()
    for X in D:
        h = _torsion_height(model, tp.torsion, X)
        if h > 0:
            subs.add(model.slice(X, 0, h))
        if h < model.length(X):
            quots.add(model.slice(X, h, model.length(X)))
    return frozenset(subs), frozenset(quots)


# -- n-torsion pairs -------------------------------------------------------


def series_to_ntp(series: TorsionPairSeries) -> NTorsionPair:
    """(T_1, F_1 & T_2, ..., F_{n-1} & T_n, F_n) from a nested chain."""
    pairs = series.pairs
    parts = [pairs[0].torsion]
    for prev, cur in zip(pairs, pairs[1:]):
        parts.append(prev.free & cur.torsion)
    parts.append(pairs[-1].free)
    return NTorsionPair(tuple(parts))


def ntp_to_series(model, ntp: NTorsionPair, ambient=None) -> TorsionPairSeries:
    """Chain of prefix/suffix extension closures of the parts."""
    if len(ntp.parts) < 2:
        raise ValueError("a one-part tuple has an empty series")
    check = is_ntp(model, ntp.parts, ambient)
    if not check:
        raise ValueError(f"not an n-torsion pair: {check.reason}")
    parts = ntp.parts
    pairs = []
    for i in range(1, len(parts)):
        Ti = extension_closure(model, frozenset().union(*parts[:i]))
        Fi = extension_closure(model, frozenset().union(*parts[i:]))
        pairs.append(TorsionPair(Ti, Fi))
    return TorsionPairSeries(tuple(pairs))


def _filtration_heights(model, parts: Sequence[frozenset], X) -> list[set[int]]:
    """Reachable socle heights after placing a factor in each part, in order."""
    n = model.length(X)
    reach = {0}
    stages = []
    for part in parts:
        nxt = set(reach)
        for h in reach:
            for h2 in range(h + 1, n + 1):
                if model.slice(X, h, h2) in part:
                    nxt.add(h2)
        stages.append(nxt)
        reach = nxt
    return stages


def is_ntp(model, parts: Sequence[frozenset], ambient=None) -> CheckResult:
    """Pairwise Hom-orthogonality plus a factor-in-order filtration for all objects."""
    parts = tuple(frozenset(p) for p in parts)
    amb = _ambient(model, ambient)
    for p in parts:
        if not p <= amb:
            return CheckResult(False, None, "a part leaves the ambient subcategory")
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            for X in parts[i]:
                for Y in parts[j]:
                    if model.hom(X, Y) != 0:
                        return CheckResult(False, (X, Y), f"Hom({X},{Y}) != 0 across parts")
    for X in _witness_order(amb):
        stages = _filtration_heights(model, parts, X)
        if model.length(X) not in stages[-1]:
            return CheckResult(False, X, f"no ordered filtration for {X}")
    return CheckResult(True)


def filtration(model, ntp: NTorsionPair, X) -> Filtration:
    """Canonical chain with factor i in part i; unique for uniserial objects.

    X_i is the maximal submodule inside the extension closure of the first
    i parts, so the factors are forced.
    """
    parts = ntp.parts
    n = model.length(X)
    heights = [0]
    for i in range(1, len(parts)):
        Ti = extension_closure(model, frozenset().union(*parts[:i]))
        h = _torsion_height(model, Ti, X)
        heights.append(max(h, heights[-1]))
    heights.append(n)
    chain = [None]
    factors = []
    for lo, hi in zip(heights, heights[1:]):
        chain.append(None if hi == 0 else model.slice(X, 0, hi))
        if hi == lo:
            factors.append(None)
        else:
            factor = model.slice(X, lo, hi)
            if factor not in parts[len(factors)]:
                raise ValueError(f"factor {factor} escapes part {len(factors) + 1}")
            factors.append(factor)
    return Filtration(tuple(chain), tuple(factors))


def refine(model, ntp: NTorsionPair, index: int, sub: NTorsionPair, ambient=None) -> NTorsionPair:
    """Splice a finer tuple living on part `index` (1-based) in its place."""
    if not 1 <= index <= len(ntp.parts):
        raise ValueError("part index out of range")
    target = ntp.parts[index - 1]
    for p in sub.parts:
        if not p <= target:
            raise ValueError("refinement does not live on the chosen part")
    check = is_ntp(model, sub.parts, ambient=target)
    if not check:
        raise ValueError(f"refinement is not an n-torsion pair on the part: {check.reason}")
    parts = ntp.parts[: index - 1] + sub.parts + ntp.parts[index:]
    result = NTorsionPair(parts)
    check = is_ntp(model, result.parts, ambient)
    if not check:
        raise ValueError(f"spliced tuple fails: {check.reason}")
    return result


def merge_parts(model, ntp: NTorsionPair, index: int, count: int) -> NTorsionPair:
    """Replace parts index..index+count (1-based) by their extension closure."""
    if count < 0 or not 1 <= index <= index + count <= len(ntp.parts):
        raise ValueError("merge range out of bounds")
    merged = extension_closure(
        model, frozenset().union(*ntp.parts[index - 1 : index + count])
    )
    return NTorsionPair(ntp.parts[: index - 1] + (merged,) + ntp.parts[index + count :])


def complete_defect(model, parts: Sequence[frozenset], ambient=None) -> NTorsionPair:
    """Enlarge pairwise-orthogonal parts to the canonical n-torsion pair
    containing them.

    Every prefix closure T_i must already be a torsion class (its pair with
    its right perpendicular must verify); the enlargement is then
    C_i = F_{i-1} & T_i with F_i the right perpendicular of T_i.  When the
    suffix closures pair with the prefixes as well (the defect situation),
    this is the only n-torsion pair containing the parts.
    """
    parts = tuple(frozenset(p) for p in parts)
    amb = _ambient(model, ambient)
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            for X in parts[i]:
                for Y in parts[j]:
                    if model.hom(X, Y) != 0:
                        raise ValueError(f"parts are not orthogonal at ({X},{Y})")
    fs = [amb]
    ts = []
    for i in range(1, len(parts)):
        Ti = extension_closure(model, frozenset().union(*parts[:i]))
        Fi = perp_right(model, Ti, amb)
        check = is_torsion_pair(model, Ti, Fi, amb)
        if not check:
            raise ValueError(f"prefix closure {i} is not a torsion class: {check.reason}")
        ts.append(Ti)
        fs.append(Fi)
    ts.append(amb)
    enlarged = tuple(fs[i] & ts[i] for i in range(len(parts)))
    for small, big in zip(parts, enlarged):
        if not small <= big:
            raise ValueError("completion does not contain the given parts")
    result = NTorsionPair(enlarged)
    check = is_ntp(model, result.parts, amb)
    if not check:
        raise ValueError(f"completion fails: {check.reason}")
    return result


# -- the interval of torsion pairs between two nested ones ------------------


def interval_bijection_f(model, series2: TorsionPairSeries, inner: TorsionPair, ambient=None) -> TorsionPair:
    """Lift a torsion pair on F_1 & T_2 to one between (T_1,F_1) and (T_2,F_2)."""
    if len(series2.pairs) != 2:
        raise ValueError("a 2-series is required")
    (t1, f1), (t2, f2) = (
        (series2.pairs[0].torsion, series2.pairs[0].free),
        (series2.pairs[1].torsion, series2.pairs[1].free),
    )
    mid = f1 & t2
    if not inner.torsion <= mid or not inner.free <= mid:
        raise ValueError("inner pair does not live on F_1 & T_2")
    check = is_torsion_pair(model, inner.torsion, inner.free, ambient=mid)
    if not check:
        raise ValueError(f"inner pair fails on the interval: {check.reason}")
    lifted = TorsionPair(
        extension_closure(model, t1 | inner.torsion),
        extension_closure(model, inner.free | f2),
    )
    if not (t1 <= lifted.torsion and lifted.torsion <= t2):
        raise ValueError("lifted pair escapes the interval")
    return lifted


def interval_bijection_g(model, series2: TorsionPairSeries, tp: TorsionPair) -> TorsionPair:
    """Cut a torsion pair between (T_1,F_1) and (T_2,F_2) down to F_1 & T_2."""
    if len(series2.pairs) != 2:
        raise ValueError("a 2-series is required")
    t1, f1 = series2.pairs[0].torsion, series2.pairs[0].free
    t2 = series2.pairs[1].torsion
    if not (t1 <= tp.torsion and tp.torsion <= t2):
        raise ValueError("pair does not lie between the two given ones")
    return TorsionPair(tp.torsion & f1, tp.free & t2)


# -- Ext-projectives and Ext-injectives -------------------------------------


def ext_projectives_in(model, C: Iterable, ambient: Iterable) -> frozenset:
    """Members of C with Ext^1(X, -) vanishing on the ambient class."""
    ambient = tuple(ambient)
    return frozenset(X for X in C if all(model.ext(X, Y) == 0 for Y in ambient))


def ext_injectives_in(model, C: Iterable, ambient: Iterable) -> frozenset:
    """Members of C with Ext^1(-, X) vanishing on the ambient class."""
    ambient = tuple(ambient)
    return frozenset(X for X in C if all(model.ext(Y, X) == 0 for Y in ambient))
