"""Torsion pair calculus over a finite category model.

A model is a `ChainModel`.  A subclass supplies a tuple `objects` of
uniserial indecomposables and, per object in that order, `sub_chains`
and `quot_chains` (the indices of the nonzero submodules and quotients,
shortest first, so entry h - 1 has length h) and `glue_chains` (two
such tuples: the indices of the longest objects ending right before the
top of X, None where there is no such vertex, and ending at its socle).
The base derives `index` (each object's position) and the chains as
bitmasks, `sub_masks` and `quot_masks`, and serves `length(X)`,
`submodules(X)` and `quotients(X)`.  A subclass adds `hom(X, Y)`,
`ext(X, Y)`, `slice(X, lo, hi)` (the subquotient between two socle
heights) and `glue(bottom, top)` (the indecomposable middle term of a
nonsplit extension, if any: it can only exist when the vertex after the
socle of `top` is the top vertex of `bottom`).  The interval
model and the truncated tube model are both `ChainModel`s.

Subcategories are frozensets of indecomposables; additive closure is
implicit and the zero module is handled out of band (no object encodes
it).  A torsion pair (T, F) demands Hom(T, F) = 0 and, for every object,
an exact sequence 0 -> t(X) -> X -> X/t(X) -> 0 with ends in T and F.
An n-torsion pair is an (n+1)-tuple of parts refining a nested chain of
torsion pairs; the maps `series_to_ntp` / `ntp_to_series` translate
between the two presentations.

The checks, closures and perpendiculars convert their arguments once to
bitmasks over `objects` (bit i for objects[i]; an ambient must consist
of objects of the model) and then work on bits: orthogonality is the
image rule of `ChainModel`, a torsion submodule is a bit test along a
submodule chain, and the middle terms of the extensions of one class by
another come from `glue_chains`.  Only once a test has failed do they
walk the caller's sets, in the caller's own iteration order or sorted
by `repr`, so a failure returns the same witness as an object-by-object
search.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Sequence

from .quiver import Record, _set


class CheckResult(Record):
    """Boolean verdict with the first witness of failure, if any."""

    _fields = ("ok", "witness", "reason")

    def __init__(self, ok: bool, witness: object = None, reason: str = "") -> None:
        _set(self, "ok", ok)
        _set(self, "witness", witness)
        _set(self, "reason", reason)

    def __bool__(self) -> bool:
        return self.ok


_HOLDS = CheckResult(True)  # the verdict of every check that holds


class TorsionPair(Record):
    _fields = ("torsion", "free")

    def __init__(self, torsion: Iterable, free: Iterable) -> None:
        _set(self, "torsion", frozenset(torsion))
        _set(self, "free", frozenset(free))


class NTorsionPair(Record):
    """Parts (C_1, ..., C_{n+1}); empty parts are allowed."""

    _fields = ("parts",)

    def __init__(self, parts: Iterable[Iterable]) -> None:
        parts = tuple(frozenset(p) for p in parts)
        if not parts:
            raise ValueError("an n-torsion pair needs at least one part")
        _set(self, "parts", parts)


class TorsionPairSeries(Record):
    """Nested chain of torsion pairs: T_1 <= T_2 <= ... <= T_n."""

    _fields = ("pairs",)

    def __init__(self, pairs: Iterable[TorsionPair]) -> None:
        pairs = tuple(pairs)
        if not pairs:
            raise ValueError("a series needs at least one pair")
        for earlier, later in zip(pairs, pairs[1:]):
            if not earlier.torsion <= later.torsion:
                raise ValueError("torsion classes in a series must be nested")
        _set(self, "pairs", pairs)


class Filtration(Record):
    """Chain 0 = X_0 <= ... <= X_{n+1} = X with factor i attributed to part i.

    `chain[i]` is X_i (None encodes the zero module) and `factors[i-1]` is
    X_i / X_{i-1} (None for a zero factor), so the index alignment with the
    parts is kept even where factors vanish.
    """

    _fields = ("chain", "factors")

    def __init__(self, chain: tuple, factors: tuple) -> None:
        _set(self, "chain", chain)
        _set(self, "factors", factors)

    def nonzero_factors(self) -> tuple:
        return tuple((i + 1, f) for i, f in enumerate(self.factors) if f is not None)


# -- the model protocol ---------------------------------------------------


class ChainModel:
    """The model protocol of this module: a subclass supplies its objects,
    their chains `sub_chains` and `quot_chains` and their `glue_chains`,
    and the base derives the chain masks from them.

    A nonzero map of uniserials factors through its image, a quotient of
    X and a submodule of Y, so Hom(X, Y) != 0 exactly when
    `quot_masks[x] & sub_masks[y]` is nonzero: every orthogonality test
    of this module reads Hom off that rule.
    """

    def __init__(self, objects, sub_chains, quot_chains, glue_chains):
        self.objects: tuple = objects
        self.index: dict = {X: i for i, X in enumerate(objects)}
        # a chain less its last entry is the chain of entry -2: shortest
        # first, each chain mask is entry -2's with X's own bit
        subs = [1 << i for i in range(len(objects))]
        quots = subs[:]
        for i in sorted(range(len(objects)), key=lambda i: len(sub_chains[i])):
            if len(sub_chains[i]) > 1:
                subs[i] |= subs[sub_chains[i][-2]]
                quots[i] |= quots[quot_chains[i][-2]]
        self.sub_chains: tuple[tuple[int, ...], ...] = sub_chains
        self.quot_chains: tuple[tuple[int, ...], ...] = quot_chains
        self.sub_masks: tuple[int, ...] = tuple(subs)
        self.quot_masks: tuple[int, ...] = tuple(quots)
        self.glue_chains: tuple[tuple, tuple] = glue_chains

    def length(self, X) -> int:
        return len(self.sub_chains[self.index[X]])

    def submodules(self, X) -> tuple:
        """Nonzero submodules of X, shortest first (read off `sub_chains`)."""
        return tuple(map(self.objects.__getitem__, self.sub_chains[self.index[X]]))

    def quotients(self, X) -> tuple:
        """Nonzero quotients of X, shortest first (read off `quot_chains`)."""
        return tuple(map(self.objects.__getitem__, self.quot_chains[self.index[X]]))


# -- subcategories as bitmasks ---------------------------------------------


def mask_of(model, objs: Iterable) -> int:
    """Bitmask of the given objects, bit i for `model.objects[i]`."""
    index = model.index
    mask = 0
    for i in map(index.__getitem__, objs):
        mask |= 1 << i
    return mask


_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of a nonnegative mask, lowest first."""
    digits = bin(mask)[:1:-1].encode().translate(_DIGITS)
    return list(compress(range(len(digits)), digits))


_FLIP = str.maketrans("01", "10")


def bit_order(mask: int) -> str:
    """A sort key of a nonnegative mask: its bits from the lowest up, a set
    bit read "0", so the keys compare as the `bit_indices` lists do."""
    return bin(mask)[:1:-1].translate(_FLIP) if mask else ""


def objects_of(model, mask: int) -> frozenset:
    """The objects whose bits are set in the mask."""
    # copied from a set: on the classes of the path route this allocates
    # less than growing the frozenset one insert at a time (424 against
    # 496 bytes a class over the 4862 pairs at n = 8)
    return frozenset(set(map(model.objects.__getitem__, bit_indices(mask))))


def _union(table: Sequence[int], mask: int) -> int:
    """OR of `table[i]` over the set bits i of the mask."""
    out = 0
    for i in bit_indices(mask):
        out |= table[i]
    return out


def _ambient(model, ambient) -> int:
    if ambient is None:
        return (1 << len(model.objects)) - 1
    return mask_of(model, ambient)


def _mask_within(model, objs: frozenset, within: int) -> int | None:
    """Bitmask of a set of objects, or None if one lies outside `within`."""
    try:
        mask = mask_of(model, objs)
    except KeyError:
        return None
    return None if mask & ~within else mask


def _hom_witness(model, earlier: Iterable, later: Iterable):
    """First (X, Y) in the sets' own iteration order with Hom(X, Y) != 0;
    an X none of whose quotients is a submodule of a later one is skipped."""
    quots, subs, index = model.quot_masks, model.sub_masks, model.index
    reach = _union(subs, mask_of(model, later))
    for X in earlier:
        quot = quots[index[X]]
        if quot & reach:
            for Y in later:
                if quot & subs[index[Y]]:
                    return X, Y
    return None


def _first_uncovered(model, uncovered: int) -> object:
    """The object of the mask first in `repr` order."""
    return min(objects_of(model, uncovered), key=repr)


# -- perpendicular categories --------------------------------------------


def perp_left(model, D: Iterable, ambient=None) -> frozenset:
    """{X : Hom(X, d) = 0 for all d in D}, within the ambient objects."""
    quots, reach = model.quot_masks, _union(model.sub_masks, mask_of(model, D))
    out = 0
    for i in bit_indices(_ambient(model, ambient)):
        if not quots[i] & reach:
            out |= 1 << i
    return objects_of(model, out)


def perp_right(model, D: Iterable, ambient=None) -> frozenset:
    """{Y : Hom(d, Y) = 0 for all d in D}, within the ambient objects."""
    subs, reach = model.sub_masks, _union(model.quot_masks, mask_of(model, D))
    out = 0
    for i in bit_indices(_ambient(model, ambient)):
        if not subs[i] & reach:
            out |= 1 << i
    return objects_of(model, out)


def _gluings(model, bottoms: int, tops: int) -> int:
    """Mask of the gluings of a member of `tops` on top of a member of
    `bottoms`, by `glue_chains`: what glues on top of X are the submodules
    of the longest object ending right before X's top, and the results are
    the submodules longer than X of the longest object ending at its socle.
    """
    subs, sub_masks = model.sub_chains, model.sub_masks
    before, same_socle = model.glue_chains
    out = 0
    for b in bit_indices(bottoms):
        u = before[b]
        if u is not None and sub_masks[u] & tops:
            for t, g in zip(subs[u], subs[same_socle[b]][len(subs[b]):]):
                if tops >> t & 1:
                    out |= 1 << g
    return out


def _closure_mask(model, mask: int) -> int:
    """Gluing closure on masks; each round glues every top on the new members.

    A member outside `mask` is a generator glued on top of its submodule
    one generator shorter, which is a generator or was new in some round;
    the round after glues every top on it, so one direction is enough.
    """
    new = _gluings(model, mask, mask) & ~mask
    while new:
        mask |= new
        new = _gluings(model, new, mask) & ~mask
    return mask


def extension_closure(model, modules: Iterable) -> frozenset:
    """Least superset closed under stacking (gluing worklist).

    A uniserial object filtered by members arises from iterated gluings,
    so on the classes occurring here (unions of parts of a valid tuple,
    quotient-closed classes) this equals the closure under extensions.
    """
    mask = mask_of(model, modules)
    closed = _closure_mask(model, mask)
    if closed == mask and type(modules) is frozenset:
        return modules
    return objects_of(model, closed)


# -- torsion pairs ---------------------------------------------------------


def _torsion_height(model, tm: int, i: int) -> int:
    """Largest socle height h with the height-h submodule of object i in
    the class `tm` (0 if none)."""
    chain = model.sub_chains[i]
    for h in range(len(chain), 0, -1):
        if tm >> chain[h - 1] & 1:
            return h
    return 0


def torsion_submodule(model, T: Iterable, X):
    """Maximal submodule of the uniserial X lying in T, or None for zero."""
    i = model.index[X]
    h = _torsion_height(model, mask_of(model, T), i)
    return None if h == 0 else model.objects[model.sub_chains[i][h - 1]]


def is_torsion_pair(model, torsion: Iterable, free: Iterable, ambient=None) -> CheckResult:
    """Check orthogonality and the canonical sequence for every ambient object.

    The torsion submodule is the largest chain submodule lying in the
    torsion class; under orthogonality this is equivalent to asking for any
    witness submodule.  So an object has its sequence exactly when it lies
    in T or in F or is a gluing of a member of F on top of a member of T.
    """
    T, F = frozenset(torsion), frozenset(free)
    am = _ambient(model, ambient)
    tm, fm = _mask_within(model, T, am), _mask_within(model, F, am)
    if tm is None or fm is None:
        return CheckResult(False, None, "classes leave the ambient subcategory")
    if _union(model.quot_masks, tm) & _union(model.sub_masks, fm):
        X, Y = _hom_witness(model, T, F)
        return CheckResult(False, (X, Y), f"Hom({X},{Y}) != 0")
    covered = tm | fm | _gluings(model, tm, fm)
    if am & ~covered:
        X = _first_uncovered(model, am & ~covered)
        return CheckResult(False, X, f"no canonical sequence for {X}")
    return _HOLDS


def decompose_along(model, tp: TorsionPair, D: Iterable) -> tuple[frozenset, frozenset]:
    """Torsion submodules and torsion-free quotients of the members of D."""
    tm = mask_of(model, tp.torsion)
    subs = quots = 0
    for i in map(model.index.__getitem__, D):
        chain = model.sub_chains[i]
        h = _torsion_height(model, tm, i)
        if h > 0:
            subs |= 1 << chain[h - 1]
        if h < len(chain):
            quots |= 1 << model.quot_chains[i][len(chain) - h - 1]
    return objects_of(model, subs), objects_of(model, quots)


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


def is_ntp(model, parts: Sequence[frozenset], ambient=None) -> CheckResult:
    """Pairwise Hom-orthogonality plus a factor-in-order filtration for all objects."""
    parts = tuple(frozenset(p) for p in parts)
    am = _ambient(model, ambient)
    pms = [_mask_within(model, p, am) for p in parts]
    if None in pms:
        return CheckResult(False, None, "a part leaves the ambient subcategory")
    # suffix[k]: the submodules of the members of parts k, k + 1, ...
    suffix = [0] * (len(parts) + 1)
    for k in range(len(parts) - 1, -1, -1):
        suffix[k] = suffix[k + 1] | _union(model.sub_masks, pms[k])
    for k in range(len(parts)):
        if _union(model.quot_masks, pms[k]) & suffix[k + 1]:
            for j in range(k + 1, len(parts)):
                witness = _hom_witness(model, parts[k], parts[j])
                if witness is not None:
                    X, Y = witness
                    return CheckResult(False, (X, Y), f"Hom({X},{Y}) != 0 across parts")
    # filtered by the first k parts in order: the objects filtered by the
    # first k - 1, part k itself, and gluings of part k on top of the former
    reach = 0
    for pm in pms:
        reach |= pm | _gluings(model, reach, pm)
    if am & ~reach:
        X = _first_uncovered(model, am & ~reach)
        return CheckResult(False, X, f"no ordered filtration for {X}")
    return _HOLDS


def filtration(model, ntp: NTorsionPair, X) -> Filtration:
    """Canonical chain with factor i in part i; unique for uniserial objects.

    X_i is the maximal submodule inside the extension closure of the first
    i parts, so the factors are forced.
    """
    parts = ntp.parts
    i = model.index[X]
    sub, quots, objs = model.sub_chains[i], model.quot_chains, model.objects
    heights = [0]
    prefix = 0
    for part in parts[:-1]:
        prefix |= mask_of(model, part)
        h = _torsion_height(model, _closure_mask(model, prefix), i)
        heights.append(max(h, heights[-1]))
    heights.append(len(sub))
    chain = [None]
    factors = []
    for lo, hi in zip(heights, heights[1:]):
        chain.append(None if hi == 0 else objs[sub[hi - 1]])
        if hi == lo:
            factors.append(None)
        else:
            factor = objs[quots[sub[hi - 1]][hi - lo - 1]]
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
    amb = frozenset(model.objects if ambient is None else ambient)
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            witness = _hom_witness(model, parts[i], parts[j])
            if witness is not None:
                raise ValueError(f"parts are not orthogonal at ({witness[0]},{witness[1]})")
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
