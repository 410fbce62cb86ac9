"""The bitmask kernels in `torsion` against plain references on objects.

The checks, closures and perpendiculars run on integer masks over each
model's object index.  The object-by-object frozenset bodies they
replaced are kept here as references, written against `hom`, `slice`,
`glue` and the two ends `glue_ends` reads off an object only, so they
share no table with the kernels; the rescan-every-pair fixpoint is the
closure's second reference.  The
per-object tables (`hom_rows`, the chains and their masks, the vertex
masks, `glue_chains`) are checked against the methods they encode.  The
models are the paths with at most six vertices, every proper support
subquiver of the cycles of rank at most five, two shuffled-label unions
and the truncated tubes of rank at most three and cap at most five.
"""

import math
import random
from itertools import chain, combinations

import pytest

from test_intervals import CERTIFICATE_QUIVERS, MODEL_QUIVERS, model_id
from torsionpairs import intervals, oracle, quiver, torsion, tube
from torsionpairs.intervals import model_for
from torsionpairs.quiver import cyclic_an, linear_an, subquiver
from torsionpairs.torsion import (
    CheckResult,
    TorsionPair,
    decompose_along,
    extension_closure,
    is_ntp,
    is_torsion_pair,
    perp_left,
    perp_right,
    torsion_submodule,
)
from torsionpairs.tube import TubeModel
from torsionpairs.tubepairs import count_tube_tps

PATHS = [linear_an(n) for n in range(1, 5)]
CYCLE_SUPPORTS = list(dict.fromkeys(
    subquiver(cyclic_an(r), keep)
    for r in range(2, 6)
    for k in range(1, r)
    for keep in combinations(range(1, r + 1), k)
))
TUBES = [(rank, cap) for rank in range(1, 4) for cap in range(1, 6)]

ALL_MODELS = (
    [pytest.param(lambda q=q: model_for(q), id=repr(q)) for q in PATHS + CYCLE_SUPPORTS]
    + [pytest.param(lambda r=r, c=c: TubeModel(r, c), id=f"tube{r}-cap{c}") for r, c in TUBES]
)


KERNEL_MODELS = (
    [pytest.param(lambda q=q: model_for(q), id=model_id(q)) for q in MODEL_QUIVERS]
    + [pytest.param(lambda r=r, c=c: TubeModel(r, c), id=f"tube{r}-cap{c}") for r, c in TUBES]
)


# -- references: the frozenset bodies the mask kernels replaced -------------


def ref_ambient(model, ambient):
    return model.object_set if ambient is None else frozenset(ambient)


def ref_witness_order(amb):
    return tuple(sorted(amb, key=repr))


def ref_perp_left(model, D, ambient=None):
    D = tuple(D)
    return frozenset(X for X in ref_ambient(model, ambient) if all(model.hom(X, d) == 0 for d in D))


def ref_perp_right(model, D, ambient=None):
    D = tuple(D)
    return frozenset(Y for Y in ref_ambient(model, ambient) if all(model.hom(d, Y) == 0 for d in D))


def glue_ends(model, X):
    """Top vertex of X and the vertex after its socle (None at a path's
    sink): `glue(bottom, top)` can only succeed when the second end of
    `top` is the first end of `bottom`."""
    if isinstance(model, TubeModel):
        return X.top, tube.norm_vertex(X.socle + 1, model.rank)
    return X.a, model.quiver.succ.get(X.b)


def ref_extension_closure(model, modules):
    """Worklist gluing each member against the members whose ends meet it."""
    out = set(modules)
    work = list(out)
    by_top: dict = {}
    by_next: dict = {}
    glue = model.glue

    def add(glued) -> None:
        if glued is not None and glued not in out:
            out.add(glued)
            work.append(glued)

    for X in work:
        top, nxt = glue_ends(model, X)
        by_top.setdefault(top, []).append(X)
        by_next.setdefault(nxt, []).append(X)
        for bottom in by_top.get(nxt, ()):
            add(glue(bottom, X))
        for upper in by_next.get(top, ()):
            add(glue(X, upper))
    return frozenset(out)


def ref_torsion_height(model, T, X):
    for h in range(model.length(X), 0, -1):
        if model.slice(X, 0, h) in T:
            return h
    return 0


def ref_torsion_submodule(model, T, X):
    h = ref_torsion_height(model, frozenset(T), X)
    return None if h == 0 else model.slice(X, 0, h)


def ref_is_torsion_pair(model, torsion, free, ambient=None):
    T, F = frozenset(torsion), frozenset(free)
    amb = ref_ambient(model, ambient)
    if not T <= amb or not F <= amb:
        return CheckResult(False, None, "classes leave the ambient subcategory")
    for X in T:
        for Y in F:
            if model.hom(X, Y) != 0:
                return CheckResult(False, (X, Y), f"Hom({X},{Y}) != 0")
    for X in ref_witness_order(amb):
        n = model.length(X)
        h = ref_torsion_height(model, T, X)
        if h < n and model.slice(X, h, n) not in F:
            return CheckResult(False, X, f"no canonical sequence for {X}")
    return CheckResult(True)


def ref_decompose_along(model, tp, D):
    subs, quots = set(), set()
    for X in D:
        h = ref_torsion_height(model, tp.torsion, X)
        if h > 0:
            subs.add(model.slice(X, 0, h))
        if h < model.length(X):
            quots.add(model.slice(X, h, model.length(X)))
    return frozenset(subs), frozenset(quots)


def ref_filtration_heights(model, parts, X):
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


def ref_is_ntp(model, parts, ambient=None):
    parts = tuple(frozenset(p) for p in parts)
    amb = ref_ambient(model, ambient)
    for p in parts:
        if not p <= amb:
            return CheckResult(False, None, "a part leaves the ambient subcategory")
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            for X in parts[i]:
                for Y in parts[j]:
                    if model.hom(X, Y) != 0:
                        return CheckResult(False, (X, Y), f"Hom({X},{Y}) != 0 across parts")
    for X in ref_witness_order(amb):
        stages = ref_filtration_heights(model, parts, X)
        if model.length(X) not in stages[-1]:
            return CheckResult(False, X, f"no ordered filtration for {X}")
    return CheckResult(True)


def rescan_closure(model, modules):
    """Reference: glue every ordered pair of members until nothing new appears."""
    out = set(modules)
    grew = True
    while grew:
        grew = False
        for top in list(out):
            for bottom in list(out):
                glued = model.glue(bottom, top)
                if glued is not None and glued not in out:
                    out.add(glued)
                    grew = True
    return frozenset(out)


def seeded_subsets(objects, count, seed):
    rng = random.Random(seed)
    return [[X for X in objects if rng.random() < rng.random()] for _ in range(count)]


@pytest.mark.parametrize("q", PATHS, ids=repr)
def test_closure_matches_rescan_on_every_subset_of_a_path(q):
    model = model_for(q)
    objects = model.objects
    subsets = chain.from_iterable(combinations(objects, k) for k in range(len(objects) + 1))
    for subset in subsets:
        assert extension_closure(model, subset) == rescan_closure(model, subset), subset


@pytest.mark.parametrize("q", CYCLE_SUPPORTS, ids=repr)
def test_closure_matches_rescan_on_cycle_supports(q):
    model = model_for(q)
    for subset in seeded_subsets(model.objects, 40, seed=len(q.vertices) * 1000 + sum(q.vertices)):
        assert extension_closure(model, subset) == rescan_closure(model, subset), subset


@pytest.mark.parametrize("rank,cap", TUBES)
def test_closure_matches_rescan_on_truncated_tubes(rank, cap):
    model = TubeModel(rank, cap)
    for subset in seeded_subsets(model.objects, 60, seed=10 * rank + cap):
        assert extension_closure(model, subset) == rescan_closure(model, subset), subset


def test_interval_closure_delegates_to_the_model_closure():
    q = linear_an(4)
    model = model_for(q)
    for subset in seeded_subsets(model.objects, 30, seed=4):
        assert intervals.extension_closure(q, subset) == extension_closure(model, subset)


@pytest.mark.parametrize("make", ALL_MODELS)
def test_every_gluing_is_found_through_the_end_indexes(make):
    """glue(bottom, top) succeeds only where the vertex after top's socle is bottom's top."""
    model = make()
    for bottom in model.objects:
        for top in model.objects:
            if model.glue(bottom, top) is not None:
                assert glue_ends(model, top)[1] == glue_ends(model, bottom)[0], (bottom, top)


@pytest.mark.parametrize("make", ALL_MODELS)
def test_chains_match_slices(make):
    model = make()
    assert model.object_set == frozenset(model.objects)
    for X in model.objects:
        n = model.length(X)
        subs, quots = model.submodules(X), model.quotients(X)
        assert len(subs) == len(quots) == n
        for h in range(1, n + 1):
            assert subs[h - 1] == model.slice(X, 0, h)
            assert quots[h - 1] == model.slice(X, n - h, n)


def test_interval_chains_reuse_the_model_objects():
    model = model_for(linear_an(4))
    for X in model.objects:
        assert all(S in model.object_set for S in model.submodules(X) + model.quotients(X))


class TestSubquiverMemo:
    def test_repeated_keep_gives_the_same_quiver(self):
        q = cyclic_an(5)
        assert subquiver(q, [1, 2, 4]) is subquiver(q, {4, 2, 1})

    def test_full_keep_returns_the_argument_even_after_an_equal_quiver(self):
        first, second = linear_an(3), linear_an(3)
        assert subquiver(first, {1, 2, 3}) is first
        assert subquiver(second, {1, 2, 3}) is second

    def test_bad_keep_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                subquiver(linear_an(3), {1, 7})


# -- per-object tables ------------------------------------------------------


def bits(mask):
    return {j for j in range(mask.bit_length()) if mask >> j & 1}


@pytest.mark.parametrize(
    "make",
    KERNEL_MODELS
    + [pytest.param(lambda q=q: model_for(q), id=model_id(q)) for q in CERTIFICATE_QUIVERS],
)
def test_hom_rows_match_the_served_hom(make):
    model = make()
    assert [model.index[X] for X in model.objects] == list(range(len(model.objects)))
    for i, X in enumerate(model.objects):
        assert bits(model.hom_rows[i]) == {
            j for j, Y in enumerate(model.objects) if model.hom(X, Y) != 0
        }, X


@pytest.mark.parametrize("make", KERNEL_MODELS)
def test_index_chains_and_masks_match_the_objects(make):
    model = make()
    objs = model.objects
    vertices = model.quiver.vertices if hasattr(model, "quiver") else range(1, model.rank + 1)
    for i, X in enumerate(objs):
        n = model.length(X)
        assert [objs[j] for j in model.sub_chains[i]] == [model.slice(X, 0, h) for h in range(1, n + 1)]
        assert [objs[j] for j in model.quot_chains[i]] == [model.slice(X, n - h, n) for h in range(1, n + 1)]
        assert bits(model.sub_masks[i]) == set(model.sub_chains[i])
        assert bits(model.quot_masks[i]) == set(model.quot_chains[i])
        support = {model.slice(X, h, h + 1) for h in range(n)}  # the composition factors
        simple_tops = {glue_ends(model, S)[0] for S in support}
        assert bits(model.vertex_masks[i]) == {k for k, v in enumerate(vertices) if v in simple_tops}


@pytest.mark.parametrize("make", KERNEL_MODELS)
def test_glue_chains_give_every_gluing(make):
    """The objects that glue on top of X and the results, read off
    `glue_chains`, are exactly the successful `glue(X, top)` calls."""
    model = make()
    objs, subs = model.objects, model.sub_chains
    before, same_socle = model.glue_chains
    for i, X in enumerate(objs):
        read = set()
        if before[i] is not None:
            k = model.length(X)
            read = {(objs[t], objs[g]) for t, g in zip(subs[before[i]], subs[same_socle[i]][k:])}
        assert read == {(Y, model.glue(X, Y)) for Y in objs if model.glue(X, Y) is not None}, X


# -- the kernels against the references ---------------------------------------


def random_class(rng, objects):
    density = rng.random()
    return frozenset(X for X in objects if rng.random() < density)


def candidate_pairs(model, seed, count=30):
    """Seeded class pairs: random ones, closed classes with their right
    perpendicular (mostly torsion pairs), and those with one object moved."""
    rng = random.Random(seed)
    objects = model.objects
    out = []
    for _ in range(count):
        T = random_class(rng, objects)
        out.append((T, random_class(rng, objects)))
        quotient_closed = frozenset(Q for X in T for Q in model.quotients(X))
        T = ref_extension_closure(model, quotient_closed)
        F = ref_perp_right(model, T)
        out.append((T, F))
        X = rng.choice(objects)
        out.append((T - {X}, F) if X in T else (T, F ^ {X}))
    return out


def candidate_tuples(model, seed, count=20):
    """Seeded part tuples: random ones, the refinement of a two-step chain of
    closed classes, and that refinement swapped or with one object moved."""
    rng = random.Random(seed)
    objects = model.objects
    out = []
    for _ in range(count):
        out.append(tuple(random_class(rng, objects) for _ in range(rng.randint(1, 4))))
        T1 = ref_extension_closure(model, {Q for X in random_class(rng, objects) for Q in model.quotients(X)})
        T2 = ref_extension_closure(model, T1 | {Q for X in random_class(rng, objects) for Q in model.quotients(X)})
        parts = (T1, ref_perp_right(model, T1) & T2, ref_perp_right(model, T2))
        out.append(parts)
        out.append(parts[::-1])
        X, k = rng.choice(objects), rng.randrange(3)
        out.append(parts[:k] + (parts[k] ^ {X},) + parts[k + 1:])
    return out


@pytest.mark.parametrize("make", KERNEL_MODELS)
def test_is_torsion_pair_matches_the_reference(make):
    model = make()
    verdicts = set()
    for T, F in candidate_pairs(model, seed=len(model.objects)):
        for ambient in (None, T | F, T):
            got = is_torsion_pair(model, T, F, ambient)
            assert got == ref_is_torsion_pair(model, T, F, ambient), (T, F, ambient)
            verdicts.add(got.reason.partition("(")[0].split()[0] if got.reason else "ok")
    # a pass, and failures by ambient, by Hom and by a canonical sequence
    assert verdicts == {"ok", "classes", "Hom", "no"} or len(model.objects) < 3


@pytest.mark.parametrize("make", KERNEL_MODELS)
def test_is_ntp_matches_the_reference(make):
    model = make()
    verdicts = set()
    for parts in candidate_tuples(model, seed=len(model.objects) + 1):
        for ambient in (None, frozenset().union(*parts)):
            got = is_ntp(model, parts, ambient)
            assert got == ref_is_ntp(model, parts, ambient), (parts, ambient)
            verdicts.add(got.reason.partition("(")[0].split()[0] if got.reason else "ok")
    # a pass, and failures by Hom and by a filtration
    assert {"ok", "Hom", "no"} <= verdicts or len(model.objects) < 3


@pytest.mark.parametrize("make", KERNEL_MODELS)
def test_closures_and_perpendiculars_match_the_references(make):
    model = make()
    rng = random.Random(len(model.objects) + 2)
    for _ in range(30):
        D, amb = random_class(rng, model.objects), random_class(rng, model.objects)
        assert extension_closure(model, D) == ref_extension_closure(model, D) == rescan_closure(model, D)
        for ambient in (None, amb):
            assert perp_left(model, D, ambient) == ref_perp_left(model, D, ambient)
            assert perp_right(model, D, ambient) == ref_perp_right(model, D, ambient)


@pytest.mark.parametrize("make", KERNEL_MODELS)
def test_torsion_parts_of_objects_match_the_references(make):
    model = make()
    rng = random.Random(len(model.objects) + 3)
    for T, F in candidate_pairs(model, seed=len(model.objects) + 4, count=10):
        tp, D = TorsionPair(T, F), random_class(rng, model.objects)
        assert decompose_along(model, tp, D) == ref_decompose_along(model, tp, D)
        for X in D:
            assert torsion_submodule(model, T, X) == ref_torsion_submodule(model, T, X)


@pytest.mark.parametrize(
    "cached",
    [
        intervals.model_for,
        oracle._hom_dim_matrix_cached,
        quiver._proper_subquiver,
        torsion._witness_order,
        tube.all_tube_modules,
        tube._families,
    ],
    ids=lambda f: f.__wrapped__.__name__,
)
def test_caches_are_bounded(cached):
    assert cached.cache_info().maxsize is not None


@pytest.mark.parametrize("rank", range(1, 7))
def test_tube_count_check_meets_the_closed_form(rank):
    # all five legs, among them the induced and fingerprint checks that
    # enumerate_tube_tps does not run itself
    assert count_tube_tps(rank, check=True) == math.comb(2 * rank, rank)
