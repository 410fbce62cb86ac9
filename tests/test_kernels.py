"""The indexed kernels under `assemble` and `is_torsion_pair` against plain references.

The extension closure is a worklist that only glues members whose ends
meet; the rescan-every-pair fixpoint it replaced is kept here as the
reference.  Submodule and quotient chains are built with the model and
must agree with `slice`.  The models are every path with at most four
vertices, every proper support subquiver of the cycles of rank at most
five, and the truncated tubes of rank at most three and cap at most five.
"""

import math
import random
from itertools import chain, combinations

import pytest

from torsionpairs import intervals, oracle, quiver, torsion, tube
from torsionpairs.intervals import model_for
from torsionpairs.quiver import cyclic_an, linear_an, subquiver
from torsionpairs.torsion import extension_closure
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
                assert model.glue_ends(top)[1] == model.glue_ends(bottom)[0], (bottom, top)


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
    assert count_tube_tps(rank, check=True) == math.comb(2 * rank, rank)
