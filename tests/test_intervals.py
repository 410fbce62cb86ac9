import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionpairs import oracle
from torsionpairs.intervals import (
    Interval,
    cogen_closure,
    ext_dim,
    extension_closure,
    gen_closure,
    hom_dim,
    indecomposables,
    injectives,
    model_for,
    projectives,
    quotients,
    restrict_support,
    submodules,
    tau,
    tau_inv,
)
from torsionpairs.quiver import LINEAR, LINEAR_UNION, Quiver, cyclic_an, linear_an, subquiver

A2 = linear_an(2)
A3 = linear_an(3)


def linear_union(*components):
    vertices = tuple(sorted(v for comp in components for v in comp))
    arrows = tuple((c[i], c[i + 1]) for c in components for i in range(len(c) - 1))
    return Quiver(vertices, arrows, LINEAR_UNION)


# every proper support subquiver of a small cycle (wrapped, non-monotone
# labels, as in tube residuals); cycles of different rank share some
# subquivers, kept once
CYCLE_RESIDUALS = list(dict.fromkeys(
    subquiver(cyclic_an(r), keep)
    for r in range(2, 6)
    for k in range(1, r)
    for keep in combinations(range(1, r + 1), k)
))

# paths, the cycle residuals and two shuffled-label unions
MODEL_QUIVERS = (
    [linear_an(n) for n in range(1, 7)]
    + CYCLE_RESIDUALS
    + [
        linear_union((7, 2, 9, 4), (10, 1, 5), (3, 8, 6)),
        linear_union((6, 3, 10, 1, 8, 2), (9, 5, 4, 7)),
    ]
)


def shuffled_union(sizes, seed):
    """Labels 1..n shuffled and cut into linear components of the given sizes."""
    labels = list(range(1, sum(sizes) + 1))
    random.Random(seed).shuffle(labels)
    starts = [sum(sizes[:k]) for k in range(len(sizes))]
    return linear_union(*(labels[s : s + size] for s, size in zip(starts, sizes)))


# certificate-sized models: paths up to the default verify bound of 40
# vertices and shuffled-label unions of the sizes the benchmark certifies
CERTIFICATE_QUIVERS = [linear_an(n) for n in (12, 24, 40)] + [
    shuffled_union((14, 6), 0),
    shuffled_union((21, 8), 1),
]


def model_id(q):
    """n for the n-vertex path, the quiver's repr otherwise."""
    return str(len(q.vertices)) if q.shape == LINEAR else repr(q)


def iv(a, b):
    return Interval(a, b)


class TestIndecomposables:
    def test_a1(self):
        assert indecomposables(linear_an(1)) == (iv(1, 1),)

    def test_a2(self):
        assert set(indecomposables(A2)) == {iv(1, 1), iv(2, 2), iv(1, 2)}

    def test_a3_count(self):
        assert len(indecomposables(A3)) == 6

    def test_counts_per_component(self):
        s = subquiver(linear_an(5), {1, 2, 4, 5})
        assert len(indecomposables(s)) == 3 + 3

    def test_cyclic_rejected(self):
        with pytest.raises(ValueError):
            indecomposables(cyclic_an(2))


class TestHomExt:
    def test_hom_examples(self):
        assert hom_dim(A2, iv(1, 2), iv(1, 1)) == 1
        assert hom_dim(A2, iv(1, 1), iv(1, 2)) == 0
        for X in indecomposables(A3):
            assert hom_dim(A3, X, X) == 1

    def test_ext_examples(self):
        assert ext_dim(A2, iv(1, 1), iv(2, 2)) == 1
        assert ext_dim(A2, iv(1, 2), iv(1, 1)) == 0
        for Y in indecomposables(A3):  # projectives have no extensions out
            assert ext_dim(A3, iv(2, 3), Y) == 0

    def test_overlap_extension(self):
        # middle term [1,3] + [2,2]; caught only by AR duality, not by gluing
        assert ext_dim(A3, iv(1, 2), iv(2, 3)) == 1

    @pytest.mark.parametrize("q", MODEL_QUIVERS, ids=model_id)
    def test_agrees_with_matrix_oracle(self, q):
        m = model_for(q)
        for X in m.objects:
            for Y in m.objects:
                assert m.hom(X, Y) == oracle.hom_dim_matrix(X, Y, q), (X, Y)
                assert m.ext(X, Y) == oracle.ext_dim_matrix(X, Y, q), (X, Y)

    @pytest.mark.parametrize("q", MODEL_QUIVERS, ids=model_id)
    def test_euler_identity(self, q):
        # hom - ext against the dimension-vector form
        m = model_for(q)
        for X in m.objects:
            for Y in m.objects:
                reference = oracle.euler_form(m.dim_vector(X), m.dim_vector(Y), q)
                assert m.hom(X, Y) - m.ext(X, Y) == reference, (X, Y)

    @pytest.mark.parametrize("q", CERTIFICATE_QUIVERS, ids=model_id)
    def test_euler_identity_at_certificate_size(self, q):
        # the dimension-vector form is bilinear, so its values on pairs of
        # simples give it on every pair of modules at once: D E D^T
        m = model_for(q)
        unit = np.eye(len(q.vertices), dtype=int)
        simples = np.array([[oracle.euler_form(d, e, q) for e in unit] for d in unit])
        dims = np.array([m.dim_vector(X) for X in m.objects])
        reference = dims @ simples @ dims.T
        objs = m.objects
        hom_ext = np.array([[m.hom(X, Y) - m.ext(X, Y) for Y in objs] for X in objs])
        assert np.array_equal(hom_ext, reference)


class TestUniserialStructure:
    def test_quotients(self):
        assert set(quotients(A2, iv(1, 2))) == {iv(1, 1), iv(1, 2)}
        assert quotients(A2, iv(1, 1)) == (iv(1, 1),)

    def test_submodules(self):
        assert set(submodules(A2, iv(1, 2))) == {iv(2, 2), iv(1, 2)}

    def test_chains(self):
        q = linear_an(4)
        for X in indecomposables(q):
            subs = submodules(q, X)
            assert all(s.b == X.b for s in subs)
            assert [model_for(q).length(s) for s in subs] == list(range(1, len(subs) + 1))
            quots = quotients(q, X)
            assert all(t.a == X.a for t in quots)


class TestProjectivesInjectives:
    def test_a2(self):
        assert set(projectives(A2)) == {iv(1, 2), iv(2, 2)}
        assert set(injectives(A2)) == {iv(1, 1), iv(1, 2)}

    def test_a1(self):
        q = linear_an(1)
        assert projectives(q) == injectives(q) == (iv(1, 1),)

    def test_support_restriction(self):
        s = subquiver(A3, {1, 2})
        assert set(projectives(s)) == {iv(1, 2), iv(2, 2)}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_homological_characterization(self, n):
        q = linear_an(n)
        m = model_for(q)
        projs = {X for X in m.objects if all(m.ext(X, Y) == 0 for Y in m.objects)}
        injs = {X for X in m.objects if all(m.ext(Y, X) == 0 for Y in m.objects)}
        assert projs == set(projectives(q))
        assert injs == set(injectives(q))

    @pytest.mark.parametrize("q", MODEL_QUIVERS, ids=model_id)
    def test_prebuilt_tuples_match_the_sorted_rule(self, q):
        # built once with the model, equal to sorting [v, sink] and
        # [source, v] over the components, and the same object every call
        m = model_for(q)
        assert m.projectives() == tuple(
            sorted(Interval(v, comp[-1]) for comp in q.components for v in comp)
        )
        assert m.injectives() == tuple(
            sorted(Interval(comp[0], v) for comp in q.components for v in comp)
        )
        assert m.projectives() is m.projectives()
        assert m.injectives() is m.injectives()
        assert all(P in m.index for P in m.projectives() + m.injectives())


class TestTau:
    def test_examples(self):
        assert tau(A2, iv(1, 1)) == iv(2, 2)
        assert tau(A2, iv(1, 2)) is None
        assert tau_inv(A2, tau(A2, iv(1, 1))) == iv(1, 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_ar_duality(self, n):
        q = linear_an(n)
        m = model_for(q)
        for X in m.objects:
            t = m.tau(X)
            if t is None:
                continue
            for Y in m.objects:
                assert m.ext(X, Y) == m.hom(Y, t)

    def test_oracle_finds_the_ar_sequence(self):
        # 0 -> S_2 -> P_1 -> S_1 -> 0 realizes tau S_1 = S_2 on two vertices
        assert oracle.ext_dim_matrix(iv(1, 1), iv(2, 2), A2) == 1
        assert oracle.hom_dim_matrix(iv(2, 2), iv(1, 2), A2) == 1


class TestClosures:
    def test_gen(self):
        assert gen_closure(A2, {iv(1, 2)}) == {iv(1, 2), iv(1, 1)}

    def test_extension(self):
        got = extension_closure(A2, {iv(1, 1), iv(2, 2)})
        assert got == {iv(1, 1), iv(2, 2), iv(1, 2)}

    def test_cogen_empty(self):
        assert cogen_closure(A2, set()) == frozenset()

    def test_restrict_support(self):
        M = {iv(1, 1), iv(1, 2), iv(2, 2)}
        assert restrict_support(A2, M, {2}) == {iv(2, 2)}
        assert restrict_support(A3, indecomposables(A3), {1, 3}) == {iv(1, 1), iv(3, 3)}
        assert restrict_support(A3, set(), {1}) == frozenset()


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=60, deadline=None)
def test_hom_is_boolean_and_reflexive(n, data):
    q = linear_an(n)
    objs = indecomposables(q)
    X = data.draw(st.sampled_from(objs))
    Y = data.draw(st.sampled_from(objs))
    assert hom_dim(q, X, Y) in (0, 1)
    assert hom_dim(q, X, X) == 1


@given(st.integers(min_value=2, max_value=6), st.data())
@settings(max_examples=60, deadline=None)
def test_tau_shifts_and_inverts(n, data):
    q = linear_an(n)
    objs = [X for X in indecomposables(q) if X.b < n]
    X = data.draw(st.sampled_from(objs))
    t = tau(q, X)
    assert t == Interval(X.a + 1, X.b + 1)
    assert tau_inv(q, t) == X


@pytest.mark.parametrize("lo,hi", [(-1, 1), (1, 1), (2, 1), (0, 3)])
def test_slice_rejects_heights_outside_the_module(lo, hi):
    with pytest.raises(ValueError, match="^slice heights out of range$"):
        model_for(A3).slice(Interval(1, 2), lo, hi)
