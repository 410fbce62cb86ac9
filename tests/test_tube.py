import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionpairs import oracle
from torsionpairs.tube import (
    TubeModel,
    TubeModule,
    all_tube_modules,
    coray,
    ext_dim_tube,
    hom_dim_tube,
    l_r_sets,
    ray,
    tau_inv_tube,
    tau_tube,
    truncate,
)


def U(s, l, n):
    return TubeModule(s, l, n)


class TestHom:
    def test_rank_one_identity(self):
        assert hom_dim_tube(U(1, 1, 1), U(1, 1, 1)) == 1

    def test_rank_two_examples(self):
        assert hom_dim_tube(U(1, 2, 2), U(2, 2, 2)) == 1
        assert hom_dim_tube(U(1, 1, 2), U(2, 1, 2)) == 0

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            hom_dim_tube(U(1, 1, 1), U(1, 1, 2))

    def test_rank_one_long_maps(self):
        # every length l' <= min works when there is a single vertex
        assert hom_dim_tube(U(1, 3, 1), U(1, 4, 1)) == 3

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_matches_matrix_oracle(self, rank):
        mods = all_tube_modules(rank, 6)
        for X in mods:
            for Y in mods:
                assert hom_dim_tube(X, Y) == oracle.hom_dim_matrix(X, Y), (X, Y)


class TestTauExt:
    def test_tau_shifts_socle(self):
        assert tau_tube(U(1, 3, 2)) == U(2, 3, 2)
        assert tau_inv_tube(tau_tube(U(3, 2, 3))) == U(3, 2, 3)

    def test_self_extension_rank_one(self):
        assert ext_dim_tube(U(1, 1, 1), U(1, 1, 1)) == 1

    def test_no_simple_self_extension_rank_two(self):
        assert ext_dim_tube(U(1, 1, 2), U(1, 1, 2)) == 0

    def test_simple_extensions_follow_the_arrows(self):
        # nontrivial extension of S_i by S_j exactly along the arrow i -> i+1
        n = 3
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                expected = 1 if j == i % n + 1 else 0
                assert ext_dim_tube(U(i, 1, n), U(j, 1, n)) == expected

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_ext_matches_matrix_oracle(self, rank):
        mods = all_tube_modules(rank, 6)
        for X in mods:
            for Y in mods:
                assert ext_dim_tube(X, Y) == oracle.ext_dim_matrix(X, Y), (X, Y)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("cap", [4, 6])
    def test_tau_bijects_truncations(self, rank, cap):
        mods = all_tube_modules(rank, cap)
        image = {tau_tube(X) for X in mods}
        assert image == set(mods)
        assert all(tau_tube(X).length == X.length for X in mods)


class TestUniseriality:
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_submodule_count_is_length(self, rank):
        model = TubeModel(rank, 5)
        for X in model.objects:
            subs = model.submodules(X)
            assert len(subs) == X.length
            assert all(s.socle == X.socle for s in subs)
            # hom-embedding: each submodule admits a map into X
            assert all(hom_dim_tube(s, X) >= 1 for s in subs)

    def test_top(self):
        assert U(2, 2, 2).top == 1
        assert U(3, 2, 3).top == 2
        assert U(1, 4, 3).top == 1


class TestRayCoray:
    def test_ray_empty(self):
        assert truncate(ray(set(), 2), 3) == ()

    def test_ray_rank_one_everything(self):
        assert len(truncate(ray({1}, 1), 5)) == 5

    def test_coray_membership_rank_two(self):
        d = coray({1}, 2)
        for X in all_tube_modules(2, 6):
            assert d.contains(X) == ((X.socle + X.length - 1) % 2 == 1 % 2)

    def test_truncate_examples(self):
        full = ray({1}, 1)
        assert truncate(full, 3) == (U(1, 1, 1), U(1, 2, 1), U(1, 3, 1))
        assert truncate(coray({1}, 2), 2) == (U(1, 1, 2), U(2, 2, 2))
        with pytest.raises(ValueError):
            truncate(full, 0)

    def test_l_r_sets(self):
        assert l_r_sets(coray({1}, 2)) == ({1}, frozenset())
        assert l_r_sets(ray({1, 2}, 2)) == (frozenset(), {1, 2})
        finite = ray(set(), 3)
        assert l_r_sets(finite) == (frozenset(), frozenset())

    @pytest.mark.parametrize("rank", [2, 3])
    def test_closed_under_gluing_inside_delta(self, rank):
        # stacking stays in Ray(D) when the glued socle stays in D, and in
        # Coray(D) when the glued top stays in D; checked at cap 6
        model = TubeModel(rank, 6)
        for delta in ({1}, {1, 2}):
            rd, cd = ray(delta, rank), coray(delta, rank)
            for bottom in model.objects:
                for top in model.objects:
                    glued = model.glue(bottom, top)
                    if glued is None:
                        continue
                    if rd.contains(bottom) and rd.contains(top) and glued.socle in delta:
                        assert rd.contains(glued)
                    if cd.contains(bottom) and cd.contains(top) and glued.top in delta:
                        assert cd.contains(glued)


class TestTubeModel:
    def test_slice_matches_quotients(self):
        model = TubeModel(3, 6)
        X = U(2, 5, 3)
        quots = model.quotients(X)
        assert all(q.top == X.top for q in quots)
        assert [q.length for q in quots] == list(range(1, 6))

    def test_glue(self):
        model = TubeModel(2, 6)
        assert model.glue(U(2, 2, 2), U(2, 1, 2)) == U(2, 3, 2)
        assert model.glue(U(2, 2, 2), U(1, 1, 2)) is None
        assert model.glue(U(1, 4, 2), U(2, 3, 2)) is None  # over the cap


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=80, deadline=None)
def test_ar_duality_random(rank, data):
    mods = all_tube_modules(rank, 5)
    X = data.draw(st.sampled_from(mods))
    Y = data.draw(st.sampled_from(mods))
    assert ext_dim_tube(X, Y) == hom_dim_tube(Y, tau_tube(X))


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=8))
def test_top_and_socle_are_length_compatible(rank, length):
    X = TubeModule(1, length, rank)
    assert (X.socle - X.top) % rank == (length - 1) % rank


@pytest.mark.parametrize("make,message", [
    pytest.param(lambda: TubeModel(0, 1), "rank and cap must be positive", id="model-rank"),
    pytest.param(lambda: TubeModel(1, 0), "rank and cap must be positive", id="model-cap"),
    pytest.param(lambda: TubeModel(2, 3).slice(U(1, 2, 2), 0, 3), "slice heights out of range", id="slice-past-top"),
    pytest.param(lambda: TubeModel(2, 3).slice(U(1, 2, 2), 1, 1), "slice heights out of range", id="slice-empty"),
    pytest.param(lambda: ray({1}, 2).contains(U(1, 1, 3)), "module rank does not match the descriptor",
                 id="contains-rank"),
])
def test_bad_tube_arguments_are_rejected(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()
