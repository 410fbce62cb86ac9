import math
from collections import Counter
from itertools import combinations

import pytest

from torsionpairs.decompose import (
    catalan,
    enumerate_torsion_pairs,
    is_cotilting_induced,
    is_tilting_induced,
)
from torsionpairs.intervals import Interval
from torsionpairs.quiver import (
    STRONG_ONE,
    STRONG_TWO,
    PartPartition,
    cyclic_an,
    enumerate_partitions,
    subquiver,
)
from torsionpairs.torsion import TorsionPair
from torsionpairs.tube import TubeModule, all_tube_modules, coray, ray, truncate
from torsionpairs.tubepairs import (
    ClassificationDefectError,
    CombinedTorsionPair,
    TubeTorsionPair,
    check_l_r,
    combine_components,
    count_combinations,
    count_tube_tps,
    enumerate_tube_tps,
    partition_to_tube_tp,
    tube_membership,
    tube_tp_to_partition,
    truncated_check,
)


def U(s, l, n):
    return TubeModule(s, l, n)


def parts(*sets):
    return tuple(frozenset(s) for s in sets)


def by_kind(data, kind):
    return [d for d in data if d.kind == kind]


class TestEnumerate:
    def test_rank_one(self):
        data = enumerate_tube_tps(1)
        assert len(data) == 2
        fingerprints = {d.fingerprint(4) for d in data}
        everything = frozenset(U(1, l, 1) for l in range(1, 5))
        assert fingerprints == {(everything, frozenset()), (frozenset(), everything)}

    def test_rank_two(self):
        data = enumerate_tube_tps(2)
        assert len(data) == 6
        assert len(by_kind(data, 1)) == 3
        assert len(by_kind(data, 2)) == 3

    def test_rank_three(self):
        data = enumerate_tube_tps(3)
        assert len(data) == 20
        assert len(by_kind(data, 1)) == 10

    def test_deterministic(self):
        assert enumerate_tube_tps(2) == enumerate_tube_tps(2)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_pairwise_distinct_at_cap_six(self, rank):
        data = enumerate_tube_tps(rank)
        prints = [d.fingerprint(6) for d in data]
        assert len(set(prints)) == len(prints)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_l_r_never_both_empty(self, rank):
        for d in enumerate_tube_tps(rank):
            l_t, r_f = check_l_r(d)
            assert l_t or r_f
            if d.kind == 1:
                assert (l_t, r_f) == (d.delta, frozenset())
            else:
                assert (l_t, r_f) == (frozenset(), d.delta)

    def test_l_r_examples(self):
        all_pair = next(
            d for d in enumerate_tube_tps(1) if d.membership(U(1, 1, 1)) == "torsion"
        )
        assert check_l_r(all_pair) == ({1}, frozenset())
        kind2_full = next(
            d for d in enumerate_tube_tps(2) if d.kind == 2 and d.delta == {1, 2}
        )
        assert check_l_r(kind2_full) == (frozenset(), {1, 2})


def generate_and_filter(rank):
    """Oracle: every torsion pair on the residual of every nonempty delta,
    kept when it is cotilting-induced (kind 1) or tilting-induced (kind 2),
    with the fingerprint collision scan, sorted like the classification."""
    cycle = cyclic_an(rank)
    deltas = [
        frozenset(combo)
        for k in range(1, rank + 1)
        for combo in combinations(cycle.vertices, k)
    ]
    data = []
    for kind in (1, 2):
        induced = is_cotilting_induced if kind == 1 else is_tilting_induced
        for delta in deltas:
            residual = subquiver(cycle, frozenset(cycle.vertices) - delta)
            for tp in enumerate_torsion_pairs(residual):
                if induced(residual, tp):
                    data.append(TubeTorsionPair(rank, kind, delta, residual, tp))
    prints = [d.fingerprint(2 * rank + 2) for d in data]
    assert len(set(prints)) == len(prints), "kind collision in the oracle"
    return sorted(data, key=TubeTorsionPair.sort_key)


def catalan_tally(rank):
    """Tilting modules on the residual of each (kind, delta): the product
    of Catalan(|C|) over its components C."""
    cycle = cyclic_an(rank)
    tally = {}
    for k in range(1, rank + 1):
        for combo in combinations(cycle.vertices, k):
            delta = frozenset(combo)
            residual = subquiver(cycle, frozenset(cycle.vertices) - delta)
            count = math.prod(catalan(len(comp)) for comp in residual.components)
            tally[1, delta] = tally[2, delta] = count
    return tally


class TestAgainstGenerateAndFilter:
    """The constructive classification against the route it replaced."""

    @pytest.mark.parametrize("rank", range(1, 7))
    def test_equal_to_the_oracle(self, rank):
        assert enumerate_tube_tps(rank) == generate_and_filter(rank)

    @pytest.mark.parametrize("rank", range(1, 7))
    def test_pairs_per_delta_count_the_tilting_modules(self, rank):
        data = enumerate_tube_tps(rank)
        assert Counter((d.kind, d.delta) for d in data) == catalan_tally(rank)
        assert len(data) == math.comb(2 * rank, rank)

    def test_count_check_catches_a_pair_moved_between_deltas(self, monkeypatch):
        # same length, so only the per-(kind, delta) tally leg can see it
        from torsionpairs import tubepairs

        real = enumerate_tube_tps(3)
        lone = next(d for d in real if d.kind == 1 and d.delta == {1, 2, 3})
        moved = [d for d in real if d is not lone] + [real[0]]
        monkeypatch.setattr(tubepairs, "enumerate_tube_tps", lambda rank: moved)
        with pytest.raises(RuntimeError, match="tilting modules"):
            count_tube_tps(3, check=True)


def filter_truncate(desc, cap):
    """Reference: test every module of length <= cap for membership."""
    return tuple(X for X in all_tube_modules(desc.rank, cap) if desc.contains(X))


class TestTruncateFastPath:
    @pytest.mark.parametrize("rank", range(1, 6))
    def test_classified_descriptors(self, rank):
        caps = sorted({1, 2, rank, 2 * rank + 2})
        for d in enumerate_tube_tps(rank):
            for desc in (d.torsion_descriptor, d.free_descriptor):
                for cap in caps:
                    assert truncate(desc, cap) == filter_truncate(desc, cap), (desc, cap)

    @pytest.mark.parametrize("rank", range(1, 6))
    @pytest.mark.parametrize("family", [ray, coray])
    def test_ray_and_coray_empty_and_full(self, rank, family):
        for delta in (frozenset(), frozenset(range(1, rank + 1))):
            desc = family(delta, rank)
            for cap in sorted({1, 2, rank, 2 * rank + 2}):
                got = truncate(desc, cap)
                assert got == filter_truncate(desc, cap)
                assert len(got) == (rank * cap if delta else 0)


class TestMembership:
    def test_kind_one_coray(self):
        d = next(
            x for x in enumerate_tube_tps(2) if x.kind == 1 and x.delta == {1}
        )
        assert tube_membership(d, U(2, 2, 2)) == "torsion"  # top 1
        assert tube_membership(d, U(2, 1, 2)) == "free"
        assert tube_membership(d, U(1, 2, 2)) == "neither"

    def test_kind_two_rank_one(self):
        d = next(x for x in enumerate_tube_tps(1) if x.kind == 2)
        for l in range(1, 5):
            assert tube_membership(d, U(1, l, 1)) == "free"

    def test_kind_two_neither(self):
        d = next(
            x for x in enumerate_tube_tps(2) if x.kind == 2 and x.delta == {2}
        )
        # torsion side is the finite {S_1}, free side is Ray({2})
        assert tube_membership(d, U(1, 1, 2)) == "torsion"
        assert tube_membership(d, U(2, 3, 2)) == "free"
        assert tube_membership(d, U(1, 2, 2)) == "neither"

    def test_everything_torsion(self):
        d = next(x for x in enumerate_tube_tps(1) if x.kind == 1)
        for l in range(1, 5):
            assert tube_membership(d, U(1, l, 1)) == "torsion"

    def test_rank_mismatch(self):
        d = enumerate_tube_tps(1)[0]
        with pytest.raises(ValueError):
            tube_membership(d, U(1, 1, 2))


class TestCachedDescriptors:
    @pytest.mark.parametrize("rank", range(1, 5))
    def test_membership_agrees_with_the_fingerprint(self, rank):
        cap = 2 * rank + 2
        for d in enumerate_tube_tps(rank):
            torsion, free = d.fingerprint(cap)
            for X in all_tube_modules(rank, cap):
                want = "torsion" if X in torsion else "free" if X in free else "neither"
                assert d.membership(X) == want, (d, X)

    def test_repeated_access_returns_the_same_descriptor(self):
        for d in enumerate_tube_tps(3):
            assert d.torsion_descriptor is d.torsion_descriptor
            assert d.free_descriptor is d.free_descriptor

    def test_caching_leaves_equality_and_hash_alone(self):
        fresh, used = enumerate_tube_tps(3)[5], enumerate_tube_tps(3)[5]
        used.fingerprint(8)
        assert fresh == used and hash(fresh) == hash(used)


class TestPartitionIndexing:
    def test_rank_one_kind_one(self):
        S = PartPartition(parts({1}), STRONG_ONE, complete=True)
        d = partition_to_tube_tp(S, 1)
        assert d.kind == 1 and d.delta == {1}
        assert tube_membership(d, U(1, 3, 1)) == "torsion"

    def test_rank_one_kind_two(self):
        S = PartPartition(parts({1}), STRONG_TWO, complete=True)
        d = partition_to_tube_tp(S, 2)
        assert tube_membership(d, U(1, 3, 1)) == "free"

    def test_rank_two_with_residual(self):
        S = PartPartition(parts({1}, {2}), STRONG_ONE, complete=True)
        d = partition_to_tube_tp(S, 1)
        assert d.delta == {1}
        assert d.residual_pair == TorsionPair(frozenset(), frozenset({Interval(2, 2)}))
        assert tube_membership(d, U(2, 1, 2)) == "free"

    def test_empty_leading_part_rejected(self):
        S = PartPartition(parts(set(), {1}), STRONG_ONE, complete=True)
        with pytest.raises(ValueError):
            partition_to_tube_tp(S, 1)

    def test_partition_must_cover_the_given_rank(self):
        S = PartPartition(parts({1}, {2, 3}), STRONG_ONE, complete=True)
        assert partition_to_tube_tp(S, 1, 3).rank == 3
        with pytest.raises(ValueError):
            partition_to_tube_tp(S, 1, 5)

    def test_wrong_kind_rejected(self):
        S = PartPartition(parts({1}), STRONG_TWO, complete=True)
        with pytest.raises(ValueError):
            partition_to_tube_tp(S, 1)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_partition_enumeration_matches_kind_enumeration(self, rank):
        # the partition-indexed family and the classification coincide
        cycle = cyclic_an(rank)
        cap = 2 * rank + 2
        direct = {d.fingerprint(cap) for d in enumerate_tube_tps(rank)}
        via_partitions = set()
        for kind, name in ((1, STRONG_ONE), (2, STRONG_TWO)):
            for S in enumerate_partitions(cycle, name, complete=True):
                if S.parts[0]:
                    via_partitions.add(partition_to_tube_tp(S, kind).fingerprint(cap))
        assert via_partitions == direct

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_partition_round_trip(self, rank):
        for d in enumerate_tube_tps(rank):
            S = tube_tp_to_partition(d)
            again = partition_to_tube_tp(S, d.kind)
            assert again.fingerprint(2 * rank + 2) == d.fingerprint(2 * rank + 2)
            assert again.delta == d.delta


class TestTruncatedChecks:
    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("cap", [4, 5, 6])
    def test_all_classified_pairs_pass(self, rank, cap):
        for d in enumerate_tube_tps(rank):
            assert truncated_check(d, cap)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_generic_checker_accepts_truncations(self, rank):
        # the torsion pair calculus, run on the truncated tube model,
        # agrees with the classification: truncations verify and are
        # mutual perpendiculars
        from torsionpairs.torsion import is_torsion_pair, perp_left, perp_right
        from torsionpairs.tube import TubeModel

        model = TubeModel(rank, 6)
        for d in enumerate_tube_tps(rank):
            T = frozenset(truncate(d.torsion_descriptor, 6))
            F = frozenset(truncate(d.free_descriptor, 6))
            assert is_torsion_pair(model, T, F)
            assert F == perp_right(model, T)
            assert T == perp_left(model, F)

    def test_descriptor_truncations_are_closed(self):
        # torsion truncations are quotient-closed, free ones submodule-closed
        from torsionpairs.tube import TubeModel

        for rank in (1, 2):
            model = TubeModel(rank, 6)
            for d in enumerate_tube_tps(rank):
                T = set(truncate(d.torsion_descriptor, 6))
                F = set(truncate(d.free_descriptor, 6))
                for X in T:
                    assert set(model.quotients(X)) <= T
                for Y in F:
                    assert set(model.submodules(Y)) <= F


class TestCombine:
    def test_single_component(self):
        d = enumerate_tube_tps(1)[0]
        combined = combine_components([d])
        assert combined.components == (d,)

    def test_two_rank_one_tubes(self):
        torsion_side = next(d for d in enumerate_tube_tps(1) if d.kind == 1)
        free_side = next(d for d in enumerate_tube_tps(1) if d.kind == 2)
        combined = combine_components([torsion_side, free_side])
        assert combined.membership(0, U(1, 2, 1)) == "torsion"
        assert combined.membership(1, U(1, 2, 1)) == "free"

    def test_counts_multiply(self):
        per_tube = [enumerate_tube_tps(1), enumerate_tube_tps(1)]
        assert count_combinations(per_tube) == 4
        assert count_combinations([enumerate_tube_tps(2), enumerate_tube_tps(1)]) == 12

    def test_interval_component(self):
        from torsionpairs.quiver import linear_an
        from torsionpairs.intervals import indecomposables

        q = linear_an(1)
        tp = TorsionPair(frozenset(indecomposables(q)), frozenset())
        combined = CombinedTorsionPair((tp,))
        assert combined.membership(0, Interval(1, 1)) == "torsion"


class TestEveryCheckOnce:
    def test_count_check_runs_one_pair_check_per_assembly_and_induced_check(self, count_calls):
        counts = count_calls(
            "torsion.is_torsion_pair",
            "decompose.assemble",
            "decompose.is_tilting_induced",
            "decompose.is_cotilting_induced",
        )
        assert count_tube_tps(4, check=True) == 70
        induced = counts["decompose.is_tilting_induced"] + counts["decompose.is_cotilting_induced"]
        assert counts["decompose.assemble"] == induced == 70
        assert counts["torsion.is_torsion_pair"] == counts["decompose.assemble"] + induced

    @pytest.mark.parametrize("rank", [1, 4])
    def test_each_classified_pair_validates_its_partition_once(self, count_calls, rank):
        counts = count_calls("quiver.validate_partition")
        data = enumerate_tube_tps(rank)
        assert counts["quiver.validate_partition"] == len(data) == math.comb(2 * rank, rank)

    @pytest.mark.parametrize("kind,name", [(1, STRONG_ONE), (2, STRONG_TWO)])
    def test_a_part_overlapping_delta_is_rejected_by_the_tail_check(self, kind, name):
        S = PartPartition(parts({1}, {1, 2}), name, complete=True)
        with pytest.raises(ValueError, match="not a subset of the vertices"):
            partition_to_tube_tp(S, kind, 2)


class TestDefects:
    """The induced and fingerprint legs of `count_tube_tps(check=True)`."""

    @pytest.mark.parametrize("check", ["is_cotilting_induced", "is_tilting_induced"])
    def test_pair_not_of_its_kind_is_a_defect(self, monkeypatch, check):
        from torsionpairs import tubepairs

        monkeypatch.setattr(tubepairs, check, lambda q, tp: False)
        with pytest.raises(ClassificationDefectError, match="gives no kind"):
            count_tube_tps(2, check=True)

    def test_fingerprint_collision_is_a_defect(self, monkeypatch):
        monkeypatch.setattr(TubeTorsionPair, "fingerprint", lambda self, cap: ())
        with pytest.raises(ClassificationDefectError, match="same pair"):
            count_tube_tps(2, check=True)

    def test_finite_finite_is_a_defect(self):
        d = enumerate_tube_tps(2)[0]
        broken = TubeTorsionPairLike(d)
        with pytest.raises(ClassificationDefectError):
            check_l_r(broken)


class TubeTorsionPairLike:
    """Stand-in whose descriptors are both finite, for the defect path."""

    def __init__(self, real):
        from torsionpairs.tube import FINITE, TubeSubcatDescriptor

        self.torsion_descriptor = TubeSubcatDescriptor(FINITE, real.rank)
        self.free_descriptor = TubeSubcatDescriptor(FINITE, real.rank)
