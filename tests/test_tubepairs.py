import json
import math
import re
from collections import Counter
from itertools import combinations

import pytest

from torsionpairs import cli
from torsionpairs.decompose import (
    catalan,
    decompose,
    enumerate_torsion_pairs,
    is_cotilting_induced,
    is_tilting_induced,
)
from torsionpairs.intervals import Interval, model_for
from torsionpairs.quiver import (
    STRONG_ONE,
    STRONG_TWO,
    PartPartition,
    cyclic_an,
    enumerate_partitions,
    linear_an,
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


def decoded(rank, cap, fingerprint):
    """A fingerprint's two masks read as module sets through `all_tube_modules(rank, cap)`,
    which must hold every set bit."""
    members = all_tube_modules(rank, cap)
    assert all(mask >> len(members) == 0 for mask in fingerprint), "a bit past the cap"
    return tuple(frozenset(X for i, X in enumerate(members) if mask >> i & 1) for mask in fingerprint)


class TestEnumerate:
    def test_rank_one(self):
        data = enumerate_tube_tps(1)
        assert len(data) == 2
        fingerprints = {decoded(1, 4, d.fingerprint(4)) for d in data}
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

    @pytest.mark.parametrize("rank", range(1, 8))
    def test_mask_walk_builds_the_pairs_of_the_cycle_walk(self, rank):
        # one mask walk per (kind, delta) on the residual against the
        # checked route over the cycle's partition walk
        cycle = cyclic_an(rank)
        want = [
            partition_to_tube_tp(S, kind)
            for kind, name in ((1, STRONG_ONE), (2, STRONG_TWO))
            for S in enumerate_partitions(cycle, name, complete=True)
            if S.parts[0]
        ]
        want.sort(key=TubeTorsionPair.sort_key)
        got = enumerate_tube_tps(rank)
        assert len(got) == len(want) == math.comb(2 * rank, rank)
        for d, e in zip(got, want):
            assert [getattr(d, f) for f in d._fields] == [getattr(e, f) for f in e._fields]

    @pytest.mark.parametrize("rank", range(1, 8))
    def test_groups_come_in_sort_key_order(self, rank):
        # the pairs are made group by group with no global sort
        data = enumerate_tube_tps(rank)
        assert data == sorted(data, key=TubeTorsionPair.sort_key)

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
    with the fingerprint collision scan, sorted like the classification.
    Each keeps the tail its peeling finds, so comparing the records also
    compares the stored partitions with the peeled ones."""
    cycle = cyclic_an(rank)
    deltas = [
        frozenset(combo)
        for k in range(1, rank + 1)
        for combo in combinations(cycle.vertices, k)
    ]
    data = []
    for kind in (1, 2):
        induced = is_cotilting_induced if kind == 1 else is_tilting_induced
        side = "left" if kind == 1 else "right"
        for delta in deltas:
            residual = subquiver(cycle, frozenset(cycle.vertices) - delta)
            for tp in enumerate_torsion_pairs(residual):
                if induced(residual, tp):
                    tail = decompose(residual, tp, side).partition.parts[1:]
                    data.append(TubeTorsionPair(rank, kind, delta, residual, tp, tail))
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

    @pytest.mark.parametrize("rank", range(2, 8))
    def test_residual_intervals_read_as_tube_modules(self, rank):
        # the closed-form bit is the tube module of the residual model's
        # length and socle, on every interval
        from torsionpairs.tubepairs import _tube_table

        cycle = cyclic_an(rank)
        modules = all_tube_modules(rank, rank)
        for k in range(1, rank):
            for delta in combinations(cycle.vertices, k):
                model = model_for(subquiver(cycle, cycle.vertex_set - set(delta)))
                bits = _tube_table(rank, model)
                assert len(bits) == len(model.objects)
                for X, bit in zip(model.objects, bits):
                    assert modules[bit] == U(X.b, model.length(X), rank)

    def test_rank_mismatch(self):
        d = enumerate_tube_tps(1)[0]
        with pytest.raises(ValueError):
            tube_membership(d, U(1, 1, 2))


class TestCachedDescriptors:
    @pytest.mark.parametrize("rank", range(1, 5))
    def test_membership_agrees_with_the_fingerprint(self, rank):
        cap = 2 * rank + 2
        for d in enumerate_tube_tps(rank):
            torsion, free = decoded(rank, cap, d.fingerprint(cap))
            for X in all_tube_modules(rank, cap):
                want = "torsion" if X in torsion else "free" if X in free else "neither"
                assert d.membership(X) == want, (d, X)

    def test_repeated_access_returns_the_same_descriptor(self):
        for d in enumerate_tube_tps(3):
            assert d.torsion_descriptor is d.torsion_descriptor
            assert d.free_descriptor is d.free_descriptor

    def test_caching_leaves_equality_and_hash_alone(self):
        fresh, used = enumerate_tube_tps(3)[5], enumerate_tube_tps(3)[5]
        used.membership(U(1, 1, 3))
        assert fresh == used and hash(fresh) == hash(used)

    @pytest.mark.parametrize("rank", range(1, 7))
    def test_fingerprint_is_the_truncation_of_the_descriptors(self, rank):
        # cap 1 leaves out the longer residual modules, cap rank keeps them
        # all, and cap 2 rank + 2 is the one the check uses
        caps = (1, rank, 2 * rank + 2)
        for d in enumerate_tube_tps(rank):
            printed = [decoded(rank, cap, d.fingerprint(cap)) for cap in caps]
            # the fingerprint is made without the descriptors, which stay unbuilt
            assert "torsion_descriptor" not in vars(d) and "free_descriptor" not in vars(d)
            want = [(frozenset(truncate(d.torsion_descriptor, cap)), frozenset(truncate(d.free_descriptor, cap)))
                    for cap in caps]
            assert printed == want, d


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

    @pytest.mark.parametrize("rank", range(1, 6))
    def test_partition_round_trip(self, rank):
        for d in enumerate_tube_tps(rank):
            S = tube_tp_to_partition(d)
            kind = STRONG_ONE if d.kind == 1 else STRONG_TWO
            assert S == PartPartition((d.delta,) + d.residual_partition, kind, complete=True)
            again = partition_to_tube_tp(S, d.kind)
            assert again == d
            assert again.fingerprint(2 * rank + 2) == d.fingerprint(2 * rank + 2)


class TestMaskBackedRecord:
    """A classified pair keeps its residual classes as masks over the
    residual model and builds `residual_pair` on access."""

    @pytest.mark.parametrize("rank", range(1, 5))
    def test_walked_pair_equals_and_hashes_like_the_checked_one(self, rank):
        walked = {(d.kind, d.delta, d.residual_partition): d for d in enumerate_tube_tps(rank)}
        cycle = cyclic_an(rank)
        seen = 0
        for kind, name in ((1, STRONG_ONE), (2, STRONG_TWO)):
            for S in enumerate_partitions(cycle, name, complete=True):
                if not S.parts[0]:
                    continue
                checked = partition_to_tube_tp(S, kind)
                d = walked[kind, S.parts[0], S.parts[1:]]
                assert d == checked and hash(d) == hash(checked)
                assert d.residual_pair == checked.residual_pair
                assert d.sort_key() == checked.sort_key()
                # the public constructor, from the classes, makes the same record
                again = TubeTorsionPair(rank, kind, d.delta, d.residual_quiver, d.residual_pair, d.residual_partition)
                assert again == d and hash(again) == hash(d) and repr(again) == repr(d)
                seen += 1
        assert seen == len(walked) == math.comb(2 * rank, rank)

    def test_residual_pair_holds_the_models_own_intervals(self):
        for d in enumerate_tube_tps(4):
            objects = model_for(d.residual_quiver).objects
            tp = d.residual_pair
            for X in tp.torsion | tp.free:
                assert any(X is Y for Y in objects)
            assert d.residual_pair == tp and d.residual_pair is not tp

    def test_interval_outside_the_residual_is_a_value_error(self):
        residual = subquiver(cyclic_an(3), frozenset({2, 3}))
        for tp in (
            TorsionPair(frozenset({Interval(1, 1)}), frozenset()),
            TorsionPair(frozenset(), frozenset({Interval(3, 2)})),
        ):
            with pytest.raises(ValueError, match="is not an interval of the residual quiver"):
                TubeTorsionPair(3, 1, frozenset({1}), residual, tp, (frozenset({2, 3}),))

    def test_a_residual_pair_its_partition_does_not_make_is_a_value_error(self):
        residual = subquiver(cyclic_an(3), {2, 3})
        made = TorsionPair(frozenset(), frozenset({Interval(2, 2), Interval(2, 3), Interval(3, 3)}))
        # the pair the tail ({2, 3}) makes, given as plain sets, keeps its vertex sets frozen
        d = TubeTorsionPair(3, 1, {1}, residual, made, [{2, 3}])
        assert d.residual_pair == made and d.delta == frozenset({1}) and d.residual_partition == (frozenset({2, 3}),)
        assert hash(d) == hash(TubeTorsionPair(3, 1, frozenset({1}), residual, made, (frozenset({2, 3}),)))
        # the empty pair is no torsion pair on the residual segments
        with pytest.raises(ValueError, match="^the residual pair is not the one its partition makes$"):
            TubeTorsionPair(3, 1, frozenset({1}), residual, TorsionPair((), ()), (frozenset({2, 3}),))

    @pytest.mark.parametrize(
        "kind,tail,message",
        [
            # stage 1 misses the sink 3 of the residual segment
            (1, (frozenset({2}), frozenset({3})), "invalid partition"),
            # the mirror misses its source 2
            (2, (frozenset({3}), frozenset({2})), "invalid partition"),
            (1, (frozenset({2}),), "must cover the vertices 1..3"),
            (1, (frozenset({2, 3}), frozenset({3})), "overlaps an earlier part"),
        ],
    )
    def test_a_residual_partition_invalid_on_the_cycle_is_a_value_error(self, kind, tail, message):
        residual = subquiver(cyclic_an(3), {2, 3})
        with pytest.raises(ValueError, match=message):
            TubeTorsionPair(3, kind, frozenset({1}), residual, TorsionPair((), ()), tail)

    @pytest.mark.parametrize(
        "delta,residual",
        [
            # a residual that overlaps delta
            (frozenset({1}), linear_an(2)),
            # a delta with a vertex past the cycle, with the residual of the
            # cycle less its vertices in range
            (frozenset({4}), cyclic_an(3)),
            (frozenset({1, 4}), subquiver(cyclic_an(3), {2, 3})),
            # the vertices of the cycle less delta, on another quiver
            (frozenset({3}), linear_an(2)),
        ],
    )
    def test_a_residual_quiver_other_than_the_cycle_less_delta_is_a_value_error(self, delta, residual):
        with pytest.raises(ValueError, match="^the residual quiver must be the cycle of rank 3 less delta$"):
            TubeTorsionPair(3, 1, delta, residual, TorsionPair((), ()), (frozenset({1, 2}),))


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

    def test_interval_component(self):
        from torsionpairs.quiver import linear_an
        from torsionpairs.intervals import indecomposables

        q = linear_an(1)
        tp = TorsionPair(frozenset(indecomposables(q)), frozenset())
        combined = CombinedTorsionPair((tp,))
        assert combined.membership(0, Interval(1, 1)) == "torsion"


class TestEveryCheckOnce:
    """The walked partitions are trusted on the way: validation runs in
    `partition_to_tube_tp` (input from outside) and in the validity leg of
    `count_tube_tps(check=True)`, once per pair, and nowhere else."""

    @pytest.mark.parametrize("rank", [4, 6])
    def test_count_check_runs_one_pair_check_per_assembly_and_induced_check(self, count_calls, rank):
        counts = count_calls(
            "torsion.is_torsion_pair",
            "decompose.assemble",
            "decompose.decompose",
            "quiver.validate_partition",
            "decompose.is_tilting_induced",
            "decompose.is_cotilting_induced",
        )
        pairs = math.comb(2 * rank, rank)
        assert count_tube_tps(rank, check=True) == pairs
        induced = counts["decompose.is_tilting_induced"] + counts["decompose.is_cotilting_induced"]
        # no pair is assembled: the one pair check left is the induced leg's peeling
        assert counts["decompose.assemble"] == 0
        assert counts["quiver.validate_partition"] == induced == pairs
        assert counts["torsion.is_torsion_pair"] == counts["decompose.decompose"] == induced

    def test_enumerate_prints_the_stored_partitions_without_peeling(self, count_calls, capsys):
        names = (
            "decompose.decompose",
            "decompose.assemble",
            "torsion.is_torsion_pair",
            "quiver.validate_partition",
        )
        counts = count_calls(*names)
        assert cli.main(["enumerate", "--tube", "4"]) == 0
        capsys.readouterr()
        assert counts == dict.fromkeys(names, 0)

    @pytest.mark.parametrize("rank", [1, 4, 6])
    def test_each_classified_pair_validates_its_partition_once(self, count_calls, rank):
        counts = count_calls("quiver.validate_partition", "quiver.cyclic_an")
        data = enumerate_tube_tps(rank)
        assert counts == {"quiver.validate_partition": 0, "quiver.cyclic_an": 1}
        assert count_tube_tps(rank, check=True) == len(data) == math.comb(2 * rank, rank)
        assert counts["quiver.validate_partition"] == len(data)

    @pytest.mark.parametrize("rank", [1, 3])
    def test_certificates_are_built_without_assembling(self, count_calls, capsys, tmp_path, rank):
        # validated on the cycle once, then built from the tail's stage
        # masks: no `assemble` re-checks the tail on the residual
        assert cli.main(["enumerate", "--tube", str(rank)]) == 0
        records = json.loads(capsys.readouterr().out)
        counts = count_calls("decompose.assemble", "quiver.validate_partition")
        for i, record in enumerate(records):
            path = tmp_path / f"t{i}.json"
            path.write_text(json.dumps(record))
            assert cli.main(["verify", str(path)]) == 0
            assert capsys.readouterr().out.startswith("PASS")
        assert counts == {"decompose.assemble": 0, "quiver.validate_partition": len(records)}
        for kind, name in ((1, STRONG_ONE), (2, STRONG_TWO)):
            for S in enumerate_partitions(cyclic_an(rank), name, complete=True):
                if S.parts[0]:
                    partition_to_tube_tp(S, kind)
        assert counts == {"decompose.assemble": 0, "quiver.validate_partition": 2 * len(records)}

    @pytest.mark.parametrize("kind,name", [(1, STRONG_ONE), (2, STRONG_TWO)])
    def test_a_part_overlapping_delta_is_rejected_by_the_tail_check(self, kind, name):
        # validated on the cycle, where part 1 meets delta
        S = PartPartition(parts({1}, {1, 2}), name, complete=True)
        with pytest.raises(ValueError, match="part 1 overlaps an earlier part"):
            partition_to_tube_tp(S, kind, 2)


class TestClosedFormCount:
    @pytest.mark.parametrize("rank", range(1, 7))
    def test_closed_form_is_the_classification_size(self, rank):
        assert count_tube_tps(rank) == len(enumerate_tube_tps(rank)) == math.comb(2 * rank, rank)

    def test_no_pair_is_built_without_check(self, count_calls):
        counts = count_calls("tubepairs.enumerate_tube_tps", "quiver.enumerate_partitions")
        assert count_tube_tps(1000) == math.comb(2000, 1000)
        assert counts == {"tubepairs.enumerate_tube_tps": 0, "quiver.enumerate_partitions": 0}

    @pytest.mark.parametrize("check", [False, True])
    def test_rank_zero_is_rejected(self, check):
        with pytest.raises(ValueError, match="rank must be positive"):
            count_tube_tps(0, check=check)


class TestDefects:
    """The formula, validity, induced and fingerprint legs of `count_tube_tps(check=True)`."""

    def test_lost_pair_is_a_count_mismatch(self, monkeypatch):
        from torsionpairs import tubepairs

        real = tubepairs.enumerate_tube_tps
        monkeypatch.setattr(tubepairs, "enumerate_tube_tps", lambda rank: real(rank)[1:])
        with pytest.raises(RuntimeError, match="formula 20, classification 19"):
            count_tube_tps(3, check=True)

    @pytest.mark.parametrize("check", ["is_cotilting_induced", "is_tilting_induced"])
    def test_pair_not_of_its_kind_is_a_defect(self, monkeypatch, check):
        from torsionpairs import tubepairs

        monkeypatch.setattr(tubepairs, check, lambda q, tp: False)
        with pytest.raises(ClassificationDefectError, match="gives no kind"):
            count_tube_tps(2, check=True)

    @pytest.mark.parametrize("ends,kind", [("projectives", 1), ("injectives", 2)])
    def test_pair_the_definition_refuses_is_a_defect(self, monkeypatch, ends, kind):
        # the predicate still holds; only the definition leg sees every
        # object counted as a projective (injective), which on a segment of
        # two vertices some residual pair of the kind misses
        from torsionpairs.intervals import LinearModel

        monkeypatch.setattr(LinearModel, ends, lambda self: self.objects)
        with pytest.raises(ClassificationDefectError, match=f"gives no kind {kind} pair$"):
            count_tube_tps(3, check=True)

    def test_invalid_walked_partition_is_a_defect(self, monkeypatch):
        # the walk is trusted on the way; only the validity leg sees a bad one
        from torsionpairs import tubepairs

        good = PartPartition(parts({1}, {3}, {2}), STRONG_ONE, complete=True)
        bad = PartPartition(parts({1}, {2}, {3}), STRONG_ONE, complete=True)
        real = tubepairs._mask_walk

        def walk(model, kind, start):
            # the tails of delta {1} come from the walk on the segment 2 -> 3
            for tail, torsion, free in real(model, kind, start):
                if kind == STRONG_ONE and model.quiver.vertices == (2, 3) and tail == good.parts[1:]:
                    tail = bad.parts[1:]
                yield tail, torsion, free

        monkeypatch.setattr(tubepairs, "_mask_walk", walk)
        built = {(d.kind, d.delta, d.residual_partition) for d in enumerate_tube_tps(3)}
        assert (1, bad.parts[0], bad.parts[1:]) in built
        with pytest.raises(ClassificationDefectError, match=r"partition \[\[1\], \[2\], \[3\]\] is not"):
            count_tube_tps(3, check=True)

    def test_fingerprint_collision_is_a_defect(self, monkeypatch):
        monkeypatch.setattr(TubeTorsionPair, "fingerprint", lambda self, cap: (0, 0))
        with pytest.raises(ClassificationDefectError, match="same pair"):
            count_tube_tps(2, check=True)

    def test_collision_with_an_earlier_group_is_a_defect(self, monkeypatch):
        # the last pair, of the last (kind, delta) group, claims the first
        # pair's fingerprint, long after the first group's table is gone
        data = enumerate_tube_tps(3)
        first, last = data[0], data[-1]
        assert (first.kind, first.delta) != (last.kind, last.delta)
        real = TubeTorsionPair.fingerprint

        def fingerprint(self, cap):
            return real(first if self == last else self, cap)

        monkeypatch.setattr(TubeTorsionPair, "fingerprint", fingerprint)
        with pytest.raises(ClassificationDefectError, match="kind 1 and kind 2 describe the same pair"):
            count_tube_tps(3, check=True)

    def test_torsion_and_free_masks_are_packed_apart(self, monkeypatch):
        # the first half of the pairs claims one torsion module each and the
        # second half the same modules as free: the masks OR'ed unshifted
        # would collide, the packed key keeps them apart
        data = enumerate_tube_tps(3)
        half = len(data) // 2
        index = {d: i for i, d in enumerate(data)}

        def fingerprint(self, cap):
            i = index[self]
            return (1 << i, 0) if i < half else (0, 1 << (i - half))

        monkeypatch.setattr(TubeTorsionPair, "fingerprint", fingerprint)
        assert count_tube_tps(3, check=True) == len(data) == 20

    @staticmethod
    def count_fingerprints(monkeypatch):
        calls = Counter()
        real = TubeTorsionPair.fingerprint

        def fingerprint(self, cap):
            calls[cap] += 1
            return real(self, cap)

        monkeypatch.setattr(TubeTorsionPair, "fingerprint", fingerprint)
        return calls

    @pytest.mark.parametrize("rank", [3, 6])
    def test_each_leg_runs_once_per_pair(self, monkeypatch, count_calls, rank):
        calls = self.count_fingerprints(monkeypatch)
        counts = count_calls(
            "quiver.validate_partition", "decompose.is_cotilting_induced", "decompose.is_tilting_induced"
        )
        pairs = math.comb(2 * rank, rank)
        assert count_tube_tps(rank, check=True) == pairs
        assert counts["quiver.validate_partition"] == pairs
        assert counts["decompose.is_cotilting_induced"] + counts["decompose.is_tilting_induced"] == pairs
        assert calls == {2 * rank + 2: pairs}

    def test_finite_finite_is_a_defect(self):
        d = enumerate_tube_tps(2)[0]
        broken = TubeTorsionPairLike(d)
        with pytest.raises(ClassificationDefectError):
            check_l_r(broken)


def altered_walk(monkeypatch, alter):
    """Route `enumerate_tube_tps` through a walk whose steps, one (kind name,
    residual vertices) group at a time, pass through `alter(group, steps)`."""
    from torsionpairs import tubepairs

    real = tubepairs._mask_walk

    def walk(model, kind, start):
        return iter(alter((kind, model.quiver.vertices), list(real(model, kind, start))))

    monkeypatch.setattr(tubepairs, "_mask_walk", walk)


class TestRankSixMutations:
    """A walk altered in one tail, at rank 6, is caught by the leg that reads
    what it altered, after the legs before it have passed."""

    FIRST = (STRONG_ONE, (2, 3, 4, 5, 6))  # kind 1, delta {1}: 42 tails
    SECOND = (STRONG_TWO, (2, 3, 4, 5, 6))  # kind 2, delta {1}

    def test_a_tail_walked_twice_describes_the_same_pair(self, monkeypatch, count_calls):
        # the group keeps its size and every tail stays valid and induced, so
        # the tally, validity and induced legs pass and the fingerprints collide
        def alter(group, steps):
            return [steps[0], steps[0]] + steps[2:] if group == self.FIRST else steps

        altered_walk(monkeypatch, alter)
        counts = count_calls("quiver.validate_partition", "decompose.is_cotilting_induced",
                             "decompose.is_tilting_induced")
        with pytest.raises(ClassificationDefectError, match="kind 1 and kind 1 describe the same pair"):
            count_tube_tps(6, check=True)
        induced = counts["decompose.is_cotilting_induced"] + counts["decompose.is_tilting_induced"]
        assert counts["quiver.validate_partition"] == induced == 924

    def test_a_dropped_tail_fails_the_formula(self, monkeypatch):
        altered_walk(monkeypatch, lambda group, steps: steps[1:] if group == self.FIRST else steps)
        with pytest.raises(RuntimeError, match="formula 924, classification 923"):
            count_tube_tps(6, check=True)

    def test_a_dropped_tail_made_up_in_another_group_fails_the_tally(self, monkeypatch):
        # the total still meets the formula; the tally is kept per group
        def alter(group, steps):
            if group == self.FIRST:
                return steps[1:]
            return steps + steps[:1] if group == self.SECOND else steps

        altered_walk(monkeypatch, alter)
        with pytest.raises(RuntimeError, match=r"kind 1, delta \[1\]: 41 pairs, 42 tilting modules"):
            count_tube_tps(6, check=True)

    def test_a_tail_made_invalid_fails_the_validity_leg(self, monkeypatch):
        from torsionpairs.quiver import validate_partition

        def alter(group, steps):
            if group != self.FIRST:
                return steps
            k = next(k for k, (tail, _, _) in enumerate(steps) if len(tail) >= 2)
            tail, torsion, free = steps[k]
            return steps[:k] + [((tail[1], tail[0]) + tail[2:], torsion, free)] + steps[k + 1:]

        altered_walk(monkeypatch, alter)
        bad = next(d for d in enumerate_tube_tps(6) if d.kind == 1 and d.delta == {1}
                   and not validate_partition(cyclic_an(6), PartPartition(
                       (d.delta,) + d.residual_partition, STRONG_ONE, complete=True)))
        listed = [sorted(p) for p in (bad.delta,) + bad.residual_partition]
        with pytest.raises(ClassificationDefectError, match=rf"partition {re.escape(str(listed))} is not a valid"):
            count_tube_tps(6, check=True)


class TestPeelAgreesWithTheWalk:
    """The induced leg's peeling, against the walk it checks: at rank 6, for
    every pair of both kinds, `decompose` finds the stored tail after an
    empty stage 0, and its trace generators are the stage generators whose
    quotients (submodules) the walk ORed into the stored masks."""

    @pytest.mark.parametrize("kind", [1, 2])
    def test_every_rank_six_pair(self, kind):
        from torsionpairs.decompose import PROJECTIVE, _stage_row

        name, side = (STRONG_ONE, "left") if kind == 1 else (STRONG_TWO, "right")
        data = by_kind(enumerate_tube_tps(6), kind)
        assert len(data) == 462
        for d in data:
            model = model_for(d.residual_quiver)
            result = decompose(d.residual_quiver, d.residual_pair, side)
            assert result.partition == PartPartition((frozenset(),) + d.residual_partition, name, complete=True)
            assert not result.trace[0].vertices and not result.trace[0].generators
            torsion = free = 0
            support = d.residual_quiver.vertex_set
            for stage, part in zip(result.trace[1:], d.residual_partition):
                projective = stage.side == PROJECTIVE
                row = _stage_row(model, support, projective)
                assert stage.vertices == part
                assert stage.generators == {model.objects[row[v]] for v in part}
                for X in stage.generators:
                    if projective:
                        torsion |= model.quot_masks[model.index[X]]
                    else:
                        free |= model.sub_masks[model.index[X]]
                support -= part
            assert (torsion, free) == (d._torsion, d._free)


class TubeTorsionPairLike:
    """Stand-in whose descriptors are both finite, for the defect path."""

    def __init__(self, real):
        from torsionpairs.tube import FINITE, TubeSubcatDescriptor

        self.torsion_descriptor = TubeSubcatDescriptor(FINITE, real.rank)
        self.free_descriptor = TubeSubcatDescriptor(FINITE, real.rank)


@pytest.mark.parametrize("S,kind,message", [
    pytest.param(PartPartition([{1}, {2}], STRONG_ONE, complete=True), 3, "kind must be 1 or 2", id="kind"),
    pytest.param(PartPartition([{1}], STRONG_ONE, complete=False), 1, "the partition must be complete",
                 id="incomplete"),
    pytest.param(PartPartition([{1}, {2}, {3}], STRONG_ONE, complete=True), 1,
                 "invalid partition PartPartition([{1}, {2}, {3}], strong1)", id="stage-end-left-out"),
])
def test_partition_to_tube_tp_rejects_bad_input(S, kind, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        partition_to_tube_tp(S, kind)
