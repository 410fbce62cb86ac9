import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionpairs.quiver import (
    PLAIN_ONE,
    PLAIN_TWO,
    STRONG_ONE,
    STRONG_TWO,
    MalformedPartitionError,
    PartPartition,
    cyclic_an,
    enumerate_partitions,
    linear_an,
    path_exists,
    subquiver,
    validate_partition,
)


def part(*parts):
    return tuple(frozenset(p) for p in parts)


class TestConstruction:
    def test_linear_one_vertex(self):
        q = linear_an(1)
        assert q.vertices == (1,)
        assert q.arrows == ()

    def test_linear_two(self):
        q = linear_an(2)
        assert q.vertices == (1, 2)
        assert q.arrows == ((1, 2),)

    def test_linear_four_arrows(self):
        assert linear_an(4).arrows == ((1, 2), (2, 3), (3, 4))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            linear_an(0)
        with pytest.raises(ValueError):
            cyclic_an(0)

    def test_cyclic_loop(self):
        q = cyclic_an(1)
        assert q.vertices == (1,)
        assert q.arrows == ((1, 1),)

    def test_cyclic_two(self):
        assert cyclic_an(2).arrows == ((1, 2), (2, 1))

    def test_cyclic_three(self):
        assert cyclic_an(3).arrows == ((1, 2), (2, 3), (3, 1))

    def test_sinks_sources(self):
        q = linear_an(3)
        assert q.sinks == {3}
        assert q.sources == {1}
        c = cyclic_an(3)
        assert c.sinks == frozenset()
        assert c.sources == frozenset()


class TestSubquiver:
    def test_isolated_pair(self):
        s = subquiver(linear_an(3), {1, 3})
        assert s.vertices == (1, 3)
        assert s.arrows == ()
        assert s.components == ((1,), (3,))

    def test_middle_segment(self):
        s = subquiver(linear_an(4), {2, 3})
        assert s.arrows == ((2, 3),)
        assert s.components == ((2, 3),)

    def test_cyclic_single_vertex(self):
        s = subquiver(cyclic_an(2), {2})
        assert s.vertices == (2,)
        assert s.arrows == ()

    def test_cyclic_wrapping_component(self):
        # removing 2 from the 3-cycle leaves the segment 3 -> 1
        s = subquiver(cyclic_an(3), {1, 3})
        assert s.arrows == ((3, 1),)
        assert s.components == ((3, 1),)

    def test_full_subquiver_is_same_object(self):
        q = linear_an(3)
        assert subquiver(q, {1, 2, 3}) is q

    def test_bad_keep(self):
        with pytest.raises(ValueError):
            subquiver(linear_an(2), {5})


class TestPathExists:
    def test_forward(self):
        assert path_exists(linear_an(3), {1}, {3})

    def test_backward(self):
        assert not path_exists(linear_an(3), {3}, {1})

    def test_length_zero(self):
        assert path_exists(linear_an(3), {2}, {2})

    def test_around_the_cycle(self):
        assert path_exists(cyclic_an(3), {3}, {2})


class TestValidatePartition:
    def test_simple_strong_one(self):
        S = PartPartition(part({1}, {2}), STRONG_ONE, complete=True)
        assert validate_partition(linear_an(2), S)

    def test_superset_sink_rule(self):
        S = PartPartition(part(set(), {1, 2}), STRONG_ONE, complete=True)
        assert validate_partition(linear_an(2), S)

    def test_overlap_malformed(self):
        S = PartPartition(part({2}, {2}), STRONG_ONE, complete=False)
        with pytest.raises(MalformedPartitionError):
            validate_partition(linear_an(2), S)

    def test_empty_middle_malformed(self):
        S = PartPartition(part({1}, set()), STRONG_ONE, complete=False)
        with pytest.raises(MalformedPartitionError):
            validate_partition(linear_an(2), S)

    def test_complete_flag_must_match(self):
        S = PartPartition(part({1}, {2}), STRONG_ONE, complete=False)
        assert not validate_partition(linear_an(2), S)

    def test_sink_missing_fails(self):
        S = PartPartition(part({1}, {2}), STRONG_ONE, complete=False)
        # after removing nothing at stage 0 = {1}, the subquiver on {2,3}
        # has sink 3, which stage 1 = {2} misses
        assert not validate_partition(linear_an(3), S)

    def test_plain_one_needs_path_into_odd_stage(self):
        # stage 2 vertex 2 has no path to stage 1 = {1} in 1 -> 2
        S = PartPartition(part(set(), {1}, {2}), PLAIN_ONE, complete=True)
        assert not validate_partition(linear_an(2), S)
        S2 = PartPartition(part(set(), {2}, {1}), PLAIN_ONE, complete=True)
        assert validate_partition(linear_an(2), S2)


class TestEnumeratePartitions:
    def test_a1_contents(self):
        got = enumerate_partitions(linear_an(1), STRONG_ONE, complete=True)
        assert [S.parts for S in got] == [part(set(), {1}), part({1})]

    def test_a2_count(self):
        assert len(enumerate_partitions(linear_an(2), STRONG_ONE, complete=True)) == 5

    def test_a3_count(self):
        assert len(enumerate_partitions(linear_an(3), STRONG_ONE, complete=True)) == 14

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_all_validate_and_unique(self, n):
        q = linear_an(n)
        got = enumerate_partitions(q, STRONG_ONE, complete=True)
        assert len(set(got)) == len(got)
        for S in got:
            assert validate_partition(q, S)
            assert S.complete

    def test_deterministic_order(self):
        q = linear_an(3)
        a = enumerate_partitions(q, STRONG_ONE, complete=True)
        b = enumerate_partitions(q, STRONG_ONE, complete=True)
        assert a == b
        assert a == sorted(a, key=PartPartition.sort_key)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_complete_plain_equals_complete_strong(self, n):
        # on the linear quiver the complete 1-type partitions are exactly
        # the complete strong 1-type ones
        q = linear_an(n)
        plain = {S.parts for S in enumerate_partitions(q, PLAIN_ONE, complete=True)}
        strong = {S.parts for S in enumerate_partitions(q, STRONG_ONE, complete=True)}
        assert plain == strong

    @pytest.mark.parametrize("kind,plain", [(STRONG_ONE, PLAIN_ONE), (STRONG_TWO, PLAIN_TWO)])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_strong_implies_plain_on_acyclic(self, kind, plain, n):
        q = linear_an(n)
        for S in enumerate_partitions(q, kind, complete=False):
            relaxed = PartPartition(S.parts, plain, S.complete)
            assert validate_partition(q, relaxed), S

    @pytest.mark.parametrize("complete", [True, False])
    @pytest.mark.parametrize("kind", [STRONG_ONE, STRONG_TWO, PLAIN_ONE, PLAIN_TWO])
    def test_one_object_per_distinct_part(self, kind, complete):
        got = enumerate_partitions(linear_an(6), kind, complete=complete)
        parts = [p for S in got for p in S.parts]
        assert len({id(p) for p in parts}) == len(set(parts))

    def test_incomplete_enumeration_includes_complete(self):
        q = linear_an(2)
        everything = enumerate_partitions(q, STRONG_ONE, complete=False)
        complete = enumerate_partitions(q, STRONG_ONE, complete=True)
        assert set(complete) <= set(everything)


@given(st.integers(min_value=1, max_value=6), st.sets(st.integers(min_value=1, max_value=6)))
@settings(max_examples=60, deadline=None)
def test_subquiver_structure(n, keep):
    q = linear_an(n)
    keep = {v for v in keep if v <= n}
    s = subquiver(q, keep)
    assert set(s.vertices) == keep
    for a, b in s.arrows:
        assert b == a + 1 and a in keep and b in keep
    # components are maximal consecutive runs
    for comp in s.components:
        assert list(comp) == list(range(comp[0], comp[-1] + 1))


@given(st.permutations([1, 2, 3]))
def test_partition_insensitive_to_element_order(perm):
    S = PartPartition((frozenset(perm[:1]), frozenset(perm[1:])), STRONG_ONE, complete=True)
    T = PartPartition((frozenset(perm[:1]), frozenset(reversed(perm[1:]))), STRONG_ONE, complete=True)
    assert S == T
