import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionpairs.quiver import (
    PLAIN_ONE,
    PLAIN_TWO,
    STRONG_ONE,
    STRONG_TWO,
    PARTITION_KINDS,
    CYCLIC,
    LINEAR,
    LINEAR_UNION,
    MalformedPartitionError,
    PartPartition,
    Quiver,
    cyclic_an,
    enumerate_partitions,
    linear_an,
    path_exists,
    subquiver,
    validate_partition,
)


def part(*parts):
    return tuple(frozenset(p) for p in parts)


# linear unions of the shapes the tube route walks: residuals of the cycle,
# some with an arrow against the label order (5 -> 1), and a gapped path
UNIONS = [subquiver(cyclic_an(5), keep) for keep in ({1, 2, 3}, {4, 5, 1, 2}, {2, 3, 5, 1}, {5, 1, 3})]
UNIONS.append(subquiver(linear_an(5), {1, 2, 4, 5}))


def brute_force_partitions(q, kind, complete):
    """The valid `kind` partitions of q, the complete ones or all, in
    `sort_key` order, apart from the walk: every ordered tuple of disjoint
    parts with nonempty middle parts, kept when it validates."""
    def tuples(prefix, left):
        yield prefix
        for k in range(1, len(left) + 1):
            for combo in combinations(sorted(left), k):
                yield from tuples(prefix + (frozenset(combo),), left - set(combo))

    want = []
    for k in range(len(q.vertices) + 1):
        for delta0 in combinations(q.vertices, k):
            for parts in tuples((frozenset(delta0),), q.vertex_set - set(delta0)):
                covered = frozenset().union(*parts) == q.vertex_set
                S = PartPartition(parts, kind, covered)
                if (covered or not complete) and validate_partition(q, S):
                    want.append(S)
    return sorted(want, key=PartPartition.sort_key)


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


def has_cycle(vertices, arrows):
    """The acyclicity check the quiver made before it read its components:
    walk the arrows from every vertex."""
    succ = dict(arrows)
    for start in vertices:
        seen = set()
        v = start
        while v in succ:
            v = succ[v]
            if v == start or v in seen:
                return True
            seen.add(v)
    return False


class TestAcyclicUnion:
    def test_three_cycle_rejected(self):
        with pytest.raises(ValueError, match="linear-union quiver must be acyclic"):
            Quiver((1, 2, 3), ((1, 2), (2, 3), (3, 1)), LINEAR_UNION)

    def test_two_cycle_beside_a_path_rejected(self):
        with pytest.raises(ValueError, match="linear-union quiver must be acyclic"):
            Quiver((1, 2, 3, 4, 5), ((1, 2), (2, 1), (3, 4), (4, 5)), LINEAR_UNION)

    def test_agrees_with_walking_from_every_vertex(self):
        # random arrow sets with at most one arrow in and one out at each
        # vertex, loops included
        rng = random.Random(18)
        cyclic = 0
        for _ in range(3000):
            n = rng.randint(1, 7)
            vertices = tuple(range(1, n + 1))
            sources = rng.sample(vertices, rng.randint(0, n))
            arrows = tuple(zip(sources, rng.sample(vertices, len(sources))))
            if has_cycle(vertices, arrows):
                cyclic += 1
                with pytest.raises(ValueError, match="linear-union quiver must be acyclic"):
                    Quiver(vertices, arrows, LINEAR_UNION)
            else:
                q = Quiver(vertices, arrows, LINEAR_UNION)
                assert sorted(v for comp in q.components for v in comp) == list(vertices)
        assert 0 < cyclic < 3000


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

    @staticmethod
    def bfs(q, sources, targets):
        """Breadth-first search along every arrow, assuming nothing of their shape."""
        seen = set(sources) & set(q.vertices)
        frontier = seen
        while frontier:
            frontier = {t for s, t in q.arrows if s in frontier} - seen
            seen |= frontier
        return bool(seen & set(targets))

    @staticmethod
    def random_quivers(rng):
        """The cycles of rank 1 to 5 (rank 1 is a loop), and random unions of
        paths on shuffled labels, each with a random subquiver of it."""
        quivers = [cyclic_an(n) for n in range(1, 6)]
        for _ in range(40):
            labels = rng.sample(range(1, 13), rng.randint(1, 8))
            cuts = sorted(rng.sample(range(1, len(labels)), rng.randint(0, len(labels) - 1)))
            comps = [labels[i:j] for i, j in zip([0] + cuts, cuts + [len(labels)])]
            vertices = tuple(sorted(labels))
            arrows = tuple((c[i], c[i + 1]) for c in comps for i in range(len(c) - 1))
            quivers.append(Quiver(vertices, arrows, LINEAR_UNION))
        return quivers + [subquiver(q, rng.sample(q.vertices, rng.randint(0, len(q.vertices))))
                          for q in quivers]

    def test_matches_breadth_first_search(self):
        rng = random.Random(7)
        for q in self.random_quivers(rng):
            outside = [0, max(q.vertices, default=0) + 1]
            for _ in range(30):
                # random vertex sets, empty ones and vertices off q included
                sources = set(rng.sample(q.vertices, rng.randint(0, len(q.vertices))))
                targets = set(rng.sample(q.vertices, rng.randint(0, len(q.vertices))))
                sources |= set(rng.sample(outside, rng.randint(0, 2)))
                targets |= set(rng.sample(outside, rng.randint(0, 2)))
                assert path_exists(q, sources, targets) == self.bfs(q, sources, targets), (q, sources, targets)

    def test_the_loop_of_rank_one(self):
        loop = cyclic_an(1)
        assert loop.arrows == ((1, 1),)
        assert path_exists(loop, {1}, {1})
        assert not path_exists(loop, {1}, {2})
        assert not path_exists(loop, set(), {1})
        assert not path_exists(loop, {1}, set())


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
        assert len(list(enumerate_partitions(linear_an(2), STRONG_ONE, complete=True))) == 5

    def test_a3_count(self):
        assert len(list(enumerate_partitions(linear_an(3), STRONG_ONE, complete=True))) == 14

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_all_validate_and_unique(self, n):
        q = linear_an(n)
        got = list(enumerate_partitions(q, STRONG_ONE, complete=True))
        assert len(set(got)) == len(got)
        for S in got:
            assert validate_partition(q, S)
            assert S.complete

    def test_deterministic_order(self):
        q = linear_an(3)
        a = list(enumerate_partitions(q, STRONG_ONE, complete=True))
        b = list(enumerate_partitions(q, STRONG_ONE, complete=True))
        assert a == b
        assert a == sorted(a, key=PartPartition.sort_key)
        # no final sort puts the walk in order: each stage's candidate order does
        quivers = [linear_an(n) for n in range(1, 9)] + [cyclic_an(n) for n in range(1, 7)]
        for q in quivers:
            for kind in (STRONG_ONE, STRONG_TWO):
                keys = [S.sort_key() for S in enumerate_partitions(q, kind, complete=True)]
                assert all(x < y for x, y in zip(keys, keys[1:])), (q, kind)

    def test_walk_is_an_iterator_reaching_the_first_partition_at_once(self, count_calls):
        counts = count_calls("quiver.stage_ends")
        walk = enumerate_partitions(linear_an(9), STRONG_ONE)
        assert iter(walk) is walk
        first = next(walk)
        assert counts["quiver.stage_ends"] <= 3
        assert first.parts == part(set(), range(1, 10))
        assert first == min(enumerate_partitions(linear_an(9), STRONG_ONE), key=PartPartition.sort_key)

    def test_unknown_kind_raises_at_the_call(self):
        with pytest.raises(ValueError, match="unknown partition kind"):
            enumerate_partitions(linear_an(2), "3")

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
    @pytest.mark.parametrize("kind", PARTITION_KINDS)
    @pytest.mark.parametrize(
        "q", [linear_an(n) for n in range(1, 5)] + [cyclic_an(n) for n in range(1, 5)] + UNIONS, ids=repr
    )
    def test_walk_matches_a_brute_force_over_all_tuples(self, q, kind, complete):
        # the walk trusts its candidate generators
        assert list(enumerate_partitions(q, kind, complete)) == brute_force_partitions(q, kind, complete)

    def test_every_walked_partition_validates(self):
        # `enumerate --an` builds each pair from the walk without checking
        # its partition; the check lives here, up to n = 9 and rank 6
        cases = [(linear_an(n), STRONG_ONE) for n in range(1, 10)]
        cases += [(cyclic_an(n), kind) for n in range(1, 7) for kind in (STRONG_ONE, STRONG_TWO)]
        for q, kind in cases:
            for S in enumerate_partitions(q, kind, complete=True):
                assert S.complete and validate_partition(q, S), (q, S)

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


@pytest.mark.parametrize("make,error,message", [
    pytest.param(lambda: Quiver((1, 2), ((1, 3),), LINEAR_UNION), ValueError,
                 "arrow (1,3) leaves the vertex set", id="arrow-off-the-vertices"),
    pytest.param(lambda: Quiver((1, 2, 3), ((1, 2), (1, 3)), LINEAR_UNION), ValueError,
                 "a vertex carries two arrows in the same direction", id="two-arrows-out"),
    pytest.param(lambda: Quiver((1, 2), ((2, 1),), LINEAR), ValueError,
                 "linear quiver must be 1 -> 2 -> ... -> n", id="reversed-linear"),
    pytest.param(lambda: Quiver((1, 2), ((1, 2),), CYCLIC), ValueError,
                 "cyclic quiver must be the oriented n-cycle", id="open-cycle"),
    pytest.param(lambda: validate_partition(linear_an(2), PartPartition([{3}], STRONG_ONE, complete=True)),
                 MalformedPartitionError, "part 0 is not a subset of the vertices", id="part-off-the-vertices"),
    pytest.param(lambda: validate_partition(linear_an(2), PartPartition([], STRONG_ONE, complete=True)),
                 MalformedPartitionError, "a partition needs at least the part Delta_0", id="no-parts"),
])
def test_malformed_quivers_and_partitions_are_rejected(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()
