import importlib
from itertools import combinations

import pytest

from test_intervals import CYCLE_RESIDUALS, MODEL_QUIVERS, linear_union, model_id
from torsionpairs.decompose import (
    DecompositionResult,
    _mask_walk,
    _stage_masks,
    _stage_row,
    assemble,
    catalan,
    count_torsion_pairs,
    decompose,
    decompose_left,
    decompose_right,
    enumerate_torsion_pairs,
    generators,
    injective_correspondence,
    is_cotilting_induced,
    is_tilting_induced,
    iter_torsion_pairs,
    projective_correspondence,
    residuals_agree,
    suffix_ext_projectives,
    prefix_ext_injectives,
    tp_to_partition,
    trace_ntp,
)
from torsionpairs.intervals import (
    Interval,
    gen_closure,
    cogen_closure,
    indecomposables,
    injectives,
    model_for,
    projectives,
)
from torsionpairs.oracle import bruteforce_torsion_pairs, enumerate_torsion_pairs_bruteforce
from torsionpairs.quiver import (
    STRONG_ONE,
    STRONG_TWO,
    PartPartition,
    cyclic_an,
    enumerate_partitions,
    linear_an,
    stage_ends,
    subquiver,
    validate_partition,
)
from torsionpairs.torsion import (
    TorsionPair,
    ext_injectives_in,
    ext_projectives_in,
    is_ntp,
    is_torsion_pair,
    mask_of,
    objects_of,
)
from torsionpairs.tubepairs import ClassificationDefectError, count_tube_tps

A2 = linear_an(2)
A3 = linear_an(3)


def iv(a, b):
    return Interval(a, b)


def fs(*pairs):
    return frozenset(iv(a, b) for a, b in pairs)


def parts(*sets):
    return tuple(frozenset(s) for s in sets)


# small paths, then the walk's harder inputs: the cycle residuals
# (non-monotone labels) and a shuffled-label union
WALK_QUIVERS = (
    [linear_an(n) for n in range(1, 5)]
    + CYCLE_RESIDUALS
    + [linear_union((7, 2, 9, 4), (10, 1, 5))]
)


ALL2 = frozenset(indecomposables(A2))


class TestDecomposeLeft:
    def test_everything_torsion(self):
        res = decompose_left(A2, TorsionPair(ALL2, frozenset()))
        assert res.partition.parts == parts({1, 2})
        assert res.residual == TorsionPair(frozenset(), frozenset())

    def test_simple_torsion_class(self):
        res = decompose_left(A2, TorsionPair(fs((1, 1)), fs((1, 2), (2, 2))))
        assert res.partition.parts == parts(set(), {2}, {1})
        assert res.residual == TorsionPair(frozenset(), frozenset())
        assert [t.side for t in res.trace] == ["projective", "injective", "projective"]

    def test_everything_free(self):
        res = decompose_left(A2, TorsionPair(frozenset(), ALL2))
        assert res.partition.parts == parts(set(), {1, 2})

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            decompose_left(A2, TorsionPair(fs((1, 1)), fs((2, 2))))


class TestDecomposeRight:
    def test_everything_free(self):
        res = decompose_right(A2, TorsionPair(frozenset(), ALL2))
        assert res.partition.parts == parts({1, 2})

    def test_everything_torsion(self):
        # all projectives are collected in the single stage after the
        # empty injective stage
        res = decompose_right(A2, TorsionPair(ALL2, frozenset()))
        assert res.partition.parts == parts(set(), {1, 2})
        assert res.partition.kind == STRONG_TWO

    def test_a1(self):
        q = linear_an(1)
        res = decompose_right(q, TorsionPair(frozenset(indecomposables(q)), frozenset()))
        assert res.partition.parts == parts(set(), {1})

    def test_tilting_pair_splits_stages(self):
        res = decompose_right(A2, TorsionPair(fs((1, 1), (1, 2)), fs((2, 2))))
        assert res.partition.parts == parts(set(), {1}, {2})


class TestAssemble:
    def test_example_10(self):
        S = PartPartition(parts({1}, {2}), STRONG_ONE, complete=True)
        assert assemble(A2, S) == TorsionPair(fs((1, 2), (1, 1)), fs((2, 2)))

    def test_example_01(self):
        S = PartPartition(parts({2}, {1}), STRONG_ONE, complete=True)
        assert assemble(A2, S) == TorsionPair(fs((2, 2)), fs((1, 1)))

    def test_invalid_partition_rejected(self):
        S = PartPartition(parts({1}, {2}), STRONG_ONE, complete=False)
        with pytest.raises(ValueError):
            assemble(A2, S)

    def test_nonempty_residual_rejected_on_linear(self):
        S = PartPartition(parts({3},), STRONG_ONE, complete=False)
        residual = TorsionPair(fs((2, 2)), fs((1, 1)))
        with pytest.raises(ValueError):
            assemble(A3, S, residual)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_round_trips_both_ways(self, n):
        q = linear_an(n)
        for S in enumerate_partitions(q, STRONG_ONE, complete=True):
            tp = assemble(q, S)
            res = decompose_left(q, tp)
            assert res.partition == S
            assert assemble(q, res.partition, res.residual) == tp

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_right_side_round_trips(self, n):
        q = linear_an(n)
        for S in enumerate_partitions(q, STRONG_TWO, complete=True):
            tp = assemble(q, S)
            assert decompose_right(q, tp).partition == S


class TestResiduals:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_residuals_agree_everywhere(self, n):
        q = linear_an(n)
        for tp in enumerate_torsion_pairs(q):
            assert residuals_agree(q, tp)

    def test_leftover_vertices_are_a_model_defect(self, monkeypatch):
        # a later stage that misses a vertex ends the peeling with that
        # vertex left; the peeling reports it instead of a residual pair
        module = importlib.import_module("torsionpairs.decompose")

        def drop_last_injective(model, support, projective):
            out = dict(_stage_row(model, support, projective))  # the row is shared
            if not projective:
                out.pop(max(out), None)
            return out

        monkeypatch.setattr(module, "_stage_row", drop_last_injective)
        everything_free = TorsionPair(frozenset(), frozenset(model_for(A3).objects))
        with pytest.raises(RuntimeError, match=r"^peeling left vertices \[3\]; model defect$"):
            decompose(A3, everything_free, "left")

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_e_is_empty(self, n):
        # every torsion pair keeps a projective in the torsion class or an
        # injective in the free class
        q = linear_an(n)
        for tp in bruteforce_torsion_pairs(q):
            has_proj = any(P in tp.torsion for P in projectives(q))
            has_inj = any(I in tp.free for I in injectives(q))
            assert has_proj or has_inj

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_no_new_projectives_after_a_projective_stage(self, n):
        # right after stripping the stage-0 projectives, the surviving
        # torsion class holds no projective of the residual algebra
        q = linear_an(n)
        for tp in enumerate_torsion_pairs(q):
            delta0 = frozenset(P.a for P in projectives(q) if P in tp.torsion)
            rest = frozenset(q.vertices) - delta0
            residual = subquiver(q, rest)
            survivors = {
                X for X in tp.torsion if set(model_for(q).support(X)) <= rest
            }
            assert not survivors & set(projectives(residual))


class TestBijection:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_bruteforce(self, n):
        q = linear_an(n)
        via_partitions = set(enumerate_torsion_pairs(q))
        via_oracle = set(enumerate_torsion_pairs_bruteforce(n))
        assert via_partitions == via_oracle

    def test_partition_to_tp_examples(self):
        assert assemble(
            A2, PartPartition(parts({1, 2}), STRONG_ONE, complete=True)
        ) == TorsionPair(ALL2, frozenset())
        assert assemble(
            A2, PartPartition(parts(set(), {2}, {1}), STRONG_ONE, complete=True)
        ) == TorsionPair(fs((1, 1)), fs((1, 2), (2, 2)))

    def test_round_trip_a2(self):
        for S in enumerate_partitions(A2, STRONG_ONE, complete=True):
            assert tp_to_partition(A2, assemble(A2, S)) == S

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_assembled_pair_and_its_peeling_are_valid(self, n):
        # assemble and decompose do not re-check what they build: every
        # pair of the path route is a torsion pair, and peeling it gives
        # a valid complete partition
        q = linear_an(n)
        model = model_for(q)
        for tp in enumerate_torsion_pairs(q):
            check = is_torsion_pair(model, tp.torsion, tp.free)
            assert check, check.reason
            partition = decompose(q, tp, "left").partition
            assert partition.complete and validate_partition(q, partition), partition

    @pytest.mark.parametrize("n", range(1, 7))
    def test_iterator_yields_the_enumeration_in_order(self, n):
        q = linear_an(n)
        assert list(iter_torsion_pairs(q)) == enumerate_torsion_pairs(q)

    def test_class_masks_are_the_closed_assembled_pairs(self):
        # the mask route neither checks nor closes a pair; up to the
        # benchmark's largest n each pair it yields is the masks of the
        # pair the checked `assemble` closes
        for n in range(1, 9):
            q = linear_an(n)
            model = model_for(q)
            want = [(mask_of(model, tp.torsion), mask_of(model, tp.free)) for tp in iter_torsion_pairs(q)]
            got = [(torsion, free) for _, torsion, free in _mask_walk(model, STRONG_ONE, 0)]
            assert len(got) == catalan(n + 1) and got == want, n


class TestMaskWalk:
    """The mask walk yields the partitions `enumerate_partitions` yields,
    in the same order, each with its `_stage_masks`."""

    @staticmethod
    def reference(partitions, model, lead=0):
        # each partition with a fresh stage walk; with lead=1 the leading
        # part is read as an empty stage and left out of the tail
        out = []
        for S in partitions:
            tail = PartPartition((frozenset(),) * lead + S.parts[lead:], S.kind, complete=True)
            out.append((S.parts[lead:],) + _stage_masks(model, tail))
        return out

    @pytest.mark.parametrize("n", range(1, 10))
    def test_path_strong_one(self, n):
        q = linear_an(n)
        model = model_for(q)
        got = list(_mask_walk(model, STRONG_ONE, 0))
        assert len(got) == catalan(n + 1)
        assert got == self.reference(enumerate_partitions(q, STRONG_ONE, complete=True), model)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_path_strong_two(self, n):
        q = linear_an(n)
        model = model_for(q)
        want = self.reference(enumerate_partitions(q, STRONG_TWO, complete=True), model)
        assert list(_mask_walk(model, STRONG_TWO, 0)) == want

    @pytest.mark.parametrize("rank", range(1, 8))
    def test_every_residual_of_the_cycle(self, rank):
        # from stage 1 on a residual: the tails of the cycle's partitions
        # with that leading part, both kinds
        cycle = cyclic_an(rank)
        for kind in (STRONG_ONE, STRONG_TWO):
            by_lead = {}
            for S in enumerate_partitions(cycle, kind, complete=True):
                by_lead.setdefault(S.parts[0], []).append(S)
            for k in range(1, rank + 1):
                for delta in map(frozenset, combinations(cycle.vertices, k)):
                    model = model_for(subquiver(cycle, cycle.vertex_set - delta))
                    want = self.reference(by_lead[delta], model, lead=1)
                    assert list(_mask_walk(model, kind, 1)) == want, (rank, kind, sorted(delta))

    def test_empty_residual_is_one_empty_tail(self):
        model = model_for(subquiver(cyclic_an(3), ()))
        for kind in (STRONG_ONE, STRONG_TWO):
            assert list(_mask_walk(model, kind, 1)) == [((), 0, 0)]

    def test_a_later_stage_reads_its_own_generators(self):
        # once 1 is gone, the injective stage generator of 3 is [2, 3], not
        # the injective [1, 3] of A3, and the projective one of 2 is [2, 2]
        model = model_for(A3)
        got = {parts: (torsion, free) for parts, torsion, free in _mask_walk(model, STRONG_ONE, 0)}
        torsion, free = got[parts({1}, {3}, {2})]
        assert objects_of(model, torsion) == fs((1, 1), (1, 2), (1, 3), (2, 2))
        assert objects_of(model, free) == fs((2, 3), (3, 3))

    @pytest.mark.parametrize(
        "q,kinds,start",
        [
            (linear_an(7), (STRONG_ONE,), 0),
            (subquiver(cyclic_an(8), {1, 2, 3, 5, 6, 7, 8}), (STRONG_ONE, STRONG_TWO), 1),
        ],
    )
    def test_the_walk_yields_one_copy_of_each_vertex_set(self, q, kinds, start):
        # the offers table keeps every part it hands out, so equal parts
        # must be one object
        model = model_for(q)
        for kind in kinds:
            held = {id(part): part for tail, _, _ in _mask_walk(model, kind, start) for part in tail}
            assert len(held) == len(set(held.values())), kind


class TestCounts:
    def test_values(self):
        assert count_torsion_pairs(1) == 2
        assert count_torsion_pairs(2) == 5
        assert count_torsion_pairs(4) == 42

    def test_check_mode(self):
        assert count_torsion_pairs(3, check=True) == 14

    def test_n6_partitions_match_formula_and_oracle(self):
        assert count_torsion_pairs(6, check=True) == 429

    def test_pair_lost_by_the_oracle_is_a_count_mismatch(self, monkeypatch):
        from torsionpairs import oracle

        real = oracle.enumerate_torsion_pairs_bruteforce
        monkeypatch.setattr(oracle, "enumerate_torsion_pairs_bruteforce", lambda n: real(n)[1:])
        with pytest.raises(RuntimeError, match="oracle 13"):
            count_torsion_pairs(3, check=True)


class TestGenerators:
    def test_all_torsion(self):
        t_gen, f_cog = generators(A2, TorsionPair(ALL2, frozenset()))
        assert t_gen == fs((1, 2), (2, 2))
        assert f_cog == frozenset()

    def test_mixed(self):
        t_gen, f_cog = generators(A2, TorsionPair(fs((1, 1)), fs((1, 2), (2, 2))))
        assert t_gen == fs((1, 1))
        assert f_cog == fs((1, 2))

    @pytest.mark.parametrize("q", WALK_QUIVERS, ids=model_id)
    def test_generator_contract(self, q):
        model = model_for(q)
        for tp in enumerate_torsion_pairs(q):
            t_gen, f_cog = generators(q, tp)
            assert len(t_gen) + len(f_cog) == len(q.vertices)
            assert gen_closure(q, t_gen) == tp.torsion
            assert cogen_closure(q, f_cog) == tp.free
            assert t_gen == ext_projectives_in(model, t_gen, tp.torsion)
            assert f_cog == ext_injectives_in(model, f_cog, tp.free)


class TestTiltingCotilting:
    def test_examples(self):
        assert is_tilting_induced(A2, TorsionPair(ALL2, frozenset()))
        assert is_cotilting_induced(A2, TorsionPair(frozenset(), ALL2))
        middle = TorsionPair(fs((2, 2)), fs((1, 1)))
        assert not is_tilting_induced(A2, middle)
        assert not is_cotilting_induced(A2, middle)

    @pytest.mark.parametrize("check,side,kind", [(is_tilting_induced, "left", 2), (is_cotilting_induced, "right", 1)])
    def test_a_peel_whose_stage_zero_misses_an_end_is_a_model_defect(self, monkeypatch, check, side, kind):
        # stage zero of a peeling of the pair with every object on the
        # criterion's side must hold every source (sink); drop one on that
        # side.  The predicate follows the peel, and the induced leg of the
        # tube check, which also reads the definition, calls it a defect
        module = importlib.import_module("torsionpairs.decompose")
        real = module.decompose

        def peel_missing_an_end(q, tp, peel_side="left"):
            result = real(q, tp, peel_side)
            if peel_side != side:
                return result
            ends = q.sources if side == "left" else q.sinks
            p = result.partition
            partition = PartPartition((p.parts[0] - {min(ends)},) + p.parts[1:], p.kind, p.complete)
            return DecompositionResult(partition, result.residual, result.residual_quiver, result.trace)

        monkeypatch.setattr(module, "decompose", peel_missing_an_end)
        q = linear_union((3, 1), (2,))
        everything = frozenset(model_for(q).objects)
        tp = TorsionPair(everything, frozenset()) if side == "left" else TorsionPair(frozenset(), everything)
        assert not check(q, tp)
        with pytest.raises(ClassificationDefectError, match=f"gives no kind {kind} pair$"):
            count_tube_tps(2, check=True)

    @pytest.mark.parametrize(
        "q", [linear_an(n) for n in range(1, 7)] + CYCLE_RESIDUALS + WALK_QUIVERS[-1:], ids=model_id
    )
    def test_each_predicate_is_its_definition(self, q):
        # the predicates read stage zero of a peeling; the definitions read
        # the classes: every injective torsion, every projective free
        for tp in enumerate_torsion_pairs(q):
            assert is_tilting_induced(q, tp) == (tp.torsion >= set(injectives(q)))
            assert is_cotilting_induced(q, tp) == (tp.free >= set(projectives(q)))

    @pytest.mark.parametrize("check", [is_tilting_induced, is_cotilting_induced])
    def test_a_pair_that_is_not_a_torsion_pair_raises(self, check):
        with pytest.raises(ValueError, match="not a torsion pair"):
            check(A3, TorsionPair(fs((1, 1)), fs((2, 2), (3, 3))))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_counts_are_catalan(self, n):
        # tilting-induced pairs biject with tilting modules
        q = linear_an(n)
        import math

        catalan_n = math.comb(2 * n, n) // (n + 1)
        tils = [tp for tp in enumerate_torsion_pairs(q) if is_tilting_induced(q, tp)]
        cotils = [tp for tp in enumerate_torsion_pairs(q) if is_cotilting_induced(q, tp)]
        assert len(tils) == len(cotils) == catalan_n

    @pytest.mark.parametrize("n", [2, 3])
    def test_tilting_chain_is_ntp(self, n):
        # the summands of the inducing tilting module cut the torsion class
        # into an ordered tuple, whichever order the summands are taken in
        from itertools import permutations

        from torsionpairs.torsion import perp_right

        q = linear_an(n)
        model = model_for(q)
        for tp in enumerate_torsion_pairs(q):
            if not is_tilting_induced(q, tp):
                continue
            summands = sorted(ext_projectives_in(model, tp.torsion, tp.torsion))
            assert len(summands) == n
            for order in permutations(summands):
                chain_parts = []
                gen_so_far = frozenset()
                prev_perp = frozenset(model.objects)
                for k in range(n):
                    gen_so_far = gen_closure(q, order[: k + 1])
                    chain_parts.append(gen_so_far & prev_perp)
                    prev_perp = perp_right(model, order[: k + 1])
                assert is_ntp(model, tuple(chain_parts), ambient=tp.torsion)


class TestCatalanRecursion:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pairs_lift_to_cotilting_pairs_one_vertex_up(self, n):
        # the torsion pairs on the n-path are exactly the interval of
        # cotilting-induced pairs on the (n+1)-path, via the lift along the
        # 2-series ((0, all), (subpath modules, projectives)); this is the
        # recursion behind the Catalan count
        from torsionpairs.torsion import (
            TorsionPairSeries,
            interval_bijection_f,
            interval_bijection_g,
            is_torsion_pair,
        )

        big = linear_an(n + 1)
        model = model_for(big)
        everything = frozenset(model.objects)
        subpath = frozenset(X for X in model.objects if X.b <= n)
        lower = TorsionPair(frozenset(), everything)
        upper = TorsionPair(subpath, frozenset(projectives(big)))
        assert is_torsion_pair(model, upper.torsion, upper.free)
        series = TorsionPairSeries((lower, upper))

        lifted = set()
        for tp in enumerate_torsion_pairs(linear_an(n)):
            lift = interval_bijection_f(model, series, tp)
            assert is_cotilting_induced(big, lift)
            assert interval_bijection_g(model, series, lift) == tp
            lifted.add(lift)
        cotilting = {
            tp for tp in enumerate_torsion_pairs(big) if is_cotilting_induced(big, tp)
        }
        assert lifted == cotilting


class TestTraceNtp:
    @pytest.mark.parametrize("q", WALK_QUIVERS, ids=model_id)
    def test_trace_tuples_are_valid(self, q):
        model = model_for(q)
        for tp in enumerate_torsion_pairs(q):
            for side in ("left", "right"):
                ntp = trace_ntp(q, decompose(q, tp, side))
                assert is_ntp(model, ntp.parts), (tp, side)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_projective_correspondence_is_a_bijection(self, n):
        q = linear_an(n)
        for tp in enumerate_torsion_pairs(q):
            ntp = trace_ntp(q, decompose_left(q, tp))
            mapping = projective_correspondence(q, ntp)
            assert len(mapping) == n
            assert len(set(mapping.values())) == n
            targets = {
                (i, X)
                for i in range(1, len(ntp.parts) + 1)
                for X in suffix_ext_projectives(q, ntp, i)
            }
            assert set(mapping.values()) == targets

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_injective_correspondence_is_a_bijection(self, n):
        q = linear_an(n)
        for tp in enumerate_torsion_pairs(q):
            ntp = trace_ntp(q, decompose_left(q, tp))
            mapping = injective_correspondence(q, ntp)
            assert len(set(mapping.values())) == n
            targets = {
                (i, X)
                for i in range(1, len(ntp.parts) + 1)
                for X in prefix_ext_injectives(q, ntp, i)
            }
            assert set(mapping.values()) == targets


class TestStageWalk:
    """The one stage walk, read off the home model's `end_chains`, against
    the support quiver and its model, on every support of every model
    quiver."""

    @pytest.mark.parametrize("q", MODEL_QUIVERS, ids=model_id)
    def test_matches_the_support_model(self, q):
        for k in range(len(q.vertices) + 1):
            for keep in combinations(q.vertices, k):
                support = frozenset(keep)
                sub = subquiver(q, support)
                model = model_for(sub)
                full = model_for(q)
                home = full.index
                for part in (support, frozenset(sorted(support)[::2])):
                    row = _stage_row(full, support, True)
                    assert {v: row[v] for v in part} == {
                        P.a: home[P] for P in model.projectives() if P.a in part
                    }, (support, part)
                    row = _stage_row(full, support, False)
                    assert {v: row[v] for v in part} == {
                        I.b: home[I] for I in model.injectives() if I.b in part
                    }, (support, part)
                assert stage_ends(q, support, True) == sub.sources, support
                assert stage_ends(q, support, False) == sub.sinks, support


@pytest.mark.parametrize("side", ["both", "Left", ""])
def test_decompose_rejects_a_side_it_does_not_peel(side):
    q = linear_an(2)
    with pytest.raises(ValueError, match="^side must be 'left' or 'right'$"):
        decompose(q, enumerate_torsion_pairs(q)[0], side)
