import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import series_up_to
from torsionpairs.decompose import enumerate_torsion_pairs
from torsionpairs.intervals import Interval, model_for
from torsionpairs.quiver import linear_an
from torsionpairs.torsion import (
    NTorsionPair,
    TorsionPair,
    TorsionPairSeries,
    bit_indices,
    bit_order,
    complete_defect,
    decompose_along,
    ext_injectives_in,
    ext_projectives_in,
    extension_closure,
    filtration,
    interval_bijection_f,
    interval_bijection_g,
    is_ntp,
    is_torsion_pair,
    merge_parts,
    ntp_to_series,
    perp_left,
    perp_right,
    refine,
    series_to_ntp,
    torsion_submodule,
)

A2 = linear_an(2)
A3 = linear_an(3)
M2 = model_for(A2)
M3 = model_for(A3)


def iv(a, b):
    return Interval(a, b)


def fs(*pairs):
    return frozenset(iv(a, b) for a, b in pairs)


ALL2 = frozenset(M2.objects)
ALL3 = frozenset(M3.objects)


class TestPerp:
    def test_perp_right_example(self):
        assert perp_right(M2, fs((1, 1))) == fs((1, 2), (2, 2))

    def test_perp_left_empty(self):
        assert perp_left(M2, frozenset()) == ALL2

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_triple_perp_idempotence_exhaustive(self, n):
        model = model_for(linear_an(n))
        objs = list(model.objects)
        for mask in range(2 ** len(objs)):
            D = frozenset(o for i, o in enumerate(objs) if mask >> i & 1)
            left = perp_left(model, D)
            assert perp_left(model, perp_right(model, left)) == left
            right = perp_right(model, D)
            assert perp_right(model, perp_left(model, right)) == right


class TestTorsionPairCheck:
    def test_valid(self):
        assert is_torsion_pair(M2, fs((2, 2)), fs((1, 1)))

    def test_invalid_with_witness(self):
        check = is_torsion_pair(M2, fs((1, 1)), fs((2, 2)))
        assert not check
        assert check.witness == iv(1, 2)

    def test_everything_torsion(self):
        assert is_torsion_pair(M2, ALL2, frozenset())

    def test_torsion_submodule(self):
        assert torsion_submodule(M2, fs((2, 2)), iv(1, 2)) == iv(2, 2)
        assert torsion_submodule(M2, frozenset(), iv(1, 2)) is None
        assert torsion_submodule(M2, ALL2, iv(1, 2)) == iv(1, 2)

    def test_perp_characterization_of_enumerated_pairs(self):
        for q in (A2, A3):
            model = model_for(q)
            for tp in enumerate_torsion_pairs(q):
                assert tp.free == perp_right(model, tp.torsion)
                assert tp.torsion == perp_left(model, tp.free)


class TestSeriesNtp:
    def test_alpha_example(self):
        series = TorsionPairSeries(
            (TorsionPair(fs((2, 2)), fs((1, 1))), TorsionPair(ALL2, frozenset()))
        )
        ntp = series_to_ntp(series)
        assert ntp.parts == (fs((2, 2)), fs((1, 1)), frozenset())

    def test_alpha_single_pair(self):
        series = TorsionPairSeries((TorsionPair(fs((2, 2)), fs((1, 1))),))
        assert series_to_ntp(series).parts == (fs((2, 2)), fs((1, 1)))

    def test_beta_example(self):
        ntp = NTorsionPair((fs((2, 2)), fs((1, 1)), frozenset()))
        series = ntp_to_series(M2, ntp)
        assert series.pairs[0] == TorsionPair(fs((2, 2)), fs((1, 1)))
        assert series.pairs[1] == TorsionPair(ALL2, frozenset())

    def test_nesting_enforced(self):
        with pytest.raises(ValueError):
            TorsionPairSeries(
                (TorsionPair(ALL2, frozenset()), TorsionPair(fs((2, 2)), fs((1, 1))))
            )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_round_trips(self, n):
        q = linear_an(n)
        model = model_for(q)
        for series in series_up_to(q, 3):
            ntp = series_to_ntp(series)
            assert ntp_to_series(model, ntp) == series
            assert series_to_ntp(ntp_to_series(model, ntp)) == ntp


class TestIsNtp:
    def test_valid_triple(self):
        assert is_ntp(M2, (fs((2, 2)), fs((1, 1)), frozenset()))

    def test_invalid_pair(self):
        check = is_ntp(M2, (fs((1, 1)), fs((2, 2))))
        assert not check

    def test_whole_category(self):
        assert is_ntp(M2, (ALL2,))

    def test_duplicated_member_fails(self):
        assert not is_ntp(M2, (fs((2, 2)), fs((2, 2)), frozenset()))


class TestFiltration:
    def test_example(self):
        ntp = NTorsionPair((fs((2, 2)), fs((1, 1)), frozenset()))
        filt = filtration(M2, ntp, iv(1, 2))
        assert filt.chain == (None, iv(2, 2), iv(1, 2), iv(1, 2))
        assert filt.factors == (iv(2, 2), iv(1, 1), None)

    def test_member_of_first_part(self):
        ntp = NTorsionPair((fs((2, 2)), fs((1, 1)), frozenset()))
        filt = filtration(M2, ntp, iv(2, 2))
        assert filt.nonzero_factors() == ((1, iv(2, 2)),)

    def test_trivial_tuple(self):
        ntp = NTorsionPair((ALL2,))
        filt = filtration(M2, ntp, iv(1, 2))
        assert filt.factors == (iv(1, 2),)

    @pytest.mark.parametrize("n", [2, 3])
    def test_factors_in_order_for_all_series_ntps(self, n):
        q = linear_an(n)
        model = model_for(q)
        for series in series_up_to(q, 3):
            ntp = series_to_ntp(series)
            for X in model.objects:
                filt = filtration(model, ntp, X)
                for i, factor in filt.nonzero_factors():
                    assert factor in ntp.parts[i - 1]


class TestDecomposeAlong:
    def test_example(self):
        tp = TorsionPair(fs((2, 2)), fs((1, 1)))
        assert decompose_along(M2, tp, fs((1, 2))) == (fs((2, 2)), fs((1, 1)))

    def test_empty(self):
        tp = TorsionPair(fs((2, 2)), fs((1, 1)))
        assert decompose_along(M2, tp, frozenset()) == (frozenset(), frozenset())

    def test_middle_intersection_of_series(self):
        # F_1 & T_2 arises both as the torsion-free parts of T_2 along the
        # first pair and as the torsion parts of F_1 along the second
        for series in series_up_to(A3, 2):
            if len(series.pairs) != 2:
                continue
            first, second = series.pairs
            _, d2 = decompose_along(M3, first, second.torsion)
            assert d2 == first.free & second.torsion
            d1, _ = decompose_along(M3, second, first.free)
            assert d1 == first.free & second.torsion


class TestRefineMerge:
    def test_refine_trivial(self):
        ntp = NTorsionPair((fs((2, 2)), fs((1, 1)), frozenset()))
        same = refine(M2, ntp, 1, NTorsionPair((fs((2, 2)),)))
        assert same == ntp

    def test_refine_whole_category(self):
        ntp = NTorsionPair((ALL2,))
        fine = NTorsionPair((fs((2, 2)), fs((1, 1)), frozenset()))
        assert refine(M2, ntp, 1, fine) == fine

    def test_refine_ambient_mismatch(self):
        ntp = NTorsionPair((fs((2, 2)), fs((1, 1)), frozenset()))
        with pytest.raises(ValueError):
            refine(M2, ntp, 1, NTorsionPair((fs((1, 1)),)))

    def test_merge_example(self):
        ntp = NTorsionPair((fs((2, 2)), fs((1, 1)), frozenset()))
        merged = merge_parts(M2, ntp, 1, 1)
        assert merged.parts == (ALL2, frozenset())

    def test_merge_single_part_identity(self):
        ntp = NTorsionPair((fs((2, 2)), fs((1, 1)), frozenset()))
        assert merge_parts(M2, ntp, 2, 0) == ntp

    def test_merge_all(self):
        ntp = NTorsionPair((fs((2, 2)), fs((1, 1)), frozenset()))
        assert merge_parts(M2, ntp, 1, 2).parts == (ALL2,)

    def test_merge_bad_range(self):
        ntp = NTorsionPair((fs((2, 2)), fs((1, 1))))
        with pytest.raises(ValueError):
            merge_parts(M2, ntp, 2, 1)

    def test_every_valid_splice_passes(self):
        # splicing any torsion pair living on a part into its slot gives a
        # valid longer tuple
        for series in series_up_to(A3, 2):
            ntp = series_to_ntp(series)
            for index, part in enumerate(ntp.parts, start=1):
                if not part:
                    continue
                for inner in _all_pairs_on(M3, part):
                    sub = NTorsionPair((inner.torsion, inner.free))
                    spliced = refine(M3, ntp, index, sub)
                    assert len(spliced.parts) == len(ntp.parts) + 1
                    assert is_ntp(M3, spliced.parts)

    def test_merged_tuples_stay_valid(self):
        for series in series_up_to(A3, 3):
            ntp = series_to_ntp(series)
            k = len(ntp.parts)
            for i in range(1, k):
                assert is_ntp(M3, merge_parts(M3, ntp, i, 1).parts)

    def test_inner_windows_are_tuples_on_their_span(self):
        for series in series_up_to(A3, 2):
            ntp = series_to_ntp(series)
            parts = ntp.parts
            for i in range(len(parts)):
                for j in range(i + 1, len(parts) + 1):
                    span = extension_closure(M3, frozenset().union(*parts[i:j]))
                    assert is_ntp(M3, parts[i:j], ambient=span)


class TestCompleteDefect:
    def test_already_complete(self):
        ntp = NTorsionPair((fs((2, 2)), fs((1, 1)), frozenset()))
        assert complete_defect(M2, ntp.parts) == ntp

    def test_enlargement_example(self):
        got = complete_defect(M2, (fs((2, 2)), frozenset(), frozenset()))
        assert got.parts == (fs((2, 2)), frozenset(), fs((1, 1)))

    def test_bad_parts_rejected(self):
        with pytest.raises(ValueError):
            complete_defect(M2, (fs((1, 2)), frozenset()))

    def _three_part_ntps(self, q, model):
        return {series_to_ntp(s).parts for s in series_up_to(q, 2) if len(s.pairs) == 2}

    def test_canonical_completion_among_enlargements(self):
        # ({S_2}, 0, 0) is not a genuine defect tuple (its suffix closures do
        # not pair), so several enlargements exist; the canonical one is the
        # perpendicular-based completion
        base = (fs((2, 2)), frozenset(), frozenset())
        completion = complete_defect(M2, base).parts
        assert completion == (fs((2, 2)), frozenset(), fs((1, 1)))
        containing = {
            parts
            for parts in self._three_part_ntps(A2, M2)
            if all(b <= p for b, p in zip(base, parts))
        }
        assert completion in containing
        assert len(containing) == 3  # uniqueness genuinely fails here

    def test_uniqueness_on_genuine_defect_input(self):
        # the simples generate everything, so the prefix and suffix closures
        # both pair up and the enlargement is unique
        base = (frozenset(), fs((1, 1), (2, 2), (3, 3)), frozenset())
        completion = complete_defect(M3, base).parts
        assert completion == (frozenset(), ALL3, frozenset())
        containing = {
            parts
            for parts in self._three_part_ntps(A3, M3)
            if all(b <= p for b, p in zip(base, parts))
        }
        assert containing == {completion}


def _all_pairs_on(model, ambient):
    objs = sorted(ambient, key=repr)
    out = []
    for mask in range(2 ** len(objs)):
        T = frozenset(o for i, o in enumerate(objs) if mask >> i & 1)
        F = frozenset(Y for Y in ambient if all(model.hom(X, Y) == 0 for X in T))
        if is_torsion_pair(model, T, F, ambient=ambient):
            out.append(TorsionPair(T, F))
    return out


class TestIntervalBijection:
    def test_top_and_bottom_of_interval(self):
        series = TorsionPairSeries(
            (TorsionPair(fs((2, 2)), fs((1, 1))), TorsionPair(ALL2, frozenset()))
        )
        mid = series.pairs[0].free & series.pairs[1].torsion
        top = interval_bijection_f(M2, series, TorsionPair(mid, frozenset()))
        assert top == series.pairs[1]
        bottom = interval_bijection_f(M2, series, TorsionPair(frozenset(), mid))
        assert bottom == series.pairs[0]

    def test_g_after_f_is_identity_exhaustively(self):
        for series in series_up_to(A3, 2):
            if len(series.pairs) != 2:
                continue
            mid = series.pairs[0].free & series.pairs[1].torsion
            for inner in _all_pairs_on(M3, mid):
                lifted = interval_bijection_f(M3, series, inner)
                assert is_torsion_pair(M3, lifted.torsion, lifted.free)
                assert interval_bijection_g(M3, series, lifted) == inner

    def test_f_after_g_is_identity_exhaustively(self):
        pairs = enumerate_torsion_pairs(A3)
        for series in series_up_to(A3, 2):
            if len(series.pairs) != 2:
                continue
            t1, t2 = series.pairs[0].torsion, series.pairs[1].torsion
            for tp in pairs:
                if t1 <= tp.torsion <= t2:
                    inner = interval_bijection_g(M3, series, tp)
                    assert interval_bijection_f(M3, series, inner) == tp

    def test_nesting_violation_rejected(self):
        series = TorsionPairSeries(
            (TorsionPair(fs((2, 2)), fs((1, 1))), TorsionPair(fs((2, 2)), fs((1, 1))))
        )
        with pytest.raises(ValueError):
            interval_bijection_g(M2, series, TorsionPair(ALL2, frozenset()))


class TestExtProjectives:
    def test_examples(self):
        assert ext_projectives_in(M2, ALL2, ALL2) == fs((1, 2), (2, 2))
        assert ext_injectives_in(M2, ALL2, ALL2) == fs((1, 1), (1, 2))
        assert ext_projectives_in(M2, frozenset(), ALL2) == frozenset()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_part_counts_sum_to_n(self, n):
        # summed over parts, the Ext-projectives of the suffix closures
        # lying in each part biject with the projectives
        q = linear_an(n)
        model = model_for(q)
        for series in series_up_to(q, 3):
            ntp = series_to_ntp(series)
            total_p = 0
            total_i = 0
            for i in range(len(ntp.parts)):
                suffix = extension_closure(model, frozenset().union(*ntp.parts[i:]))
                total_p += len(ext_projectives_in(model, ntp.parts[i], suffix))
                prefix = extension_closure(model, frozenset().union(*ntp.parts[: i + 1]))
                total_i += len(ext_injectives_in(model, ntp.parts[i], prefix))
            assert total_p == n
            assert total_i == n


class TestPerpendicularIdentities:
    def test_window_closure_is_double_perp(self):
        # closure of parts i+1..i+k equals ambient & prefix-perp & suffix-perp
        for series in series_up_to(A3, 2):
            ntp = series_to_ntp(series)
            parts = ntp.parts
            for i in range(len(parts)):
                for j in range(i + 1, len(parts) + 1):
                    window = extension_closure(M3, frozenset().union(*parts[i:j]))
                    prefix = frozenset().union(*parts[:i])
                    suffix = frozenset().union(*parts[j:])
                    expected = perp_right(M3, prefix) & perp_left(M3, suffix)
                    assert window == expected

    def test_intersections_generate_windows(self):
        # F_i & T_j is generated by the one-step intersections between them
        for series in series_up_to(A3, 3):
            pairs = series.pairs
            for i in range(len(pairs)):
                for j in range(i + 1, len(pairs)):
                    target = pairs[i].free & pairs[j].torsion
                    steps = [
                        pairs[k].free & pairs[k + 1].torsion for k in range(i, j)
                    ]
                    got = extension_closure(M3, frozenset().union(*steps))
                    assert got == target

    def test_perp_fixpoint_pairs_verify(self):
        # every subset with T = perp(perp(T)) forms a torsion pair with its perp
        objs = list(M3.objects)
        for mask in range(2 ** len(objs)):
            T = frozenset(o for i, o in enumerate(objs) if mask >> i & 1)
            F = perp_right(M3, T)
            if perp_left(M3, F) == T:
                assert is_torsion_pair(M3, T, F)
                assert is_ntp(M3, (T, F))


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=50, deadline=None)
def test_random_subset_triple_perp(n, data):
    model = model_for(linear_an(n))
    D = frozenset(data.draw(st.sets(st.sampled_from(model.objects))))
    left = perp_left(model, D)
    assert perp_left(model, perp_right(model, left)) == left


SHUFFLED2 = NTorsionPair((fs((1, 1)), fs((2, 2)), frozenset()))  # [1,2] has no filtration in this order
ONE_PAIR = TorsionPairSeries((TorsionPair(fs((2, 2)), fs((1, 1))),))
UP_TO_22 = TorsionPairSeries((TorsionPair(frozenset(), ALL2), TorsionPair(fs((2, 2)), fs((1, 1)))))


@pytest.mark.parametrize("make,message", [
    pytest.param(lambda: ntp_to_series(M2, NTorsionPair((ALL2,))), "a one-part tuple has an empty series",
                 id="series-of-one-part"),
    pytest.param(lambda: ntp_to_series(M2, NTorsionPair((fs((2, 2)), fs((1, 1)), frozenset())), fs((2, 2))),
                 "not an n-torsion pair: a part leaves the ambient subcategory", id="series-off-the-ambient"),
    pytest.param(lambda: refine(M2, NTorsionPair((ALL2,)), 2, NTorsionPair((ALL2,))), "part index out of range",
                 id="refine-index"),
    pytest.param(lambda: refine(M2, NTorsionPair((ALL2,)), 1, NTorsionPair((fs((1, 1)), fs((2, 2)), fs((1, 2))))),
                 "refinement is not an n-torsion pair on the part: ", id="refine-bad-refinement"),
    pytest.param(lambda: refine(M2, SHUFFLED2, 1, NTorsionPair((fs((1, 1)),))), "spliced tuple fails: ",
                 id="refine-bad-splice"),
    pytest.param(lambda: complete_defect(M2, [fs((1, 2)), fs((1, 1))]), "parts are not orthogonal at ([1,2],[1,1])",
                 id="defect-not-orthogonal"),
    pytest.param(lambda: interval_bijection_f(M2, ONE_PAIR, TorsionPair(ALL2, frozenset())),
                 "a 2-series is required", id="f-one-pair"),
    pytest.param(lambda: interval_bijection_f(M2, UP_TO_22, TorsionPair(fs((1, 1)), frozenset())),
                 "inner pair does not live on F_1 & T_2", id="f-off-the-interval"),
    pytest.param(lambda: interval_bijection_f(M2, UP_TO_22, TorsionPair(frozenset(), frozenset())),
                 "inner pair fails on the interval: ", id="f-not-a-pair"),
    pytest.param(lambda: interval_bijection_g(M2, ONE_PAIR, TorsionPair(ALL2, frozenset())),
                 "a 2-series is required", id="g-one-pair"),
])
def test_bad_tuples_and_series_are_rejected(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        make()


@given(st.lists(st.integers(min_value=1, max_value=(1 << 70) - 1), min_size=1, max_size=6))
def test_bit_order_compares_masks_as_their_bit_lists(drawn):
    masks = [0]
    for m in drawn:
        # m; its bit list less the last entry, a prefix of m's; and two masks of m's bit count
        masks += [m, m & ~(1 << m.bit_length() - 1), m << 1, m << m.bit_length()]
    for a in masks:
        for b in masks:
            assert (bit_order(a) < bit_order(b)) == (bit_indices(a) < bit_indices(b)), (a, b)
            assert (bit_order(a) == bit_order(b)) == (a == b), (a, b)
