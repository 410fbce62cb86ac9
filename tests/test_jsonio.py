import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionpairs import jsonio
from torsionpairs.decompose import _mask_walk, decompose_left, enumerate_torsion_pairs
from torsionpairs.intervals import Interval, model_for
from torsionpairs.jsonio import CertificateError
from torsionpairs.quiver import STRONG_ONE, PartPartition, cyclic_an, linear_an, subquiver
from torsionpairs.torsion import NTorsionPair, TorsionPair, bit_indices
from torsionpairs.tubepairs import enumerate_tube_tps


class TestPairRecords:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_path_objects_are_in_interval_order(self, n):
        # the fragment table is joined in index order, which must be the
        # (a, b) order certificates list intervals in
        objects = model_for(linear_an(n)).objects
        assert [(X.a, X.b) for X in objects] == sorted((a, b) for b in range(1, n + 1) for a in range(1, b + 1))

    def test_fragments_and_records(self):
        q = subquiver(linear_an(5), {1, 2, 4})
        records = jsonio.PairRecords(q)
        assert records.fragments == ("[1,1]", "[1,2]", "[2,2]", "[4,4]")
        tp = TorsionPair({Interval(2, 2), Interval(4, 4)}, {Interval(1, 1)})
        assert records.record(0b1100, 0b0001) == jsonio.dumps_canonical(jsonio.pair_certificate(q, tp))

    @staticmethod
    def bit_join(records, mask):
        return ",".join(records.fragments[i] for i in bit_indices(mask))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_chunk_join_is_the_bit_join_on_the_walked_classes(self, n):
        q = linear_an(n)
        records = jsonio.PairRecords(q)
        for _, torsion, free in _mask_walk(model_for(q), STRONG_ONE, 0):
            for mask in (torsion, free):
                assert records.join(mask) == self.bit_join(records, mask)

    # 8 and 16 objects: the top bit ends the last chunk exactly
    CHUNK_QUIVERS = [subquiver(linear_an(7), {1, 2, 3, 5, 7}), subquiver(linear_an(7), {1, 2, 3, 4, 5, 7})]

    @pytest.mark.parametrize("q", CHUNK_QUIVERS, ids=["N8", "N16"])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_chunk_join_is_the_bit_join_up_to_the_top_bit(self, q, data):
        records = jsonio.PairRecords(q)
        size = len(records.fragments)
        assert size % 8 == 0
        mask = data.draw(st.integers(min_value=1 << (size - 1), max_value=(1 << size) - 1))
        assert records.join(mask) == self.bit_join(records, mask)
        assert records.join(mask).endswith(records.fragments[-1])


class TestQuiverRoundTrip:
    @pytest.mark.parametrize(
        "q",
        [linear_an(1), linear_an(4), cyclic_an(3), subquiver(linear_an(5), {1, 2, 4})],
    )
    def test_round_trip(self, q):
        obj = jsonio.quiver_to_obj(q)
        again = jsonio.quiver_from_obj(obj)
        assert again.vertices == q.vertices
        assert again.arrows == q.arrows

    def test_linear_shape_payload(self):
        assert jsonio.quiver_to_obj(linear_an(4)) == {"shape": "linearA", "n": 4}

    def test_bad_shape(self):
        with pytest.raises(CertificateError):
            jsonio.quiver_from_obj({"shape": "mystery"})

    @pytest.mark.parametrize("n", [10**18, 10**30])
    @pytest.mark.parametrize("shape", ["linearA", "cyclicA"])
    def test_huge_n_is_a_certificate_error(self, shape, n):
        # 10**18 fits a tuple's size but not memory, 10**30 not even the size
        with pytest.raises(CertificateError, match="bad quiver object"):
            jsonio.quiver_from_obj({"shape": shape, "n": n})


class TestPartitionRoundTrip:
    def test_payload_shape(self):
        S = PartPartition(
            (frozenset(), frozenset({2}), frozenset({1})), STRONG_ONE, complete=True
        )
        obj = jsonio.partition_to_obj(S)
        assert obj == {"parts": [[], [2], [1]], "kind": "strong1", "complete": True}
        assert PartPartition(**obj) == S


class TestStrictIntegers:
    def test_an_integer_is_read_as_itself(self):
        assert jsonio.json_int(7) == 7 and jsonio.json_int(10**30) == 10**30

    @pytest.mark.parametrize("value", [2.5, 3.0, True, False, "2", None, [2]])
    def test_anything_else_is_a_type_error(self, value):
        with pytest.raises(TypeError):
            jsonio.json_int(value)


class TestCertificates:
    def test_pair_round_trip(self):
        q = linear_an(3)
        for tp in enumerate_torsion_pairs(q):
            obj = jsonio.pair_certificate(q, tp)
            assert jsonio.certificate_kind(obj) == "pair"
            q2, tp2 = jsonio.pair_from_obj(obj)
            assert (q2, tp2) == (q, tp)

    def test_sorted_interval_lists(self):
        q = linear_an(2)
        tp = TorsionPair(
            frozenset({Interval(2, 2), Interval(1, 2), Interval(1, 1)}), frozenset()
        )
        obj = jsonio.pair_certificate(q, tp)
        assert obj["torsion"] == [[1, 1], [1, 2], [2, 2]]

    def test_ntp_round_trip(self):
        q = linear_an(2)
        ntp = NTorsionPair(
            (frozenset({Interval(2, 2)}), frozenset({Interval(1, 1)}), frozenset())
        )
        obj = jsonio.ntp_certificate(q, ntp)
        assert jsonio.certificate_kind(obj) == "ntp"
        assert jsonio.ntp_from_obj(obj) == (q, ntp)

    def test_tube_round_trip(self):
        for rank in (1, 2, 3):
            for data in enumerate_tube_tps(rank):
                obj = jsonio.tube_certificate(data)
                assert jsonio.certificate_kind(obj) == "tube"
                again = jsonio.tube_pair_from_obj(obj)
                cap = 2 * rank + 2
                assert again.fingerprint(cap) == data.fingerprint(cap)

    def test_unknown_schema(self):
        with pytest.raises(CertificateError):
            jsonio.certificate_kind({"schema": "torsion/2", "torsion": [], "free": []})

    def test_payload_free_object(self):
        with pytest.raises(CertificateError):
            jsonio.certificate_kind({"schema": "torsion/1"})


class TestTubeObjects:
    def test_tube_certificate_payload(self):
        data = next(d for d in enumerate_tube_tps(2) if d.kind == 1 and d.delta == {1})
        obj = jsonio.tube_certificate(data)
        assert obj == {
            "schema": "torsion/1",
            "rank": 2,
            "kind": 1,
            "delta": [1],
            "residual_partition": [[2]],
        }

    def test_tube_decoder_keeps_the_tail_in_order(self):
        data = [d for d in enumerate_tube_tps(4) if len(d.residual_partition) > 1]
        assert data
        for d in data:
            obj = jsonio.tube_certificate(d)
            tail = tuple(frozenset(p) for p in obj["residual_partition"])
            assert tail == d.residual_partition
            assert jsonio.tube_pair_from_obj(obj).residual_partition == tail


class TestDecompositionPayload:
    def test_fields(self):
        q = linear_an(2)
        tp = TorsionPair(frozenset({Interval(1, 1)}), frozenset({Interval(1, 2), Interval(2, 2)}))
        obj = jsonio.decomposition_to_obj(decompose_left(q, tp))
        assert obj["partition"]["parts"] == [[], [2], [1]]
        assert obj["residual"] == {"torsion": [], "free": []}
        assert [t["side"] for t in obj["trace"]] == ["projective", "injective", "projective"]

    def test_canonical_dump_is_stable(self):
        q = linear_an(3)
        objs = [jsonio.pair_certificate(q, tp) for tp in enumerate_torsion_pairs(q)]
        assert jsonio.dumps_canonical(objs) == jsonio.dumps_canonical(objs)
