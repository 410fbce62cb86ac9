import pytest

from torsionpairs import jsonio
from torsionpairs.decompose import decompose_left, enumerate_torsion_pairs
from torsionpairs.intervals import Interval
from torsionpairs.jsonio import CertificateError
from torsionpairs.quiver import STRONG_ONE, PartPartition, cyclic_an, linear_an, subquiver
from torsionpairs.torsion import NTorsionPair, TorsionPair
from torsionpairs.tube import TubeModule, coray
from torsionpairs.tubepairs import enumerate_tube_tps


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
        assert jsonio.partition_from_obj(obj) == S

    def test_bad_kind(self):
        with pytest.raises(CertificateError):
            jsonio.partition_from_obj({"parts": [[1]], "kind": "weird", "complete": True})

    @pytest.mark.parametrize("complete", ["no", 1, 0, None])
    def test_complete_must_be_a_json_bool(self, complete):
        with pytest.raises(CertificateError):
            jsonio.partition_from_obj({"parts": [[1]], "kind": "strong1", "complete": complete})

    @pytest.mark.parametrize("vertex", [1.0, True, "1"])
    def test_part_vertices_must_be_json_integers(self, vertex):
        with pytest.raises(CertificateError):
            jsonio.partition_from_obj({"parts": [[vertex]], "kind": "strong1", "complete": True})


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
    def test_module_payload(self):
        assert jsonio.tube_module_to_obj(TubeModule(2, 5, 3)) == {"socle": 2, "length": 5}

    def test_descriptor_payload(self):
        desc = coray({1}, 2)
        assert jsonio.descriptor_to_obj(desc) == {
            "kind": "coray+finite",
            "delta": [1],
            "finite": [],
        }

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
