"""Value semantics of the library's immutable record classes.

Every record compares equal only to an instance of its own class with
equal fields, hashes as the tuple of its fields (set iteration order, and
so the printed output, can depend on it), refuses assignment and
deletion, and prints a fixed repr.  `Interval` alone is ordered.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import torsionpairs
from torsionpairs.decompose import DecompositionResult, TraceStage
from torsionpairs.intervals import Interval
from torsionpairs.quiver import LINEAR_UNION, STRONG_ONE, PartPartition, Quiver, linear_an
from torsionpairs.torsion import CheckResult, Filtration, NTorsionPair, TorsionPair, TorsionPairSeries
from torsionpairs.tube import FINITE, CORAY_FINITE, TubeModule, TubeSubcatDescriptor
from torsionpairs.tubepairs import CombinedTorsionPair, TubeTorsionPair

X, Y = Interval(1, 1), Interval(2, 3)
RESIDUAL = Quiver((2, 3), ((2, 3),), LINEAR_UNION)
EMPTY = TorsionPair(frozenset(), frozenset())


def _cases():
    """(make, field names, repr) per class; make() builds a fresh instance."""
    return {
        "Quiver": (
            lambda: Quiver((1, 2, 4), ((1, 2),), LINEAR_UNION),
            ("vertices", "arrows", "shape"),
            "Quiver(linearUnion, components=((1, 2), (4,)))",
        ),
        "PartPartition": (
            lambda: PartPartition((frozenset({2}), frozenset({1, 3})), STRONG_ONE, True),
            ("parts", "kind", "complete"),
            "PartPartition([{2}, {1,3}], strong1)",
        ),
        "Interval": (lambda: Interval(2, 3), ("a", "b"), "[2,3]"),
        "CheckResult": (
            lambda: CheckResult(False, X, "not closed"),
            ("ok", "witness", "reason"),
            "CheckResult(ok=False, witness=[1,1], reason='not closed')",
        ),
        "TorsionPair": (
            lambda: TorsionPair(frozenset({X}), frozenset({Y})),
            ("torsion", "free"),
            "TorsionPair(torsion=frozenset({[1,1]}), free=frozenset({[2,3]}))",
        ),
        "NTorsionPair": (
            lambda: NTorsionPair((frozenset({X}), frozenset())),
            ("parts",),
            "NTorsionPair(parts=(frozenset({[1,1]}), frozenset()))",
        ),
        "TorsionPairSeries": (
            lambda: TorsionPairSeries((EMPTY,)),
            ("pairs",),
            "TorsionPairSeries(pairs=(TorsionPair(torsion=frozenset(), free=frozenset()),))",
        ),
        "Filtration": (
            lambda: Filtration((None, X), (X,)),
            ("chain", "factors"),
            "Filtration(chain=(None, [1,1]), factors=([1,1],))",
        ),
        "TubeModule": (lambda: TubeModule(2, 3, 4), ("socle", "length", "rank"), "U(2,3)"),
        "TubeSubcatDescriptor": (
            lambda: TubeSubcatDescriptor(CORAY_FINITE, 3, frozenset({1}), frozenset({TubeModule(2, 1, 3)})),
            ("kind", "rank", "delta", "finite_part"),
            "TubeSubcatDescriptor(kind='coray+finite', rank=3, delta=frozenset({1}), "
            "finite_part=frozenset({U(2,1)}))",
        ),
        "TubeTorsionPair": (
            lambda: TubeTorsionPair(3, 1, frozenset({1}), RESIDUAL, EMPTY, (frozenset({2, 3}),)),
            ("rank", "kind", "delta", "residual_quiver", "residual_pair", "residual_partition"),
            "TubeTorsionPair(rank=3, kind=1, delta=frozenset({1}), "
            "residual_quiver=Quiver(linearUnion, components=((2, 3),)), "
            "residual_pair=TorsionPair(torsion=frozenset(), free=frozenset()), "
            "residual_partition=(frozenset({2, 3}),))",
        ),
        "CombinedTorsionPair": (
            lambda: CombinedTorsionPair((EMPTY,)),
            ("components",),
            "CombinedTorsionPair(components=(TorsionPair(torsion=frozenset(), free=frozenset()),))",
        ),
        "TraceStage": (
            lambda: TraceStage(0, "projective", frozenset({1}), frozenset({X})),
            ("index", "side", "vertices", "generators"),
            "TraceStage(index=0, side='projective', vertices=frozenset({1}), generators=frozenset({[1,1]}))",
        ),
        "DecompositionResult": (
            lambda: DecompositionResult(
                PartPartition((frozenset(), frozenset({1})), "1", True), EMPTY, RESIDUAL, ()
            ),
            ("partition", "residual", "residual_quiver", "trace"),
            "DecompositionResult(partition=PartPartition([{}, {1}], 1), "
            "residual=TorsionPair(torsion=frozenset(), free=frozenset()), "
            "residual_quiver=Quiver(linearUnion, components=((2, 3),)), trace=())",
        ),
    }


CASES = _cases()


def test_every_record_class_is_covered():
    assert len(CASES) == 14


@pytest.mark.parametrize("name", sorted(CASES))
class TestRecord:
    def test_equality_is_by_class_and_fields(self, name):
        make, fields, _ = CASES[name]
        x, twin = make(), make()
        assert x is not twin
        assert x == twin and not x != twin
        values = tuple(getattr(x, f) for f in fields)
        assert x != values and values != x
        assert x.__eq__(values) is NotImplemented
        assert x != object()

    def test_hash_is_the_hash_of_the_field_tuple(self, name):
        make, fields, _ = CASES[name]
        x = make()
        assert hash(x) == hash(tuple(getattr(x, f) for f in fields))
        assert hash(x) == hash(make())
        assert len({x, make()}) == 1

    def test_fields_cannot_be_set_or_deleted(self, name):
        make, fields, _ = CASES[name]
        x = make()
        for f in fields + ("not_a_field",):
            with pytest.raises(AttributeError):
                setattr(x, f, None)
        for f in fields:
            with pytest.raises(AttributeError):
                delattr(x, f)
        assert x == make()

    def test_repr(self, name):
        make, _, text = CASES[name]
        assert repr(make()) == text

    def test_keyword_construction_matches_positional(self, name):
        make, fields, _ = CASES[name]
        x = make()
        assert type(x)(**{f: getattr(x, f) for f in fields}) == x

    def test_pickle_and_copy_round_trip(self, name):
        make, _, _ = CASES[name]
        x = make()
        for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert twin == x and hash(twin) == hash(x)

    def test_only_intervals_are_ordered(self, name):
        make, _, _ = CASES[name]
        if name == "Interval":
            return
        with pytest.raises(TypeError):
            make() < make()  # noqa: B015
        with pytest.raises(TypeError):
            make() >= make()  # noqa: B015


class TestIntervalOrder:
    def test_sorts_by_ends(self):
        items = [Interval(2, 3), Interval(1, 4), Interval(1, 2), Interval(2, 2)]
        assert sorted(items) == [Interval(1, 2), Interval(1, 4), Interval(2, 2), Interval(2, 3)]

    def test_comparisons(self):
        assert Interval(1, 2) < Interval(1, 3) <= Interval(1, 3) < Interval(2, 1)
        assert Interval(2, 1) > Interval(1, 3) >= Interval(1, 3)
        assert not Interval(1, 3) < Interval(1, 3)

    def test_refuses_tuples(self):
        with pytest.raises(TypeError):
            Interval(1, 2) < (1, 3)  # noqa: B015
        assert Interval(1, 2).__lt__((1, 3)) is NotImplemented


class TestDefaults:
    def test_check_result(self):
        assert CheckResult(True) == CheckResult(ok=True, witness=None, reason="")
        assert bool(CheckResult(True)) and not CheckResult(False)

    def test_tube_descriptor(self):
        d = TubeSubcatDescriptor(FINITE, 3)
        assert d.delta == frozenset() and d.finite_part == frozenset()
        assert d == TubeSubcatDescriptor(kind=FINITE, rank=3, delta=frozenset(), finite_part=frozenset())


class TestNormalisation:
    def test_part_partition_coerces_parts(self):
        p = PartPartition([[1], {2, 3}], "1", complete=False)
        assert p.parts == (frozenset({1}), frozenset({2, 3}))
        assert type(p.parts) is tuple and all(type(part) is frozenset for part in p.parts)
        with pytest.raises(ValueError, match="unknown partition kind"):
            PartPartition((), "3", True)

    def test_torsion_pair_coerces_classes(self):
        tp = TorsionPair([X], {Y})
        assert type(tp.torsion) is frozenset and type(tp.free) is frozenset
        assert tp == TorsionPair(frozenset({X}), frozenset({Y}))

    def test_ntp_coerces_parts_and_needs_one(self):
        ntp = NTorsionPair([[X], set()])
        assert ntp.parts == (frozenset({X}), frozenset())
        assert type(ntp.parts) is tuple
        with pytest.raises(ValueError, match="at least one part"):
            NTorsionPair(())

    def test_series_coerces_and_checks_nesting(self):
        big = TorsionPair({X}, set())
        assert TorsionPairSeries([EMPTY, big]).pairs == (EMPTY, big)
        with pytest.raises(ValueError, match="at least one pair"):
            TorsionPairSeries([])
        with pytest.raises(ValueError, match="must be nested"):
            TorsionPairSeries([big, EMPTY])

    def test_tube_module_checks(self):
        with pytest.raises(ValueError, match="rank must be positive"):
            TubeModule(1, 1, 0)
        with pytest.raises(ValueError, match="socle vertex out of range"):
            TubeModule(4, 1, 3)
        with pytest.raises(ValueError, match="length must be positive"):
            TubeModule(1, 0, 3)

    def test_tube_descriptor_coerces_and_checks(self):
        d = TubeSubcatDescriptor(CORAY_FINITE, 3, [1, 2], [TubeModule(1, 2, 3)])
        assert type(d.delta) is frozenset and type(d.finite_part) is frozenset
        with pytest.raises(ValueError, match="unknown descriptor kind"):
            TubeSubcatDescriptor("infinite", 3)
        with pytest.raises(ValueError, match="outside 1..rank"):
            TubeSubcatDescriptor(CORAY_FINITE, 3, {4})
        with pytest.raises(ValueError, match="another rank"):
            TubeSubcatDescriptor(FINITE, 3, (), {TubeModule(1, 1, 2)})
        with pytest.raises(ValueError, match="carries no delta"):
            TubeSubcatDescriptor(FINITE, 3, {1})

    def test_tube_torsion_pair_checks(self):
        with pytest.raises(ValueError, match="kind must be 1 or 2"):
            TubeTorsionPair(3, 3, frozenset({1}), RESIDUAL, EMPTY, ())
        with pytest.raises(ValueError, match="delta must be nonempty"):
            TubeTorsionPair(3, 1, frozenset(), RESIDUAL, EMPTY, ())

    def test_quiver_checks(self):
        with pytest.raises(ValueError, match="unknown quiver shape"):
            Quiver((1,), (), "tree")
        with pytest.raises(ValueError, match="duplicate vertex labels"):
            Quiver((1, 1), (), LINEAR_UNION)
        assert linear_an(3) == Quiver(vertices=(1, 2, 3), arrows=((1, 2), (2, 3)), shape="linearA")


def test_a_quiver_pickled_in_another_process_hashes_as_here():
    # str hashes differ between processes, so a stored hash must not travel
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = str(Path(torsionpairs.__file__).resolve().parent.parent)
    code = (
        "import pickle, sys\n"
        "from torsionpairs.quiver import LINEAR_UNION, Quiver\n"
        "sys.stdout.buffer.write(pickle.dumps(Quiver((1, 2, 4), ((1, 2),), LINEAR_UNION)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, check=True, timeout=60,
        env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
    )
    q = pickle.loads(proc.stdout)
    here = Quiver((1, 2, 4), ((1, 2),), LINEAR_UNION)
    assert q == here and hash(q) == hash(here)
    assert {here: "found"}.get(q) == "found"
