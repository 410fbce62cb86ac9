import contextlib
import errno
import functools
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_golden import CERTIFICATES as GOLDEN_CERTIFICATES
import torsionpairs
from torsionpairs import cli, jsonio, tube, tubepairs
from torsionpairs.cli import main
from torsionpairs.decompose import enumerate_torsion_pairs
from torsionpairs.intervals import model_for
from torsionpairs.quiver import linear_an
from torsionpairs.torsion import TorsionPair
from torsionpairs.tubepairs import enumerate_tube_tps


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_cert(tmp_path, obj, name="cert.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def a2_certificates():
    q = linear_an(2)
    return [jsonio.pair_certificate(q, tp) for tp in enumerate_torsion_pairs(q)]


class TestEnumerate:
    def test_an_two_gives_five_records(self, capsys):
        code, out = run(capsys, "enumerate", "--an", "2", "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert len(records) == 5
        assert all(r["schema"] == "torsion/1" for r in records)

    def test_tube_one_gives_two_records(self, capsys):
        code, out = run(capsys, "enumerate", "--tube", "1")
        assert code == 0
        assert len(json.loads(out)) == 2

    def test_an_zero_is_usage_error(self, capsys):
        code, _ = run(capsys, "enumerate", "--an", "0")
        assert code == 2

    def test_missing_target_is_usage_error(self, capsys):
        code, _ = run(capsys, "enumerate")
        assert code == 2

    def test_deterministic_output(self, capsys):
        _, first = run(capsys, "enumerate", "--an", "3")
        _, second = run(capsys, "enumerate", "--an", "3")
        assert first == second

    def test_text_format(self, capsys):
        code, out = run(capsys, "enumerate", "--an", "1", "--format", "text")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("0: ")

    def test_an_holds_at_most_one_earlier_pair(self, monkeypatch, capsys):
        # the pairs come one at a time as class masks, each encoded before
        # the next is built, and no pair of objects is assembled
        events = []
        real_walk, real_record = cli._mask_walk, jsonio.PairRecords.record

        def walk(model, kind, start):
            for pair in real_walk(model, kind, start):
                events.append("built")
                yield pair

        def record(self, torsion, free):
            events.append("encoded")
            return real_record(self, torsion, free)

        def refuse(*args, **kwargs):
            raise AssertionError("assembled a pair of objects")

        monkeypatch.setattr(cli, "_mask_walk", walk)
        monkeypatch.setattr(jsonio.PairRecords, "record", record)
        monkeypatch.setattr(importlib.import_module("torsionpairs.decompose"), "assemble", refuse)
        code, _ = run(capsys, "enumerate", "--an", "6")
        assert code == 0
        assert events == ["built", "encoded"] * 429

    @pytest.mark.parametrize("n,pairs", [(5, 132), (6, 429)])
    def test_an_checks_each_pair_once_on_the_way(self, capsys, count_calls, n, pairs):
        # the route trusts the mask walk: no pair is checked, turned into
        # objects or closed, and no partition is built; the walk yields only
        # valid partitions and the stage generators' quotients and submodules
        # already make up the classes, which tests/test_decompose.py checks
        counts = count_calls(
            "decompose.assemble", "quiver.validate_partition", "quiver.subquiver",
            "torsion.is_torsion_pair", "torsion._closure_mask", "intervals.extension_closure",
            "quiver.enumerate_partitions",
        )
        code, out = run(capsys, "enumerate", "--an", str(n))
        assert code == 0 and len(json.loads(out)) == pairs
        assert counts == {
            "decompose.assemble": 0, "quiver.validate_partition": 0,
            "quiver.subquiver": 0, "torsion.is_torsion_pair": 0,
            "torsion._closure_mask": 0, "intervals.extension_closure": 0,
            "quiver.enumerate_partitions": 0,
        }

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_an_prints_the_certificates_of_the_pairs(self, capsys, n, fmt):
        # the records joined from the fragment table are the canonical
        # certificates of the pairs, in enumeration order
        q = linear_an(n)
        texts = [jsonio.dumps_canonical(jsonio.pair_certificate(q, tp)) for tp in enumerate_torsion_pairs(q)]
        want = "[" + ",".join(texts) + "]" if fmt == "json" else "\n".join(f"{i}: {t}" for i, t in enumerate(texts))
        argv = ("enumerate", "--an", str(n), "--max-n", str(n), "--format", fmt)
        assert run(capsys, *argv) == (0, want + "\n")

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_output_is_written_as_it_is_made(self, tmp_path, fmt):
        # the run holds a record at a time, not the 4.5 MB of output
        target = tmp_path / "pairs"
        tracemalloc.start()
        try:
            code = main(["enumerate", "--an", "9", "--max-n", "9", "--format", fmt, "--out", str(target)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = target.stat().st_size
        assert code == 0 and size > 4_000_000
        assert peak < size / 2, (peak, size)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_tube_output_is_written_as_it_is_made(self, tmp_path, fmt):
        # the run holds one (kind, delta) group's walk, not the 12870 pairs
        # (holding them took over 30 MB)
        target = tmp_path / "pairs"
        tracemalloc.start()
        try:
            code = main(["enumerate", "--tube", "8", "--max-n", "8", "--format", fmt, "--out", str(target)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with open(target, "rb") as handle:
            lines = sum(1 for _ in handle)
        assert code == 0 and lines == (1 if fmt == "json" else 12870)
        assert peak < 4_000_000, peak


class TestVerify:
    def test_all_enumerated_pairs_verify(self, tmp_path, capsys):
        for i, cert in enumerate(a2_certificates()):
            path = write_cert(tmp_path, cert, f"c{i}.json")
            code, out = run(capsys, "verify", path)
            assert code == 0
            assert "PASS" in out

    def test_bad_pair_fails_with_witness(self, tmp_path, capsys):
        cert = {
            "schema": "torsion/1",
            "category": {"shape": "linearA", "n": 2},
            "torsion": [[1, 1]],
            "free": [[2, 2]],
        }
        code, out = run(capsys, "verify", write_cert(tmp_path, cert))
        assert code == 1
        assert "[1,2]" in out

    def test_malformed_json_is_exit_3(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["verify", str(path)]) == 3

    def test_wrong_schema_is_exit_3(self, tmp_path, capsys):
        path = write_cert(tmp_path, {"schema": "other", "torsion": [], "free": []})
        assert main(["verify", path]) == 3

    def test_shuffled_ntp_fails(self, tmp_path, capsys):
        cert = {
            "schema": "torsion/1",
            "category": {"shape": "linearA", "n": 2},
            "parts": [[[1, 1]], [[2, 2]], []],
        }
        code, out = run(capsys, "verify", write_cert(tmp_path, cert))
        assert code == 1

    def test_valid_ntp(self, tmp_path, capsys):
        cert = {
            "schema": "torsion/1",
            "category": {"shape": "linearA", "n": 2},
            "parts": [[[2, 2]], [[1, 1]], []],
        }
        code, out = run(capsys, "verify", write_cert(tmp_path, cert))
        assert code == 0

    def test_tube_certificate(self, tmp_path, capsys):
        cert = {
            "schema": "torsion/1",
            "rank": 2,
            "kind": 1,
            "delta": [1],
            "residual_partition": [[2]],
        }
        code, out = run(capsys, "verify", write_cert(tmp_path, cert))
        assert code == 0

    def test_enumerated_tube_records_verify(self, tmp_path, capsys):
        _, listing = run(capsys, "enumerate", "--tube", "2")
        for i, record in enumerate(json.loads(listing)):
            path = write_cert(tmp_path, record, f"t{i}.json")
            code, out = run(capsys, "verify", path)
            assert code == 0, record

    def test_bad_tube_certificate(self, tmp_path, capsys):
        cert = {
            "schema": "torsion/1",
            "rank": 2,
            "kind": 1,
            "delta": [],
            "residual_partition": [[1], [2]],
        }
        assert main(["verify", write_cert(tmp_path, cert)]) == 3

    def test_cap_bound_is_exit_4(self, tmp_path, capsys):
        cert = {
            "schema": "torsion/1",
            "rank": 1,
            "kind": 1,
            "delta": [1],
            "residual_partition": [],
        }
        path = write_cert(tmp_path, cert)
        assert main(["verify", path, "--cap", "9"]) == 4
        assert main(["verify", path, "--cap", "9", "--max-cap", "9"]) == 0


class TestDecompose:
    def test_whole_category(self, tmp_path, capsys):
        cert = {
            "schema": "torsion/1",
            "category": {"shape": "linearA", "n": 2},
            "torsion": [[1, 1], [1, 2], [2, 2]],
            "free": [],
        }
        code, out = run(capsys, "decompose", write_cert(tmp_path, cert))
        assert code == 0
        payload = json.loads(out)
        assert payload["partition"]["parts"] == [[1, 2]]

    def test_both_sides_report_agreement(self, tmp_path, capsys):
        q = linear_an(3)
        for i, tp in enumerate(enumerate_torsion_pairs(q)):
            cert = jsonio.pair_certificate(q, tp)
            path = write_cert(tmp_path, cert, f"d{i}.json")
            code, out = run(capsys, "decompose", path, "--side", "both")
            assert code == 0
            assert json.loads(out)["residuals_agree"] is True

    def test_malformed_is_exit_3(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("]")
        assert main(["decompose", str(path)]) == 3

    def test_invalid_pair_is_exit_3(self, tmp_path, capsys):
        cert = {
            "schema": "torsion/1",
            "category": {"shape": "linearA", "n": 2},
            "torsion": [[1, 1]],
            "free": [[2, 2]],
        }
        assert main(["decompose", write_cert(tmp_path, cert)]) == 3

    @pytest.mark.parametrize("side,calls", [("left", 1), ("right", 1), ("both", 2)])
    def test_each_peel_checks_the_pair_once(self, tmp_path, capsys, count_calls, side, calls):
        # no check of the command's own: each peel checks its input
        q = linear_an(4)
        path = write_cert(tmp_path, jsonio.pair_certificate(q, enumerate_torsion_pairs(q)[5]))
        counts = count_calls("torsion.is_torsion_pair", "decompose.decompose")
        code, _ = run(capsys, "decompose", path, "--side", side)
        assert code == 0
        assert counts == {"torsion.is_torsion_pair": calls, "decompose.decompose": calls}

    @pytest.mark.parametrize("side", ["left", "both"])
    def test_no_torsion_pair_stops_at_the_first_peel(self, tmp_path, capsys, count_calls, side):
        cert = {
            "schema": "torsion/1",
            "category": {"shape": "linearA", "n": 3},
            "torsion": [[1, 1]],
            "free": [[2, 2], [3, 3]],
        }
        counts = count_calls("torsion.is_torsion_pair")
        code = main(["decompose", write_cert(tmp_path, cert), "--side", side])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.startswith("certificate error: not a torsion pair:")
        assert counts == {"torsion.is_torsion_pair": 1}

    def test_round_trip_through_files(self, tmp_path, capsys):
        from torsionpairs.decompose import assemble
        from torsionpairs.jsonio import partition_from_obj
        from torsionpairs.torsion import TorsionPair
        from torsionpairs.jsonio import intervals_from_obj

        q = linear_an(3)
        for i, tp in enumerate(enumerate_torsion_pairs(q)):
            path = write_cert(tmp_path, jsonio.pair_certificate(q, tp), f"r{i}.json")
            code, out = run(capsys, "decompose", path)
            payload = json.loads(out)
            partition = partition_from_obj(payload["partition"])
            residual = TorsionPair(
                intervals_from_obj(payload["residual"]["torsion"]),
                intervals_from_obj(payload["residual"]["free"]),
            )
            assert assemble(q, partition, residual) == tp


class TestCount:
    def test_count_42(self, capsys):
        code, out = run(capsys, "count", "--an", "4")
        assert code == 0
        assert out.strip() == "42"

    def test_count_check(self, capsys):
        code, out = run(capsys, "count", "--an", "2", "--check")
        assert code == 0
        assert out.strip() == "5"

    def test_count_tube(self, capsys):
        code, out = run(capsys, "count", "--tube", "2", "--check")
        assert code == 0
        assert out.strip() == "6"

    def test_bound_exceeded_is_exit_4(self, capsys):
        assert main(["count", "--an", "9"]) == 4

    def test_bound_can_be_raised(self, capsys):
        code, out = run(capsys, "count", "--an", "7", "--max-n", "7")
        assert code == 0
        assert out.strip() == "1430"

    def test_check_asks_the_oracle_bound_before_enumerating(self, capsys, count_calls):
        counts = count_calls("quiver.enumerate_partitions")
        start = time.perf_counter()
        assert main(["count", "--an", "12", "--max-n", "12", "--check"]) == 4
        assert time.perf_counter() - start < 1
        assert "exhaustive-search bound 6" in capsys.readouterr().err
        assert counts == {"quiver.enumerate_partitions": 0}

    def test_tube_without_check_is_the_closed_form(self, capsys):
        # past the depth of any recursion, and with no pair built
        start = time.perf_counter()
        code, out = run(capsys, "count", "--tube", "1000", "--max-n", "1000")
        assert time.perf_counter() - start < 1
        assert (code, out) == (0, f"{math.comb(2000, 1000)}\n")

    def test_tube_rank_zero_is_usage_error(self, capsys):
        assert main(["count", "--tube", "0"]) == 2
        assert "rank must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("target,fits", [("--an", 7151), ("--tube", 7145)])
    def test_counts_past_the_digit_limit_are_a_bound(self, capsys, target, fits):
        # the largest count that fits prints unchanged; the next exits 4,
        # the exact comparison deciding
        def value(k):
            return math.comb(2 * k + 2, k + 1) // (k + 2) if target == "--an" else math.comb(2 * k, k)

        assert 10**4299 <= value(fits) < 10**4300 <= value(fits + 1)
        code, out = run(capsys, "count", target, str(fits), "--max-n", str(fits))
        assert (code, out) == (0, f"{value(fits)}\n")
        assert main(["count", target, str(fits + 1), "--max-n", str(fits + 1)]) == 4
        assert "more than 4300 digits" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["--an", "--tube"])
    def test_huge_counts_are_refused_before_they_are_computed(self, capsys, target):
        start = time.perf_counter()
        assert main(["count", target, "1000000", "--max-n", "1000000"]) == 4
        assert time.perf_counter() - start < 1
        assert "more than 4300 digits" in capsys.readouterr().err


def lattice_by_search(n):
    """The lattice export by a search for covers: low -> high when low is
    strictly inside high and no class lies strictly between them, over the
    classes sorted by size and then by their sorted intervals."""
    classes = sorted(
        (tp.torsion for tp in enumerate_torsion_pairs(linear_an(n))),
        key=lambda T: (len(T), tuple(sorted((X.a, X.b) for X in T))),
    )

    def label(T):
        return "{" + ",".join(f"[{a},{b}]" for a, b in jsonio.intervals_to_obj(T)) + "}"

    lines = ["digraph lattice {"]
    lines += [f'  "{label(T)}";' for T in classes]
    for low in classes:
        for high in classes:
            if low < high and not any(low < mid < high for mid in classes):
                lines.append(f'  "{label(low)}" -> "{label(high)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


class TestExport:
    def test_lattice_has_five_nodes(self, capsys):
        code, out = run(capsys, "export", "--an", "2", "--dot", "lattice")
        assert code == 0
        nodes = [l for l in out.splitlines() if l.endswith('";') and "->" not in l]
        assert len(nodes) == 5

    @pytest.mark.parametrize("n", range(1, 7))
    def test_lattice_matches_the_search_for_covers(self, capsys, n):
        assert run(capsys, "export", "--an", str(n), "--dot", "lattice") == (0, lattice_by_search(n))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_lattice_is_the_tamari_lattice(self, capsys, n):
        # Cat(n+1) classes, n Cat(n+1) / 2 covers, and every class has n
        # neighbours: a class of the path has as many lower and upper
        # covers together as the path has vertices
        code, out = run(capsys, "export", "--an", str(n), "--max-n", str(n), "--dot", "lattice")
        assert code == 0
        lines = out.splitlines()
        assert (lines[0], lines[-1]) == ("digraph lattice {", "}")
        edges = [line.strip().rstrip(";").split(" -> ") for line in lines[1:-1] if " -> " in line]
        nodes = [line.strip().rstrip(";") for line in lines[1:-1] if " -> " not in line]
        catalan = math.comb(2 * n + 2, n + 1) // (n + 2)
        assert (len(nodes), len(set(nodes)), len(edges)) == (catalan, catalan, n * catalan // 2)
        degree = dict.fromkeys(nodes, 0)
        for low, high in edges:
            degree[low] += 1
            degree[high] += 1
        assert set(degree.values()) == {n}

    def test_ar_quiver_edges(self, capsys):
        code, out = run(capsys, "export", "--an", "2", "--dot", "ar")
        assert code == 0
        assert '"[1,2]" -> "[1,1]"' in out
        assert '"[2,2]" -> "[1,2]"' in out

    def test_tube_ar(self, capsys):
        code, out = run(capsys, "export", "--tube", "2", "--dot", "ar", "--cap", "3")
        assert code == 0
        assert '"U(1,1)" -> "U(1,2)"' in out

    @pytest.mark.parametrize("rank", ["0", "-2"])
    def test_tube_rank_below_one_is_exit_2(self, capsys, monkeypatch, rank):
        # the rank is checked before any module is built, as for enumerate and count
        def refuse(rank, cap):
            raise AssertionError(f"built the modules of rank {rank}")

        monkeypatch.setattr(tube, "all_tube_modules", refuse)
        code = main(["export", "--tube", rank, "--dot", "ar"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "usage error: rank must be positive\n"

    def test_tube_lattice_unsupported(self, capsys):
        assert main(["export", "--tube", "2", "--dot", "lattice"]) == 2

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_tube_cap_below_one_is_exit_2(self, capsys, cap):
        code = main(["export", "--tube", "2", "--dot", "ar", "--cap", cap])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("usage error:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["--cap", "9"],
        ["--cap", str(10**12)],
        ["--cap", "5", "--max-cap", "4"],
    ])
    def test_tube_cap_above_max_cap_is_exit_4(self, capsys, monkeypatch, argv):
        # the bound is checked before any module is built
        def refuse(rank, cap):
            raise AssertionError(f"built the modules up to cap {cap}")

        monkeypatch.setattr(tube, "all_tube_modules", refuse)
        code = main(["export", "--tube", "2", "--dot", "ar", *argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (4, "")
        assert captured.err.startswith("bound exceeded: cap")
        assert "Traceback" not in captured.err

    def test_tube_cap_bound_can_be_raised(self, capsys):
        code, out = run(capsys, "export", "--tube", "1", "--dot", "ar", "--cap", "9", "--max-cap", "9")
        assert code == 0
        assert '"U(1,8)" -> "U(1,9)"' in out

    def test_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "g.dot"
        code = main(["export", "--an", "2", "--dot", "ar", "--out", str(out_file)])
        assert code == 0
        assert out_file.read_text().startswith("digraph")

    def test_lattice_is_written_as_it_is_made(self, tmp_path):
        # the run holds the classes and their labels, not the 3.7 MB of output
        target = tmp_path / "lattice.dot"
        tracemalloc.start()
        try:
            code = main(["export", "--an", "8", "--max-n", "8", "--dot", "lattice", "--out", str(target)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = target.stat().st_size
        assert code == 0 and size > 3_500_000
        assert peak < size, (peak, size)

    @pytest.mark.parametrize("dot", ["ar", "lattice"])
    def test_failing_export_leaves_no_out_file(self, tmp_path, capsys, dot):
        # the quiver is built before the file is opened
        target = tmp_path / "g.dot"
        assert main(["export", "--an", "0", "--dot", dot, "--out", str(target)]) == 2
        assert not target.exists()
        assert capsys.readouterr().err.startswith("usage error:")


class TestCertificateSizeBound:
    """`verify` and `decompose` check the certificate's vertex count on the
    raw JSON, before any quiver or model is built."""

    @staticmethod
    def refuse_building(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built a quiver or a model past the size bound")

        for name in ("linear_an", "cyclic_an", "Quiver"):
            monkeypatch.setattr(jsonio, name, refuse)
        monkeypatch.setattr(cli, "model_for", refuse)

    @pytest.mark.parametrize("command", ["verify", "decompose"])
    @pytest.mark.parametrize("category,argv", [
        ({"shape": "linearA", "n": 41}, []),
        ({"shape": "linearA", "n": 10**9}, []),
        ({"shape": "linearA", "n": 5}, ["--max-n", "4"]),
        ({"shape": "linearUnion", "components": [[1, 2], [3, 4, 5]]}, ["--max-n", "4"]),
    ], ids=["n41", "n1e9", "lowered", "union-lowered"])
    def test_over_the_bound_is_exit_4(self, tmp_path, capsys, monkeypatch, command, category, argv):
        self.refuse_building(monkeypatch)
        cert = {"schema": "torsion/1", "category": category, "torsion": [], "free": []}
        code = main([command, write_cert(tmp_path, cert), *argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (4, "")
        assert captured.err.startswith("bound exceeded: certificate size")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["verify", "decompose"])
    def test_at_the_bound_is_admitted(self, tmp_path, capsys, command):
        cert = jsonio.pair_certificate(linear_an(5), enumerate_torsion_pairs(linear_an(5))[3])
        assert main([command, write_cert(tmp_path, cert), "--max-n", "5"]) == 0

    @staticmethod
    def tube_cert(rank, named):
        """Kind 1 tube certificate whose leading part names 1..named."""
        return {"schema": "torsion/1", "rank": rank, "kind": 1,
                "delta": list(range(1, named + 1)), "residual_partition": []}

    @pytest.mark.parametrize("command", ["verify", "decompose"])
    @pytest.mark.parametrize("rank,named,argv", [
        (41, 41, []),
        (10**9, 41, []),
        (5, 5, ["--max-n", "4"]),
    ], ids=["rank41", "rank1e9", "lowered"])
    def test_tube_rank_over_the_bound_is_exit_4(self, tmp_path, capsys, monkeypatch, command, rank, named, argv):
        self.refuse_building(monkeypatch)

        def refuse(*args, **kwargs):
            raise AssertionError("decoded a tube certificate past the size bound")

        monkeypatch.setattr(tubepairs, "partition_to_tube_tp", refuse)
        code = main([command, write_cert(tmp_path, self.tube_cert(rank, named)), *argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (4, "")
        assert captured.err.startswith("bound exceeded: certificate size")
        assert "Traceback" not in captured.err

    def test_tube_rank_at_the_bound_is_admitted(self, tmp_path, capsys):
        code, out = run(capsys, "verify", write_cert(tmp_path, self.tube_cert(5, 5)), "--max-n", "5")
        assert (code, out) == (0, "PASS\n")

    def test_small_tube_certificate_to_decompose_is_exit_3(self, tmp_path, capsys):
        code = main(["decompose", write_cert(tmp_path, self.tube_cert(3, 3))])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.startswith("certificate error:")


class TestCertificateBoundary:
    """Bad input ends in its documented exit code with a one-line message."""

    @staticmethod
    def cli(*argv):
        src = str(Path(torsionpairs.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "torsionpairs", *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert "Traceback" not in proc.stderr, proc.stderr
        return proc.returncode, proc.stdout, proc.stderr

    def verify(self, tmp_path, cert):
        return self.cli("verify", write_cert(tmp_path, cert))

    def test_tube_partition_must_cover_its_rank(self, tmp_path):
        cert = {"schema": "torsion/1", "rank": 5, "kind": 1, "delta": [1], "residual_partition": [[2, 3]]}
        code, out, err = self.verify(tmp_path, cert)
        assert (code, out) == (3, "")
        assert err.startswith("certificate error:")

    def test_huge_tube_rank_is_exit_3(self, tmp_path):
        cert = {"schema": "torsion/1", "rank": 10**12, "kind": 1, "delta": [1], "residual_partition": []}
        code, _, err = self.verify(tmp_path, cert)
        assert code == 3
        assert err.startswith("certificate error:")

    def test_empty_parts_is_exit_3(self, tmp_path):
        cert = {"schema": "torsion/1", "category": {"shape": "linearA", "n": 2}, "parts": []}
        code, _, err = self.verify(tmp_path, cert)
        assert code == 3
        assert err.startswith("certificate error:")

    def test_cyclic_category_on_a_pair_is_exit_3(self, tmp_path):
        cert = {
            "schema": "torsion/1",
            "category": {"shape": "cyclicA", "n": 2},
            "torsion": [],
            "free": [[1, 1]],
        }
        code, _, err = self.verify(tmp_path, cert)
        assert code == 3
        assert err.startswith("certificate error:")

    def test_pair_and_parts_together_are_ambiguous(self, tmp_path):
        cert = {
            "schema": "torsion/1",
            "category": {"shape": "linearA", "n": 2},
            "torsion": [[1, 1], [1, 2], [2, 2]],
            "free": [],
            "parts": [[[1, 1], [1, 2], [2, 2]], []],
        }
        code, out, err = self.verify(tmp_path, cert)
        assert (code, out) == (3, "")
        assert "ambiguous" in err

    def test_unwritable_out_is_usage_error(self, tmp_path):
        target = tmp_path / "missing" / "x"
        code, out, err = self.cli("count", "--an", "2", "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"usage error: cannot write {target}")

    def test_pair_interval_off_the_quiver_is_exit_3(self, tmp_path):
        cert = {"schema": "torsion/1", "category": {"shape": "linearA", "n": 3}, "torsion": [[9, 9]], "free": []}
        code, out, err = self.verify(tmp_path, cert)
        assert (code, out) == (3, "")
        assert err.startswith("certificate error:") and "[9,9]" in err

    def test_parts_interval_against_the_arrows_is_exit_3(self, tmp_path):
        cert = {"schema": "torsion/1", "category": {"shape": "linearA", "n": 3}, "parts": [[[3, 1]], []]}
        code, out, err = self.verify(tmp_path, cert)
        assert (code, out) == (3, "")
        assert err.startswith("certificate error:") and "[3,1]" in err

    @pytest.mark.parametrize("command", ["verify", "decompose"])
    def test_deeply_nested_json_is_exit_3(self, tmp_path, command):
        # the JSON decoder recurses once per level, past any stack limit here
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = self.cli(command, str(path))
        assert (code, out) == (3, "")
        assert err == f"certificate error: {path} is nested too deeply\n"


class TestClosedPipe:
    """A reader that stops early (`| head -c 10`) ends the command quietly:
    exit 0 and nothing on stderr, whether the write that fails is the
    command's own or the final flush of a buffered stdout."""

    @staticmethod
    def env(unbuffered):
        src = str(Path(torsionpairs.__file__).resolve().parent.parent)
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        return {**env, "PYTHONPATH": src, **({"PYTHONUNBUFFERED": "1"} if unbuffered else {})}

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_reader_closing_after_ten_bytes(self, unbuffered):
        # the text is far larger than a pipe buffer, so the command is
        # still writing when the reader leaves
        proc = subprocess.Popen(
            [sys.executable, "-m", "torsionpairs", "enumerate", "--an", "8", "--max-n", "8", "--format", "text"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env(unbuffered),
        )
        head = proc.stdout.read(10)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert head == b'0: {"categ'
        assert (proc.returncode, err) == (0, b"")

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_reader_gone_before_the_first_byte(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "torsionpairs", "count", "--an", "1"],
                stdout=write_end, stderr=subprocess.PIPE, env=self.env(unbuffered), timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, b"")


class TestProcessEnd:
    """`python -m torsionpairs` ends without the interpreter's teardown,
    once stdout and stderr are flushed; what the parent sees is unchanged."""

    @staticmethod
    def cli(*argv, unbuffered=False, python=(), stdout=subprocess.PIPE):
        return subprocess.run(
            [sys.executable, *python, "-m", "torsionpairs", *argv],
            stdout=stdout, stderr=subprocess.PIPE, text=True, env=TestClosedPipe.env(unbuffered), timeout=120,
        )

    def test_out_file_holds_the_bytes_of_stdout(self, tmp_path):
        argv = ("enumerate", "--an", "8", "--max-n", "8", "--format", "text")
        printed = self.cli(*argv)
        target = tmp_path / "pairs.txt"
        written = self.cli(*argv, "--out", str(target))
        assert (printed.returncode, printed.stderr, written.returncode, written.stdout) == (0, "", 0, "")
        assert target.read_bytes() == printed.stdout.encode()
        assert printed.stdout.count("\n") == 4862

    @pytest.mark.parametrize("code,argv,message", [
        (0, ("count", "--an", "2"), None),
        (1, ("verify", "{bad}"), None),
        (2, ("count", "--an", "0"), "usage error: n must be positive"),
        (3, ("verify", "{malformed}"), "certificate error:"),
        (4, ("enumerate", "--an", "9"), "bound exceeded: n 9 exceeds the bound 6"),
    ])
    def test_each_exit_code_reaches_the_parent(self, tmp_path, code, argv, message):
        bad = {"schema": "torsion/1", "category": {"shape": "linearA", "n": 2}, "torsion": [[1, 1]], "free": []}
        files = {
            "{bad}": write_cert(tmp_path, bad, "bad.json"),
            "{malformed}": write_cert(tmp_path, {"schema": "torsion/1"}, "malformed.json"),
        }
        proc = self.cli(*(files.get(arg, arg) for arg in argv))
        assert proc.returncode == code, proc.stderr
        if message is None:
            assert proc.stderr == "" and proc.stdout
            assert proc.stdout.startswith("FAIL:") == (code == 1)
        else:
            assert proc.stdout == ""
            assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1, proc.stderr

    def test_profiler_still_writes_its_report(self):
        proc = self.cli("count", "--an", "1", python=("-m", "cProfile"))
        assert proc.returncode == 0, proc.stderr
        first, rest = proc.stdout.split("\n", 1)
        assert first == "2" and "function calls" in rest and "Ordered by" in rest

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("argv", [
        ("count", "--an", "3"),
        ("enumerate", "--an", "8", "--max-n", "8", "--format", "text"),
    ])
    def test_full_stdout_is_a_usage_error(self, argv, unbuffered):
        # as an --out that cannot be written: exit 2 and one line, whether
        # the failing write is the command's own or the final flush
        with open("/dev/full", "w") as full:
            proc = self.cli(*argv, unbuffered=unbuffered, stdout=full)
        assert proc.returncode == 2
        assert proc.stderr == "usage error: cannot write stdout: No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_write_failing_mid_stream_is_one_usage_error(self):
        # pieces that stay in stdout's buffer, then one that overflows
        # it: the failed write drops what the buffer holds, so the final
        # flush does not fail and report again
        script = (
            "import sys\n"
            "from torsionpairs import cli\n"
            "cli.cmd_count = lambda args: cli._write(args, ['x'] * 256 + ['y' * 100_000]) or 0\n"
            "sys.argv = ['torsionpairs', 'count', '--an', '1']\n"
            "cli.entry()\n"
        )
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-c", script],
                stdout=full, stderr=subprocess.PIPE, text=True, env=TestClosedPipe.env(False), timeout=120,
            )
        assert proc.returncode == 2
        assert proc.stderr == "usage error: cannot write stdout: No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_out_file_is_one_usage_error(self):
        # one line, though the flush at close fails after the write did
        proc = self.cli("enumerate", "--an", "8", "--max-n", "8", "--out", "/dev/full")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "usage error: cannot write /dev/full: No space left on device\n"

    @staticmethod
    def cli_redirected(redirect, *argv):
        """The command run by `sh` with one more redirection, `>&-` say."""
        return subprocess.run(
            ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m", "torsionpairs", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=TestClosedPipe.env(False), timeout=120,
        )

    def test_closed_stdout_is_a_usage_error(self, tmp_path):
        # Python starts with sys.stdout None; the count cannot be written
        proc = self.cli_redirected(">&-", "count", "--an", "2")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == f"usage error: cannot write stdout: {os.strerror(errno.EBADF)}\n"
        # an --out file needs no stdout
        target = tmp_path / "count.txt"
        proc = self.cli_redirected(">&-", "count", "--an", "2", "--out", str(target))
        assert (proc.returncode, proc.stderr, target.read_text()) == (0, "", "5\n")

    @pytest.mark.parametrize("redirect", [
        "2>&-",  # Python starts with sys.stderr None
        pytest.param("2>/dev/full", marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")),
    ])
    @pytest.mark.parametrize("code,argv", [
        (0, ("count", "--an", "2")),
        (2, ("count", "--an", "0")),
        (3, ("verify", "{malformed}")),
        (4, ("enumerate", "--an", "9")),
    ])
    def test_unwritable_stderr_keeps_the_exit_code(self, tmp_path, redirect, code, argv):
        malformed = write_cert(tmp_path, {"schema": "torsion/1"}, "malformed.json")
        proc = self.cli_redirected(redirect, *(malformed if arg == "{malformed}" else arg for arg in argv))
        assert proc.returncode == code
        assert proc.stdout == ("5\n" if code == 0 else "")

    def test_parse_error_goes_to_stderr_or_nowhere(self):
        # argparse would print its usage line on stdout once stderr is None
        proc = self.cli("count", "--bogus")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("usage: torsionpairs count [-h] (--an N | --tube N)")
        assert proc.stderr.endswith("\ntorsionpairs count: error: one of the arguments --an --tube is required\n")
        proc = self.cli_redirected("2>&-", "count", "--bogus")
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "")


class TestNumbersPastTheFloatRange:
    """A number JSON reads as infinity, or as an integer past Python's
    digit limit, is malformed certificate content: exit 3, no traceback."""

    @staticmethod
    def write(tmp_path, obj, value="1e999"):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(obj).replace('"HUGE"', value))
        return str(path)

    PAIR = {"schema": "torsion/1", "category": {"shape": "linearA", "n": 3}, "torsion": [], "free": []}
    TUBE = {"schema": "torsion/1", "rank": 2, "kind": 1, "delta": [1], "residual_partition": [[2]]}
    CASES = {
        "rank": {**TUBE, "rank": "HUGE"},
        "kind": {**TUBE, "kind": "HUGE"},
        "delta vertex": {**TUBE, "delta": ["HUGE"]},
        "residual vertex": {**TUBE, "residual_partition": [["HUGE"]]},
        "category n": {**PAIR, "category": {"shape": "linearA", "n": "HUGE"}},
        "component vertex": {**PAIR, "category": {"shape": "linearUnion", "components": [[1, "HUGE"]]}},
        "interval end": {**PAIR, "torsion": [[1, "HUGE"]]},
        "ntp interval end": {
            "schema": "torsion/1",
            "category": {"shape": "linearA", "n": 3},
            "parts": [[["HUGE", 1]], []],
        },
    }

    @pytest.mark.parametrize("command", ["verify", "decompose"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_infinity_is_exit_3(self, tmp_path, capsys, command, case):
        code = main([command, self.write(tmp_path, self.CASES[case])])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.startswith("certificate error:")

    @pytest.mark.parametrize("command", ["verify", "decompose"])
    def test_integer_past_the_digit_limit_is_exit_3(self, tmp_path, capsys, command):
        path = self.write(tmp_path, {**self.TUBE, "rank": "HUGE"}, "1" + "0" * 5000)
        code = main([command, path])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.startswith("certificate error:")


class TestStrictNumbers:
    """Every number a certificate carries must be a JSON integer: a float
    (even 3.0), a bool or a numeric string is malformed content, exit 3
    with empty stdout, never truncated or coerced to an integer."""

    PAIR = {
        "schema": "torsion/1",
        "category": {"shape": "linearA", "n": 2},
        "torsion": [[1, 1], [1, 2], [2, 2]],
        "free": [],
    }
    UNION = {**PAIR, "category": {"shape": "linearUnion", "components": [[1, 2]]}}
    TUBE = {"schema": "torsion/1", "rank": 2, "kind": 1, "delta": [1], "residual_partition": [[2]]}
    FIELDS = {
        "category n": lambda v: {**TestStrictNumbers.PAIR, "category": {"shape": "linearA", "n": v}},
        "component vertex": lambda v: {
            **TestStrictNumbers.UNION, "category": {"shape": "linearUnion", "components": [[1, v]]}
        },
        "interval end": lambda v: {**TestStrictNumbers.PAIR, "torsion": [[1, 1], [1, v], [2, 2]]},
        "rank": lambda v: {**TestStrictNumbers.TUBE, "rank": v},
        "kind": lambda v: {**TestStrictNumbers.TUBE, "kind": v},
        "delta vertex": lambda v: {**TestStrictNumbers.TUBE, "delta": [v]},
        "residual vertex": lambda v: {**TestStrictNumbers.TUBE, "residual_partition": [[v]]},
    }

    @pytest.mark.parametrize("command", ["verify", "decompose"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "2"], ids=["2.5", "3.0", "true", "string"])
    @pytest.mark.parametrize("field", list(FIELDS))
    def test_a_number_that_is_not_an_integer_is_exit_3(self, tmp_path, capsys, command, value, field):
        code = main([command, write_cert(tmp_path, self.FIELDS[field](value))])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.startswith("certificate error:")
        assert "Traceback" not in captured.err

    def test_the_integer_forms_pass(self, tmp_path, capsys):
        for field, value in [("category n", 2), ("component vertex", 2), ("interval end", 2),
                             ("rank", 2), ("kind", 1), ("delta vertex", 1), ("residual vertex", 2)]:
            assert run(capsys, "verify", write_cert(tmp_path, self.FIELDS[field](value))) == (0, "PASS\n")


# -- fuzzing the certificate reader --------------------------------------------

# numbers as certificates carry them (small vertex labels most often), and
# what a malformed one may carry instead
_small = st.integers(min_value=1, max_value=6)
_numbers = st.one_of(
    _small,
    _small,
    _small,
    st.integers(min_value=-2, max_value=45),
    st.integers(),
    st.sampled_from([10**30, -(10**30), 2**64]),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.booleans(),
    st.none(),
)
_values = st.recursive(
    _numbers,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=8,
)
_intervals = st.lists(st.lists(_numbers, min_size=2, max_size=2) | _values, max_size=6) | _values
_vertex_sets = st.lists(st.lists(_numbers, max_size=4), max_size=4) | _values
_categories = st.one_of(
    st.fixed_dictionaries({"shape": st.just("linearA")}, optional={"n": _numbers}),
    st.fixed_dictionaries({"shape": st.just("linearUnion")}, optional={"components": _vertex_sets}),
    st.fixed_dictionaries({"shape": st.sampled_from(["cyclicA", "other"]), "n": _numbers}),
    _values,
)
_payloads = {
    "pair": {"category": _categories, "torsion": _intervals, "free": _intervals},
    "ntp": {"category": _categories, "parts": st.lists(_intervals, max_size=4) | _values},
    "tube": {
        "rank": _numbers,
        "kind": _numbers,
        "delta": st.lists(_numbers, max_size=4) | _values,
        "residual_partition": _vertex_sets,
    },
}


def _paths(obj, prefix=()):
    """Every key or index path into a JSON value, the root excluded."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _ts_pair_certificate(n, S):
    """(T_S, F_S) on the n-vertex path: T_S = {[a, b] : a in S}, closed
    under quotients and extensions, and F_S the intervals that avoid S."""
    q = linear_an(n)
    objects = model_for(q).objects
    torsion = frozenset(X for X in objects if X.a in S)
    free = frozenset(X for X in objects if not any(X.a <= v <= X.b for v in S))
    return jsonio.pair_certificate(q, TorsionPair(torsion, free))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@functools.cache
def _valid_certificates():
    # larger pairs first (the draws favour early entries), so that the
    # certificates that stay torsion pairs carry the peel past stage zero
    valid = [GOLDEN_CERTIFICATES["union-pair"]]
    for n in range(8, 13):
        rng = random.Random(n)
        valid.append(_ts_pair_certificate(n, {v for v in range(1, n + 1) if rng.random() < 0.5}))
    q = linear_an(3)
    valid += [jsonio.pair_certificate(q, tp) for tp in enumerate_torsion_pairs(q)[::3]]
    valid += [jsonio.tube_certificate(d) for d in enumerate_tube_tps(2)]
    valid.append({"schema": "torsion/1", "category": {"shape": "linearA", "n": 2},
                  "parts": [[[1, 1]], [[1, 2]], [[2, 2]]]})
    return valid


@st.composite
def _mutated(draw):
    """A valid certificate with one value replaced, or one key or entry dropped."""
    cert = json.loads(json.dumps(draw(st.sampled_from(_valid_certificates()))))
    path = draw(st.sampled_from(list(_paths(cert))))
    parent = _at(cert, path[:-1])
    if draw(st.booleans()):
        parent[path[-1]] = draw(_values)
    else:
        del parent[path[-1]]
    return cert


@st.composite
def _reordered(draw):
    """A valid certificate with one of its lists permuted: still valid, as
    lists carry sets, so `decompose` peels it."""
    cert = json.loads(json.dumps(draw(st.sampled_from(_valid_certificates()))))
    lists = [path for path in _paths(cert) if isinstance(_at(cert, path), list)]
    path = draw(st.sampled_from(lists))
    parent = _at(cert, path[:-1])
    parent[path[-1]] = draw(st.permutations(parent[path[-1]]))
    return cert


# one payload with every key, one with some keys missing, keys of all
# kinds, a valid certificate broken in one place, or one reordered
_certificates = st.one_of(
    _mutated(),
    _mutated(),
    _reordered(),
    _reordered(),
    _reordered(),
    *(st.fixed_dictionaries({"schema": st.just("torsion/1"), **keys}) for keys in _payloads.values()),
    *(st.fixed_dictionaries({"schema": st.just("torsion/1")}, optional=keys) for keys in _payloads.values()),
    st.fixed_dictionaries(
        {"schema": st.just("torsion/1")},
        optional={k: v for keys in _payloads.values() for k, v in keys.items()},
    ),
)


@settings(
    max_examples=150,
    derandomize=True,
    deadline=2000,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(cert=_certificates, command=st.sampled_from([["decompose", "--side", "both"], ["decompose"], ["verify"]]))
def test_fuzzed_certificates_end_in_a_documented_exit_code(tmp_path, cert, command):
    # any exception leaving main fails the example; exit 2 would mean a
    # malformed certificate was reported as a usage error.  Both peels and
    # their comparison run on the certificates that stay torsion pairs.
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(cert))
    assert main([*command, str(path)]) in (0, 1, 3, 4)


def test_the_fuzz_seeds_are_valid_certificates(tmp_path, capsys):
    for i, cert in enumerate(_valid_certificates()):
        path = write_cert(tmp_path, cert, f"seed{i}.json")
        assert run(capsys, "verify", path) == (0, "PASS\n"), cert
        if "torsion" in cert:
            code, out = run(capsys, "decompose", path, "--side", "both")
            assert (code, json.loads(out)["residuals_agree"]) == (0, True), cert


_TINY = st.integers(min_value=-3, max_value=4)
_HUGE = st.one_of(
    st.integers(min_value=7, max_value=20000),
    st.integers(min_value=20000, max_value=10**30),
    st.integers(min_value=-(10**30), max_value=-4),
)


@st.composite
def _numeric_argv(draw):
    """argv of `count`, `enumerate` or `export`, and whether a closed form
    or an early check answers it.  Targets up to 4 run under any
    `--max-n`; larger or negative ones keep the default bound, except on
    `count`, where a raised `--max-n` is met by the closed form, by the
    digit limit or by the oracle's bound."""
    command = draw(st.sampled_from(["count", "enumerate", "export"]))
    target = draw(st.sampled_from(["--an", "--tube"]))
    small = draw(st.booleans())
    value = draw(_TINY if small else _HUGE)
    argv = [command, target, str(value)]
    extra = []
    if command == "count":
        check = draw(st.booleans())
        if check:
            extra.append("--check")
        # the tube's check enumerates, so only the path's refuses early
        early = not check or target == "--an" and value > 6
    else:
        early = False
    if command == "export":
        extra += ["--dot", draw(st.sampled_from(["ar", "lattice"]))]
        if target == "--tube":
            extra += ["--cap", str(draw(_TINY)), "--max-cap", str(draw(st.integers(-2, 6)))]
    if small:
        raised = draw(st.one_of(st.none(), st.integers(-3, 5), st.integers(value, value + 10**6)))
    elif early:
        raised = draw(st.integers(value, value + 10**6))
    else:
        raised = draw(st.one_of(st.none(), st.integers(-3, 6)))
    if raised is not None:
        extra += ["--max-n", str(raised)]
    return argv + extra, early and not small


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(case=_numeric_argv())
def test_numeric_flags_end_in_a_documented_exit_code(capsys, case):
    # in process: any exception leaving main fails the example, and no
    # process or thread is started
    argv, closed_form = case
    threads = threading.active_count()
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code in (0, 2, 4), (argv, err)
    assert "Traceback" not in err
    if argv[0] == "count":
        # a count is a usage error only for a target below 1 within the bound
        bound = int(argv[argv.index("--max-n") + 1]) if "--max-n" in argv else cli.DEFAULT_MAX_N
        assert (code == 2) == (int(argv[2]) < 1 and int(argv[2]) <= bound), (argv, err)
    assert threading.active_count() == threads
    if closed_form:
        assert elapsed < 1, argv


# -- the plain parse against argparse ---------------------------------------

_COMMAND_NAMES = list(cli._COMMANDS)
_FLAGS = sorted({
    name for _, _, target, arguments in cli._COMMANDS.values() for name, _ in target + arguments
    if name.startswith("-")
})
_VALUES = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["json", "text", "left", "right", "both", "ar", "lattice", "cert.json", "a=b", "",
                     "-", "٣", "１２", "1_0", " 7 ", "+4", "0x10", "1e3", "9" * 5000]),
    st.text(max_size=4),
)
_TOKENS = st.one_of(
    st.sampled_from(_COMMAND_NAMES + _FLAGS + ["-h", "--help", "--", "-", "--bogus"]),
    st.sampled_from(_FLAGS).flatmap(lambda flag: st.integers(2, len(flag) - 1).map(lambda k: flag[:k])),
    st.builds("{}={}".format, st.sampled_from(_FLAGS), _VALUES),
    _VALUES,
)


def _value(draw, keywords):
    """A value for an argument: one it takes, three times in four."""
    if draw(st.integers(0, 3)) == 0:
        return draw(_VALUES)
    if "choices" in keywords:
        return draw(st.sampled_from(keywords["choices"]))
    return draw(st.integers(0, 12).map(str) if keywords.get("type") is int else st.sampled_from(["x.json", "٣"]))


@st.composite
def _argv(draw):
    """Mostly a command with one target, its positional, its required
    options and some of the others from its table, in any order, with any
    tokens put in now and then; sometimes tokens alone."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.lists(_TOKENS, max_size=6))
    command = draw(st.sampled_from(_COMMAND_NAMES))
    _, _, target, arguments = cli._COMMANDS[command]
    chosen = [draw(st.sampled_from(target))] if target else []
    chosen += [
        (name, keywords) for name, keywords in arguments
        if not name.startswith("-") or keywords.get("required") or draw(st.booleans())
    ]
    argv = [command]
    for name, keywords in draw(st.permutations(chosen)):
        if keywords.get("action") == "store_true":
            argv.append(name)
        else:
            argv += [name, _value(draw, keywords)] if name.startswith("-") else [_value(draw, keywords)]
    if draw(st.integers(0, 2)) == 0:
        for token in draw(st.lists(_TOKENS, min_size=1, max_size=2)):
            argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


def _argparse_vars(argv):
    """vars() of argparse's namespace for argv, or None where it exits;
    its help and usage text is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def _assert_same_namespace(argv):
    plain, parsed = vars(cli._parse_plain(argv)).copy(), _argparse_vars(argv)
    assert parsed is not None, argv  # argparse accepts what the plain parse accepts
    assert plain.pop("func") is parsed.pop("func"), argv
    assert plain == parsed, argv


@settings(max_examples=400, derandomize=True, deadline=None)
@given(argv=_argv())
def test_the_plain_parse_is_argparse_or_declines(argv):
    if cli._parse_plain(argv) is not None:
        _assert_same_namespace(argv)


@pytest.mark.parametrize("argv", [
    ["count", "--an", "3"],
    ["count", "--check", "--max-n", "٣", "--tube", "2", "--out", "a=b"],
    ["enumerate", "--format", "text", "--an", "+4"],
    ["decompose", "--side", "both", "cert.json", "--max-n", "1_0"],
    ["verify", "", "--cap", " 7 ", "--max-cap", "9", "--out", "x"],
    ["export", "--tube", "3", "--dot", "ar", "--cap", "2", "--max-cap", "4", "--max-n", "5"],
])
def test_the_plain_parse_accepts_the_plain_form(argv):
    _assert_same_namespace(argv)


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["-h"], ["count", "-h"], ["count", "--help"], ["count", "--an", "3", "--"],
    ["count", "--an=3"], ["count", "--a", "3"], ["count", "--an", "-3"], ["count", "--an", "3", "--an", "4"],
    ["count"], ["count", "--an", "3", "--tube", "3"], ["count", "--an", "3", "extra"], ["count", "--an", "x"],
    ["count", "--an", "9" * 5000], ["count", "--an"], ["enumerate", "--an", "3", "--format", "xml"],
    ["export", "--an", "3"], ["verify"], ["verify", "a", "b"], ["verify", "-"], ["count", "--out", "-", "--an", "3"],
])
def test_the_plain_parse_declines_everything_else(argv):
    assert cli._parse_plain(argv) is None
