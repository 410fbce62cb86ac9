import json
import os
import subprocess
import sys
from pathlib import Path

import torsionpairs
from torsionpairs import jsonio
from torsionpairs.cli import main
from torsionpairs.decompose import enumerate_torsion_pairs
from torsionpairs.quiver import linear_an


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


class TestExport:
    def test_lattice_has_five_nodes(self, capsys):
        code, out = run(capsys, "export", "--an", "2", "--dot", "lattice")
        assert code == 0
        nodes = [l for l in out.splitlines() if l.endswith('";') and "->" not in l]
        assert len(nodes) == 5

    def test_ar_quiver_edges(self, capsys):
        code, out = run(capsys, "export", "--an", "2", "--dot", "ar")
        assert code == 0
        assert '"[1,2]" -> "[1,1]"' in out
        assert '"[2,2]" -> "[1,2]"' in out

    def test_tube_ar(self, capsys):
        code, out = run(capsys, "export", "--tube", "2", "--dot", "ar", "--cap", "3")
        assert code == 0
        assert '"U(1,1)" -> "U(1,2)"' in out

    def test_tube_lattice_unsupported(self, capsys):
        assert main(["export", "--tube", "2", "--dot", "lattice"]) == 2

    def test_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "g.dot"
        code = main(["export", "--an", "2", "--dot", "ar", "--out", str(out_file)])
        assert code == 0
        assert out_file.read_text().startswith("digraph")


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
