"""Golden stdout of the CLI: SHA-256 of stdout and the exit code per command.

The hashes pin the exact bytes the commands print, so a refactor or a
faster model that changes any output byte fails here.  Every command runs
in-process through `cli.main`.  HELP_GOLDEN pins the help and usage text
argparse writes, stdout and stderr of fresh processes.  WALK_GOLDEN pins,
the same way, the library outputs of the stage walk that no command
prints: `generators` and the `trace_ntp` of both peelings.  After an
intended output change, print the new values with `python
tests/test_golden.py` (from the repository root, with `src` and `tests` on
the path) and paste them into GOLDEN, HELP_GOLDEN and WALK_GOLDEN.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_intervals import CYCLE_RESIDUALS, linear_union
from torsionpairs.cli import main
from torsionpairs.decompose import decompose, enumerate_torsion_pairs, generators, trace_ntp
from torsionpairs.jsonio import dumps_canonical
from torsionpairs.quiver import linear_an

CERTIFICATES = {
    # T = {[a,b] : a in {1,3}} and its perpendicular class on the 4-vertex path
    "a4-pair": {
        "schema": "torsion/1",
        "category": {"shape": "linearA", "n": 4},
        "torsion": [[1, 1], [1, 2], [1, 3], [1, 4], [3, 3], [3, 4]],
        "free": [[2, 2], [4, 4]],
    },
    # the same construction for S = {2, 3} on two paths with shuffled labels
    "union-pair": {
        "schema": "torsion/1",
        "category": {"shape": "linearUnion", "components": [[5, 2, 7], [3, 1]]},
        "torsion": [[2, 2], [2, 7], [3, 1], [3, 3]],
        "free": [[1, 1], [5, 5], [7, 7]],
    },
    # not a torsion pair: [1,2] lies in neither class
    "a3-bad": {
        "schema": "torsion/1",
        "category": {"shape": "linearA", "n": 3},
        "torsion": [[1, 1]],
        "free": [[2, 2], [3, 3]],
    },
}


def _cases():
    cases = []
    for n in range(1, 7):
        for fmt in ("json", "text"):
            cases.append(("enumerate", "--an", str(n), "--format", fmt))
    cases.append(("enumerate", "--an", "7", "--max-n", "7", "--format", "json"))
    for fmt in ("json", "text"):
        cases.append(("enumerate", "--an", "9", "--max-n", "9", "--format", fmt))
    for r in range(1, 5):
        cases.append(("enumerate", "--tube", str(r)))
    cases.append(("enumerate", "--tube", "5", "--format", "json"))
    cases.append(("enumerate", "--tube", "5", "--format", "text"))
    for fmt in ("json", "text"):
        cases.append(("enumerate", "--tube", "6", "--format", fmt))
        cases.append(("enumerate", "--tube", "7", "--max-n", "7", "--format", fmt))
    cases.append(("enumerate", "--tube", "8", "--max-n", "8", "--format", "text"))
    for n in range(1, 7):
        cases.append(("count", "--an", str(n), "--check"))
    for r in range(1, 7):
        cases.append(("count", "--tube", str(r), "--check"))
    for n in range(1, 6):
        for dot in ("ar", "lattice"):
            cases.append(("export", "--an", str(n), "--dot", dot))
    cases.append(("export", "--an", "6", "--dot", "lattice"))
    cases.append(("export", "--an", "7", "--max-n", "7", "--dot", "lattice"))
    cases.append(("export", "--an", "8", "--max-n", "8", "--dot", "lattice"))
    cases.append(("export", "--tube", "3", "--dot", "ar"))
    for cap in range(1, 9):
        cases.append(("export", "--tube", "3", "--dot", "ar", "--cap", str(cap)))
    cases.append(("export", "--tube", "6", "--dot", "ar", "--cap", "8"))
    for name in CERTIFICATES:
        cases.append(("verify", f"@{name}"))
        cases.append(("decompose", f"@{name}", "--side", "both"))
    return cases


CASES = _cases()

GOLDEN = {
    'enumerate --an 1 --format json': (0, 'b5cbe4679ec4da47ef7cb547724c2ae4fc5f81c7d6bde56038c99a4b54459130'),
    'enumerate --an 1 --format text': (0, '9261f45a32ccae803e271658eb5684c4c4517e771bb02e49d1f39fd9b293219a'),
    'enumerate --an 2 --format json': (0, '1328736662e19e572562d0862bd35fdbc246580297b495ed1d681a78e93374d7'),
    'enumerate --an 2 --format text': (0, '8382a0f4e9e5c86161eab96cc41ac7fa85b7742223ec1af71dc3709c4f89aa9e'),
    'enumerate --an 3 --format json': (0, 'c92d0004176a522459fb3daab0a938a8c059caf619ac1dc74cc5002f5ad4a665'),
    'enumerate --an 3 --format text': (0, '0a6602f935617816e1061d4efe6d7e23c175b9e9cb51c8a613818dd7b103f37c'),
    'enumerate --an 4 --format json': (0, '6ac83108cc049682db2b3cd5e8e433418b8bcd33835fa0b3c32990c6f731069f'),
    'enumerate --an 4 --format text': (0, 'ef5454cd6dd93fa2ab0adc618d1987a7f484aa0a992cadcf42477cc1cdf425cf'),
    'enumerate --an 5 --format json': (0, 'd62e562f038d96385b084d43f12b0d03765a85f1e10c1fe5631877dfc3729d46'),
    'enumerate --an 5 --format text': (0, 'd7f4e3a2d7d9057f3234eadb225cce6641e039b7aa2f1441cbf621340d3ad06a'),
    'enumerate --an 6 --format json': (0, '29fd2ddee7638793451670a135c2ca5879540a387f1ec92f1d2144d5b19e87a5'),
    'enumerate --an 6 --format text': (0, 'd19cb04d99a6deb2f67da287a70a7d20352d26ef7d61942cf35f75a24dfd27a3'),
    'enumerate --an 7 --max-n 7 --format json': (0, '839fab590fe34f0e412f6b2ab756c68c40d1d9def2bffa785f2396815474f3ca'),
    'enumerate --an 9 --max-n 9 --format json': (0, 'bed50efc8c2a0fb67c749444789b8e7b9d7fb1a2f05c9c0be09eab765c05c39c'),
    'enumerate --an 9 --max-n 9 --format text': (0, 'ce7a2760bba134e986efdccac62b1412e67a032806d96fda5418dc2c9aa97733'),
    'enumerate --tube 1': (0, 'd7a71058da461128c6e3e225e6d3f8024dce94406614df893c3a27c71e8927c4'),
    'enumerate --tube 2': (0, '3f2b6981dba33242cacd9823665e5caa8b7cd0e22411380aa696e370355f3af9'),
    'enumerate --tube 3': (0, '59d64883e1ea7093a5458bd333b58cd4f586f6909afa52fd7fed44bbb622e87a'),
    'enumerate --tube 4': (0, '69726aab54b9132fc9ff7608409c66b2cf21fcb1982efca977412aff83ce363e'),
    'enumerate --tube 5 --format json': (0, 'f8b0294dc5f35215dad3b74bebce7dc554e5782e80e055c0b5c99c7e0caafa74'),
    'enumerate --tube 5 --format text': (0, 'df08fed3f219da1e7cf0cdcca5943b126be574a3b6dd301ad6af5b4bd3d90f53'),
    'enumerate --tube 6 --format json': (0, '24d66b4bb415776f1852a5c6a2fe01aba3348ea0a310edc1a9d1eab5f8af5147'),
    'enumerate --tube 6 --format text': (0, 'f85295d5655d6380826bf84b74c41e32a190507a9a772f29f0737790213f0c68'),
    'enumerate --tube 7 --max-n 7 --format json': (0, '8a566848eb55db22e228e5e0bfec091abf547b2c5b96a2e12a86bea46e0ddc2f'),
    'enumerate --tube 7 --max-n 7 --format text': (0, '4c4c9a0bb53d77dd92f7b6d4263ac94204b16a048969b8fae7e550da7aa12c85'),
    'enumerate --tube 8 --max-n 8 --format text': (0, '6d8dc6e017e90d044de7566eafdb54b266508c30772c748e373655b32610d3a9'),
    'count --an 1 --check': (0, '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3'),
    'count --an 2 --check': (0, 'f0b5c2c2211c8d67ed15e75e656c7862d086e9245420892a7de62cd9ec582a06'),
    'count --an 3 --check': (0, '9a92adbc0cee38ef658c71ce1b1bf8c65668f166bfb213644c895ccb1ad07a25'),
    'count --an 4 --check': (0, '084c799cd551dd1d8d5c5f9a5d593b2e931f5e36122ee5c793c1d08a19839cc0'),
    'count --an 5 --check': (0, '586900065999e00dfd03caec2bd5eb43dd939f082db4718edecd72fabfdcdbec'),
    'count --an 6 --check': (0, '751bf930e0aa4b43575c42233f0fb5cd4770be67d82002aed80b73d3316c4ac5'),
    'count --tube 1 --check': (0, '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3'),
    'count --tube 2 --check': (0, '06e9d52c1720fca412803e3b07c4b228ff113e303f4c7ab94665319d832bbfb7'),
    'count --tube 3 --check': (0, '5378796307535df3ec8d8b15a2e2dc5641419c3d3060cfe32238c0fa973f7aa3'),
    'count --tube 4 --check': (0, '6442bc26a7c562f5afe6467dab36365c709909f6a81afcecfc0c25cff0f1bab0'),
    'count --tube 5 --check': (0, 'd5c6c5db0511989f8b2db87038d1fc6952a2f828e46aef7f3836d4a5d457b775'),
    'count --tube 6 --check': (0, '16d89bcc46ed3bd2db9661fba091edeaa897e8bd53bebd37299fbc7db4686384'),
    'export --an 1 --dot ar': (0, '94582958a616cd977a19158cc27ee9bd8465012148232246d1a2fe64c1240483'),
    'export --an 1 --dot lattice': (0, '56e4d30eaec13593d2d30ed0e1f8910393648a11ab1adb230303978bed82f894'),
    'export --an 2 --dot ar': (0, '63bbb51ed15131a245ff5d7af7b533af6b06e2f6bb60e61035e0429e8a43b5e0'),
    'export --an 2 --dot lattice': (0, '551a609b680ad1758eeaa6009fa32f4de4ab4ca59cca2e98c8de1fa78b4e40b5'),
    'export --an 3 --dot ar': (0, '7aa1ef3b430dfbf57da0d792e6fd401108a8b9ba4a4e8d893a0bf639995ef8a4'),
    'export --an 3 --dot lattice': (0, 'de682291319c2061e6045948ecc633b1d9d7fa7b4e91544da077e560fb78a488'),
    'export --an 4 --dot ar': (0, 'afc795d650fee300a173d648dc1827b66336ad918433d9295c6a6979ca7d9109'),
    'export --an 4 --dot lattice': (0, '04865910b79e773435306cd051b374c3b743fc4ee6d018c6121c48ea6307bf54'),
    'export --an 5 --dot ar': (0, 'd150104df7820ad85192b07d205eb812a63ede436cb7eee6ec284f0a221553e9'),
    'export --an 5 --dot lattice': (0, 'ecb78f51f70c711673b59ba2ba1c2cbd23f041f38d1c4d43d3e993de6043df86'),
    'export --an 6 --dot lattice': (0, '88bf18a1b520db3842eaa65a03fdd7dddd5ba259711d5b44e968ab40f4885f5a'),
    'export --an 7 --max-n 7 --dot lattice': (0, '42f92c0b19ac0e8d46d5874029eabc2e6ab5296a3f7019ab97baa5a3122ef25b'),
    'export --an 8 --max-n 8 --dot lattice': (0, 'ff79c98156155b4b5cb1fb4f28bb108959d233cee63262db061eb3b735dd4555'),
    'export --tube 3 --dot ar': (0, '02c4a98afa490f3c59f92a594acf565f292e1547cd9d6365e553f159449a7bb4'),
    'export --tube 3 --dot ar --cap 1': (0, 'e8bf8408e68e70baf01dc4041728eed560315b2cc2c83b53aa5f63b9c80d11bc'),
    'export --tube 3 --dot ar --cap 2': (0, '5f951db78d165858a017bce3d6093c55aae17698664f31ec2722a367a0badae8'),
    'export --tube 3 --dot ar --cap 3': (0, 'e33dbf6cfb4cfae0e94bd6a84975a4dc0055346d15c3f0424a0bc0e59266f7ee'),
    'export --tube 3 --dot ar --cap 4': (0, '02c4a98afa490f3c59f92a594acf565f292e1547cd9d6365e553f159449a7bb4'),
    'export --tube 3 --dot ar --cap 5': (0, '633abdc3a42092fdd1eca792a06497e7384a20ec15f9b6c7fbfe23d4a9093fb0'),
    'export --tube 3 --dot ar --cap 6': (0, '2d502f0b542b33504dbc3844271bb61928da0f1206afb3e5127fdc0ef8d33c51'),
    'export --tube 3 --dot ar --cap 7': (0, 'cb64e96a36c52140717dbb1d8aca82538a3fc787c4376a3bcb425f618fb5da97'),
    'export --tube 3 --dot ar --cap 8': (0, 'b08d0c66f73442bd8639b372df5c98230504f7307f7ebc0b83b0f662a5cb21ea'),
    'export --tube 6 --dot ar --cap 8': (0, '282e627b58a081186cc239048dcb5947783d4e6b72b52e9ef3991dd0fdd28bf8'),
    'verify @a4-pair': (0, 'c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431'),
    'decompose @a4-pair --side both': (0, '5e7e0c3c4fffb37a9069f3a1a3a952793f228cdc9bbcdd73e2a87532fdc04288'),
    'verify @union-pair': (0, 'c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431'),
    'decompose @union-pair --side both': (0, '3482a35144ee83f67f4e101e3ee7d0aec13cbf6f21b9498428323092793abd99'),
    'verify @a3-bad': (1, 'd22cf84babac9968209d276129b34a809beb2c3c32055018ac8bbdf2fa258e58'),
    'decompose @a3-bad --side both': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
}


# the 10-vertex unions of MODEL_QUIVERS hold 8232 and 18018 pairs, too
# many for the suite; their 7-vertex part keeps the shuffled labels
WALK_QUIVERS = {
    "paths": [linear_an(n) for n in range(1, 7)],
    "cycle residuals": CYCLE_RESIDUALS,
    "shuffled union": [linear_union((7, 2, 9, 4), (10, 1, 5))],
}

# family: SHA-256 of generators, of the left trace_ntp, of the right trace_ntp
WALK_GOLDEN = {
    'paths': (
        '71a8467abd9b1e9fa3a89ace2b379761e37ee562961b1e53e9602b8e3139811e',
        'a1f33838af3d7e85be14537463bf5ea004a9eab91ddd8eedb856270a40dc5131',
        '2e9758b8696958eed16c6e747cbf059a0cce458a944727844dce54bb8f3bd380',
    ),
    'cycle residuals': (
        '0ce5ceb93a54277d4d46c12cfe6caf9f2ea5242c79d357bb5ac468892c47b6ae',
        'd0395a80b075805726b93d23be3fe379174cbeb9f98c411457ec84454c3e1a03',
        'fce8a29f7c48c8d2e2884c9f415ae67b1054cba9015634b744f3e9584b4efac4',
    ),
    'shuffled union': (
        '0fc7a9be441e7b5fc7baa824942c744c730289663ddce860496ac902c1a16131',
        '134fb4ff654cfeac45790432035a3e187a311e7eab06a2d3c3da3164e54323ff',
        'f6c9a8795bdd5066d05c92444474f08d2d02b3e91e880b7b26c655655f623c45',
    ),
}


# argv: exit code, SHA-256 of stdout, SHA-256 of stderr.  argparse writes
# every help and usage text; these pin its bytes, run as `python -m
# torsionpairs` with COLUMNS=80 so that the wrapping is the same everywhere.
HELP_GOLDEN = {
    '--help': (0, '74258462614a43f7fa6851d14129ca92b201dc4e56274e608c6c30ac4ff909b9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'enumerate --help': (0, 'c7efca4989bba95caae118b9ff9727dd9cad256666dd8e3bb856b73b50f2b8c2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'decompose --help': (0, '7e3fb0564434d1c7ab0143af9440d835cefd9c1fe8d65d25b5b857dcfaf3197c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --help': (0, 'ba8e4f00f351941060becd7f9cdbd9cbb9e1c8c8ed5689c76067c416deb46d08', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'count --help': (0, '28dedb0332f9790231bb8ba2a3c765ea8985a41d98a5e6959ef0b0500d6af262', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'export --help': (0, '3ee27e89c0ddcc5eb8b8bc49a3d0d386226b7d2be18ea2e1d4918ebb4b4ec46a', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '05036533c9e6d18940f9b6e9614d9937519ec09372db4f8c18689392ec0545e2'),
    'bogus': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '032627922dc2bdc95beeb7390b8e9a7810fbef6ce98e5a31938ca127e3aad111'),
    'count': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '22b81c6f82db726dff434fca98cfa97ab770350c18051394dc4e7cb02941327b'),
    'count --an 3 --tube 3': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '04fd675ef918414d7d40de3e827ec0acddaad2a2951ae4a7acaa6a9cfc7a2a28'),
    'count --an x': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '3131e85fae8cee22426420a68837c3c604ac0e67df16b73378169d152c350d90'),
    'export --an 3': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '18c161114601dd956fb732e9cf469d439065143ba0a480e7239044bdd1da83ad'),
}
# An argparse that wraps its usage by `_get_actions_usage_parts` (3.13)
# keeps `--dot {ar,lattice}` on one line, which moves export's line break.
if hasattr(argparse.HelpFormatter, "_get_actions_usage_parts"):
    HELP_GOLDEN.update({
        'export --help': (0, '15cb9deb640808e54501a7e7894dcfdcf12e1e840de49ab6c7dc280b1feaad89', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
        'export --an 3': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '91b107839d5e9b080a71848d9ef50ad29654e35e30749fe09642bce6ee39f1e6'),
    })


def _help_digests(case):
    """Exit code and the digests of stdout and stderr of a fresh `python -m
    torsionpairs` on the argv of the case."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "torsionpairs", *case.split()], capture_output=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"},
    )
    return proc.returncode, hashlib.sha256(proc.stdout).hexdigest(), hashlib.sha256(proc.stderr).hexdigest()


def _walk_digests(quivers):
    """Digests of generators(q, tp) and of both trace_ntp(q, decompose(q, tp,
    side)), over every torsion pair of the quivers in turn."""
    def ends(modules):
        return sorted((X.a, X.b) for X in modules)

    hashes = [hashlib.sha256() for _ in range(3)]
    for q in quivers:
        for tp in enumerate_torsion_pairs(q):
            t_gen, f_cog = generators(q, tp)
            hashes[0].update(repr((ends(t_gen), ends(f_cog))).encode())
            for h, side in zip(hashes[1:], ("left", "right")):
                ntp = trace_ntp(q, decompose(q, tp, side))
                h.update(repr([ends(part) for part in ntp.parts]).encode())
    return tuple(h.hexdigest() for h in hashes)


def _argv(case, directory):
    """Replace an `@name` argument by the path of that certificate's file."""
    argv = []
    for arg in case:
        if arg.startswith("@"):
            path = directory / f"{arg[1:]}.json"
            path.write_text(json.dumps(CERTIFICATES[arg[1:]]))
            arg = str(path)
        argv.append(arg)
    return argv


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", CASES, ids=" ".join)
def test_stdout_matches_golden(case, tmp_path, capsys):
    code = main(_argv(case, tmp_path))
    out = capsys.readouterr().out
    assert (code, _digest(out)) == GOLDEN[" ".join(case)]


@pytest.mark.parametrize("case", HELP_GOLDEN)
def test_help_and_usage_match_golden(case):
    assert _help_digests(case) == HELP_GOLDEN[case]


@pytest.mark.parametrize("family", WALK_QUIVERS)
def test_walk_outputs_match_golden(family):
    assert _walk_digests(WALK_QUIVERS[family]) == WALK_GOLDEN[family]


def test_every_case_has_a_golden_value():
    assert sorted(GOLDEN) == sorted(" ".join(case) for case in CASES)


def test_canonical_dump_is_json_dumps_on_every_golden_payload(tmp_path, capsys):
    # the reused encoder writes what json.dumps writes, and a JSON stdout
    # (enumerate's joined records included) is the canonical dump of itself
    payloads = list(CERTIFICATES.values())
    for case in CASES:
        if case[0] not in ("enumerate", "decompose") or "text" in case:
            continue
        code = main(_argv(case, tmp_path))
        out = capsys.readouterr().out
        if code == 0:
            payload = json.loads(out)
            assert out == dumps_canonical(payload) + "\n", case
            payloads.append(payload)
    assert len(payloads) > len(CERTIFICATES)
    for payload in payloads:
        assert dumps_canonical(payload) == json.dumps(payload, sort_keys=True, separators=(",", ":"))
        for record in payload if isinstance(payload, list) else [payload]:
            assert dumps_canonical(record) == json.dumps(record, sort_keys=True, separators=(",", ":"))


def test_goldens_agree_with_the_benchmark_digests(capsys):
    # the benchmark pins some of the same commands; both must hold the same
    # bytes, and a command it pins without a golden value here is run as well
    digests = json.loads((Path(__file__).resolve().parents[1] / "bench" / "digests.json").read_text())
    shared = sorted(set(GOLDEN) & set(digests))
    assert len(shared) >= 7
    for command in shared:
        assert GOLDEN[command] == (0, digests[command]), command
    for command in sorted(set(digests) - set(GOLDEN)):
        code = main(command.split())
        assert (code, _digest(capsys.readouterr().out)) == (0, digests[command]), command


if __name__ == "__main__":
    import contextlib
    import io
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
                code = main(_argv(case, pathlib.Path(tmp)))
            print(f"    {' '.join(case)!r}: ({code}, {_digest(buffer.getvalue())!r}),")
    for case in HELP_GOLDEN:
        print(f"    {case!r}: {_help_digests(case)!r},")
    for family, quivers in WALK_QUIVERS.items():
        print(f"    {family!r}: {_walk_digests(quivers)!r},")
