"""Stdout identity: fixed command lines against the sha256 of their output.

Each case is an argv, its exit code and the digest of everything it writes
to stdout.  The list covers every README `sh` example, each `--format` of
`enumerate`, `tree`, `residues -k`/`-p` and the five `verify` suites, so a
refactor that changes a byte of output fails here.  Stderr and `--help` are
left out: argparse words them differently across Python versions.

After an intended change of output, print the new digests with

    PYTHONPATH=src python -c "import tests.test_cli_outputs as t; t.print_cases()"
"""

import hashlib
import shlex

import pytest

from yflattice.cli import main

CASES = [
    ("enumerate -n 4", 0, "17e65b456b9d8fd1607ee7a4c17cc9feae9cde24a858235a583388a6e9187c05"),
    ("enumerate -n 7 --filter odd --format csv", 0, "9fa56787d4a129ff10e6e71b2d2b39df773f6282a722ebfcd6c36f3731f4062f"),
    ("enumerate -n 3 --filter coprime -p 3", 0, "fcbb260bfcfecc0b5e1ef3c100ac16c0ec5343723fe9105affdb2488b0f989fd"),
    ("enumerate -n 5 --format csv", 0, "263ffffff2edc817a591113c4af26307f2ddea9b07c40e40c87e3fb4b7952256"),
    ("enumerate -n 5 --format json", 0, "f2e836149b0f4b58675940b49a55c20b6c20fda475020b1fa32f2f179c947c3d"),
    ("enumerate -n 5 --format jsonl", 0, "a427900a0960311d691b4e001be7487d2ca61cb949ae83b53c08c48d50e0b473"),
    ("enumerate -n 0", 0, "c562c4506b46df982b0f420806a9d4134b97e9f4fd5b45720228f5c32c8dfe9f"),
    ("tree --max-rank 7 --format dot", 0, "b83db8b90892f0d91f2da493fcb9ca609278bb6464ed3dfe353bb2ad2593cf24"),
    ("tree --max-rank 6 --f-valued --format json", 0, "2bccd8c7d0dbd43eafbbead99d069fbb2346bb4532cc82ed20810ff4b476debe"),
    ("tree --max-rank 5 --f-valued", 0, "6ff26ff32af6dc55a66711f66a0d4a2f9a770dc608501cf9109eab74bd06a508"),
    ("tree --max-rank 5 --format json", 0, "61290df1d6ce9eb08c99b9780ab5b15fa9795a3b761c2c0406a01d50351e2027"),
    ("residues -n 6 -k 3", 0, "55a165f9cf803099f17c9ea6b46aebf4f92da7f074e4205f0605132e4c1b0d6b"),
    ("residues -n 20 -k 4 --method enum", 0, "5691673b145e0dbda1d93d76bc0b228e8b8ef3fef04b18617dffb9a28817deb0"),
    ("residues -n 6 -p 3", 0, "f54d4d78b591a2ca68071c4e39a89e820f5e421dd0a958dc8d7fb68f70609b0f"),
    ("residues -n 9 -k 3 --format csv", 0, "a57dd3995bcac5009cd0b50e2688cfaecc21fd58868246c46b9c167e6d056031"),
    ("residues -n 7 -k 3 --format json", 0, "746333ae5ed3a17da8c3e0c96bf51b455d7fd9b2e39db9bc8a75c50ea9fb852c"),
    ("residues -n 11 -k 4 --method enum --format json", 0, "5050a4896aec953bdc96abab01306cdea44774609ee2dd507a24ae184f2c9c05"),
    ("residues -n 5 -k 3 --assert", 1, "01ecb4b2dcc8729eb4336a54fa0e2acef21440e9abbf325b53d930a18a1a384f"),
    ("residues -n 8 -p 5 --format csv", 0, "748665a24e9ccc368bfade0dbc507842304eae1551998ff7bc3d3b506db75617"),
    ("residues -n 7 -p 5 --format json", 0, "41167cbcacee3a1caf286129a2b3c60bb49b0b61877e88117c4115a25bfa84f7"),
    ("verify main -k 5 --n-extra 10", 0, "14765ddffd202fdfa6766d7a1daf37b1102cfa5eff5f81a502857f7872cce324"),
    ("verify one-step -k 3 --max-n 40", 0, "630e781f970e5a417ea90e9d774042ee1c808bd37786c84ff0ba3a995c60afc3"),
    ("verify pi-row --max-n 16", 0, "f1a8336c61ee98e0546419f20530598af36001c39181dba8377bedc0d1ddb10d"),
    ("verify coprime -p 3 -p 5", 0, "30d2fec637fe43c8f739d8bbd44d866dbfbdc1cc217a930f6dfd9b4e466c1e3b"),
    ("verify oracle --max-rank 12", 0, "82cbc4e9de1935a7166c75ecb4364c7ff36116e2363ef5ad3f36ddf5ed2d7fa1"),
    ("verify main -k 3 --n-extra 2 --format csv", 0, "b800e275823d57d823fab4b909212aabd00c854358101ff6b548fd94cec34f7e"),
    ("verify main -k 3 --n-extra 2 --format json", 0, "36d587635b598208c1a4091d9f4625783f58fd381079f3843af2295512170e56"),
    ("verify main -k 4 --n-extra 3 --format jsonl", 0, "1ac4387185642e3b9c4c7e7b8a86b00f76477e770039fd68f3779aff642fb05f"),
    ("verify one-step -k 3 --max-n 12 --format csv", 0, "b4ca544f3ccb380fa613688f2e2729023a92afbc6375dd0a96967e3c4ba560c3"),
    ("verify one-step -k 3 --max-n 12 --format json", 0, "5d1229954d36de8635b7cd2211c6066e9f7f1988c76694c4512114c8f68c5d12"),
    ("verify one-step -k 2 --max-n 6 --format jsonl", 0, "e942f175c173b74a58af4330e5bd8f503a5a073911e895d609546de02b68a468"),
    ("verify pi-row --max-n 6 --format csv", 0, "2cf541f99492f92d7953b359a061d718d4b4d46e2fc6670a1a4044c573130c7e"),
    ("verify pi-row --max-n 6 --format json", 0, "93f13cef45948ab7e6ad2f31b5466215c5779d83063c80e9b14f0d2832b700c1"),
    ("verify pi-row --max-n 6 --format jsonl", 0, "6fe185420a83dafcef1d8b5660ac985d9768aada0c18a15e8e30a6c89c704ae3"),
    ("verify coprime --max-n 6 -p 3 --format csv", 0, "3c24d6ea603d3a556ff679409f962156ec38e0343f655f3fb8ff71f50ba00d92"),
    ("verify coprime --max-n 6 -p 3 --format json", 0, "e94bb751e58f7e1b2a63d77b6ae5e12d2f95160382e1dbf181c0ac8b9c8cad09"),
    ("verify coprime --max-n 5 --format jsonl", 0, "75d0a5d3b36001ce8b81a754946a0f7dcc51e460e869fb1a14296fdef2e4c566"),
    ("verify oracle --max-n 6 --format csv", 0, "5bc5caff484beada141bfc13dfa54693c8b2157825e38fb90e48c0103abacfe1"),
    ("verify oracle --max-n 6 --format json", 0, "e92b1f18fd03e8b9fd25048017d24c03a690874ad732580b0020dadf98c934a2"),
    ("verify oracle --max-n 6 --format jsonl", 0, "adee7bcb4c7e1621aa928989061a502051e5b1ca79dd2a3660bd3f5f1fc91903"),
]

# Domain guards: exit 1 before any output.
REFUSED = [
    "verify main -k 0",
    "verify main -k 15",
    "verify main -k 21",
    "verify main -k 3 --n-extra -1",
    "verify one-step -k 3 --max-n -1",
    "verify pi-row --max-n 41",
    "verify coprime --max-n 25",
    "verify oracle --max-rank 25",
    "enumerate -n 25",
    "enumerate -n -2",
    "tree --max-rank 31",
    "residues -n 41 -k 3 --method enum",
    "residues -n 1000000000 -k 3",
    "residues -n 10 -k 21",
    "residues -n 25 -p 7",
    "residues -n 5 -p 524309",
    "residues -n 5 -p 9",
]


def _run(capsys, command):
    code = main(shlex.split(command))
    return code, capsys.readouterr().out


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(("command", "code", "digest"), CASES, ids=[c[0] for c in CASES])
def test_stdout_digest(capsys, command, code, digest):
    got_code, out = _run(capsys, command)
    assert (got_code, _digest(out)) == (code, digest)


@pytest.mark.parametrize("command", REFUSED)
def test_guard_refuses_without_output(capsys, command):
    assert _run(capsys, command) == (1, "")


def print_cases():
    import contextlib
    import io

    for command, _, _ in CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(shlex.split(command))
        print(f'    ("{command}", {code}, "{_digest(out.getvalue())}"),')
