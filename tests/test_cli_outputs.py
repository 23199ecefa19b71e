"""The CLI's contract: fixed command lines and what each must give.

- CASES: argv, exit code and the sha256 of all of stdout.  They cover every
  README `sh` example, each `--format` of `enumerate`, `tree`, `residues
  -k`/`-p` and the five `verify` suites, each suite's defaults, and the
  largest runs the guards accept, so a change of one byte of output fails.
- REFUSED: argv and the limit it breaks.  Exit 1, empty stdout, and stderr
  `error: ...` naming the limit, under conftest.py's no_work, which makes
  the first piece of work under every guard raise: each refusal comes before
  any row, count, fold or tree is made.  Each row runs again with `--out`,
  and the file is never created.
- USAGE: argv and the option or message at fault.  Exit 2, empty stdout,
  and stderr that starts `usage: yflattice <leaf> ` and names it.

Only these parts of stderr are checked, because they read the same on
Python 3.10-3.12: the `error: ...` text is the program's own, and argparse
starts each usage error with `usage: ` and the leaf's prog.  The rest of a
usage line wraps with the terminal width and `--help` is worded differently
across versions, so neither is pinned.

After an intended change of output, print the new digests with

    PYTHONPATH=src:tests python -c "import test_cli_outputs as t; t.print_cases()"
"""

import hashlib
import shlex

import pytest

CASES = [
    ("enumerate -n 4", 0, "17e65b456b9d8fd1607ee7a4c17cc9feae9cde24a858235a583388a6e9187c05"),
    ("enumerate -n 7 --filter odd --format csv", 0, "9fa56787d4a129ff10e6e71b2d2b39df773f6282a722ebfcd6c36f3731f4062f"),
    ("enumerate -n 3 --filter coprime -p 3", 0, "fcbb260bfcfecc0b5e1ef3c100ac16c0ec5343723fe9105affdb2488b0f989fd"),
    ("enumerate -n 5 --format csv", 0, "263ffffff2edc817a591113c4af26307f2ddea9b07c40e40c87e3fb4b7952256"),
    ("enumerate -n 5 --format json", 0, "f2e836149b0f4b58675940b49a55c20b6c20fda475020b1fa32f2f179c947c3d"),
    ("enumerate -n 5 --format jsonl", 0, "a427900a0960311d691b4e001be7487d2ca61cb949ae83b53c08c48d50e0b473"),
    ("enumerate -n 0", 0, "c562c4506b46df982b0f420806a9d4134b97e9f4fd5b45720228f5c32c8dfe9f"),
    ("enumerate -n 12 --filter coprime -p 5 --format json", 0, "b0051272760d6239eb42599bd058f553d39f52d684268455ee6c95ddd1f9cec3"),
    ("enumerate -n 13 --filter odd --format jsonl", 0, "840a2a48ffd5a7b9487ee7e9f92cb3cc2ced6dd77768be05a65675b377087f00"),
    ("enumerate -n 12", 0, "b092e9be75923bfc1743607d6e2ba5dd8ac0813ed35c2c421116d39cd01f0e5c"),
    ("enumerate -n 11 --filter odd", 0, "ecffd9547c89355ce0585cf59a98ede486a167fb162e8a94ed8735b5f146590c"),
    ("tree --max-rank 0", 0, "eafe2ba753c612f22458fee15c22024a742b1755baae6500b0069d5dd9b3f5a5"),
    ("tree --max-rank 7 --format dot", 0, "b83db8b90892f0d91f2da493fcb9ca609278bb6464ed3dfe353bb2ad2593cf24"),
    ("tree --max-rank 6 --f-valued --format json", 0, "2bccd8c7d0dbd43eafbbead99d069fbb2346bb4532cc82ed20810ff4b476debe"),
    ("tree --max-rank 5 --f-valued", 0, "6ff26ff32af6dc55a66711f66a0d4a2f9a770dc608501cf9109eab74bd06a508"),
    ("tree --max-rank 5 --format json", 0, "61290df1d6ce9eb08c99b9780ab5b15fa9795a3b761c2c0406a01d50351e2027"),
    ("tree --max-rank 20 --format json", 0, "286d3b2d00861c8f033cd13a033f37911335cbdbbc16441c4ff1d4941ed1e2a2"),
    ("tree --max-rank 21 --format dot", 0, "555c3dbf52cb24a363d7354cc99dc68c1d067c9da402b1b91d6d3991e926fb2c"),
    ("tree --max-rank 21 --f-valued --format dot", 0, "e8583e62c8e5aca342ba1bb2072097d28702057bbc7d81d04e5cda3ce3470b4e"),
    ("residues -n 6 -k 3", 0, "55a165f9cf803099f17c9ea6b46aebf4f92da7f074e4205f0605132e4c1b0d6b"),
    ("residues -n 20 -k 4 --method enum", 0, "5691673b145e0dbda1d93d76bc0b228e8b8ef3fef04b18617dffb9a28817deb0"),
    ("residues -n 6 -p 3", 0, "f54d4d78b591a2ca68071c4e39a89e820f5e421dd0a958dc8d7fb68f70609b0f"),
    ("residues -n 9 -k 3 --format csv", 0, "a57dd3995bcac5009cd0b50e2688cfaecc21fd58868246c46b9c167e6d056031"),
    ("residues -n 7 -k 3 --format json", 0, "746333ae5ed3a17da8c3e0c96bf51b455d7fd9b2e39db9bc8a75c50ea9fb852c"),
    ("residues -n 11 -k 4 --method enum --format json", 0, "5050a4896aec953bdc96abab01306cdea44774609ee2dd507a24ae184f2c9c05"),
    ("residues -n 5 -k 3 --assert", 1, "01ecb4b2dcc8729eb4336a54fa0e2acef21440e9abbf325b53d930a18a1a384f"),
    ("residues -n 200 -k 9 --format json", 0, "c7d4297b5a97b625b827402d011d3f9a36ab6e0a462f03f12585796ec27ee570"),
    ("residues -n 1000 -k 12 --format csv", 0, "dbdd93c946ad0705c063cb5574bd74aee48c5eb0328b75eff2f83cb59e4651f9"),
    ("residues -n 8 -p 5 --format csv", 0, "748665a24e9ccc368bfade0dbc507842304eae1551998ff7bc3d3b506db75617"),
    ("residues -n 7 -p 5 --format json", 0, "41167cbcacee3a1caf286129a2b3c60bb49b0b61877e88117c4115a25bfa84f7"),
    ("residues -n 5 -p 7 --assert", 1, "bf2fbfc2ba0ebc090f94195e4b887e39ff1f4e51d3e76048852df40888f2cdd3"),
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
    ("verify one-step -k 8 --max-n 200 --format json", 0, "3f926502c98904821e85496e79b4ba36d6a4ab760c764d7198b1e694ee67cfc8"),
    ("verify one-step -k 2 --max-n 6 --format jsonl", 0, "e942f175c173b74a58af4330e5bd8f503a5a073911e895d609546de02b68a468"),
    ("verify pi-row --max-n 6 --format csv", 0, "2cf541f99492f92d7953b359a061d718d4b4d46e2fc6670a1a4044c573130c7e"),
    ("verify pi-row --max-n 6 --format json", 0, "93f13cef45948ab7e6ad2f31b5466215c5779d83063c80e9b14f0d2832b700c1"),
    ("verify pi-row --max-n 6 --format jsonl", 0, "6fe185420a83dafcef1d8b5660ac985d9768aada0c18a15e8e30a6c89c704ae3"),
    ("verify pi-row --max-n 36 --format json", 0, "b0b49ab88be2b25b8b8444276e1e89958b9a4f32aefec4fe772e4713504b9c1f"),
    ("verify coprime --max-n 6 -p 3 --format csv", 0, "3c24d6ea603d3a556ff679409f962156ec38e0343f655f3fb8ff71f50ba00d92"),
    ("verify coprime --max-n 6 -p 3 --format json", 0, "e94bb751e58f7e1b2a63d77b6ae5e12d2f95160382e1dbf181c0ac8b9c8cad09"),
    ("verify coprime --max-n 5 --format jsonl", 0, "75d0a5d3b36001ce8b81a754946a0f7dcc51e460e869fb1a14296fdef2e4c566"),
    # a repeated prime counts once: the digest of -p 3 --max-n 2
    ("verify coprime -p 3 -p 3 --max-n 2", 0, "4b1303da36507528d119e5532e563572cea2eee3dc04df12c9af9ba79a6d0517"),
    ("verify oracle --max-n 6 --format csv", 0, "5bc5caff484beada141bfc13dfa54693c8b2157825e38fb90e48c0103abacfe1"),
    ("verify oracle --max-n 6 --format json", 0, "e92b1f18fd03e8b9fd25048017d24c03a690874ad732580b0020dadf98c934a2"),
    ("verify oracle --max-n 6 --format jsonl", 0, "adee7bcb4c7e1621aa928989061a502051e5b1ca79dd2a3660bd3f5f1fc91903"),
    ("verify one-step -k 3", 0, "07fa051bc3f681151af338127267afa843cfdb66e9669a34f164c64d31a23b82"),
    ("verify pi-row", 0, "f1a8336c61ee98e0546419f20530598af36001c39181dba8377bedc0d1ddb10d"),
    ("verify oracle", 0, "82cbc4e9de1935a7166c75ecb4364c7ff36116e2363ef5ad3f36ddf5ed2d7fa1"),
    # The largest runs the guards accept, about 5 s together:
    ("verify oracle --max-rank 24 --format json", 0, "fbc73ee108c4d2b5cbcb52cf2a914d7cdaf170b2887de767cbfba690718814cc"),
    ("tree --max-rank 30 --f-valued", 0, "e892c8b1b108cc833c1182cf8cf37488bca24828eb8c8f2768e2846e3331ef7c"),
    ("tree --max-rank 30 --f-valued --format json", 0, "9230bf6d4f5004fd99a3ae8009178c13c60601b3a642d9534ec9423470d89a78"),
    ("enumerate -n 24 --format table", 0, "4b2497ca508a8e0be75413b324bce2789c1d98e2b673c3d0d321c0f3db7b3d4c"),
    ("enumerate -n 24 --format csv", 0, "95b88ffb2e7214ecd793282911da34d7154ef88f01a46ff744a32ed3d662a968"),
    ("enumerate -n 24 --format json", 0, "3947b5cc8924988b7a9b0cd44906945d8cba2679d58f90d0a229e0ae76f25d7e"),
    ("enumerate -n 24 --format jsonl", 0, "baf5e2f040e5878d85bf35de1da49c56375e55ffb9371a66acf6ab413cb68f3c"),
    ("verify coprime --max-n 24 --format json", 0, "7f4d3d4936a529977ced250fb87f875e1fd0291b6e6629e448979ea4ee9197fc"),
    # one prime asked six times is priced once, under the guard: the digest of -p 3 --max-n 24
    ("verify coprime -p 3 -p 3 -p 3 -p 3 -p 3 -p 3 --max-n 24", 0, "7062fb62923182f00dd9248e4b55febf55f2c9ee56cfa92e64c19f0922f70a37"),
    ("verify coprime -p 2 -p 3 -p 5 -p 7 -p 11 -p 13 -p 17 -p 19 --max-n 24", 0, "86414abfcae8179071d8d4fb7b7ad68949edbaf6ac0fefe85c969721bbd56210"),
    ("residues -n 24 -p 13", 0, "3ac0f2aa21f47ea40cae7d0c991e30e675ffdb0eb5bc0db1df7111457131f1fc"),
    ("enumerate -n 24 --filter coprime -p 7 --format csv", 0, "6f2420930390944e4d14177520fcb02340ef4b2d130a4951155c14ca0433bbea"),
    ("verify main -k 14 --n-extra 2 --format json", 0, "853fd9c3e2c0a7b16342300c4680b491ece8813bbe421eae1c719a5e6065ed60"),
    ("residues -n 4098 -k 13 --assert --format json", 0, "e15d08363b790af6436d6ae0f449a00865f7281b6950efc5308e2bc5fe79f9d8"),
    ("residues -n 8194 -k 14 --assert --format json", 0, "a3bb6a4813c02e2b9d0e2066b64af8c67c081a44d7ab88275bdf9808c2aafbbb"),
    ("residues -n 8193 -k 14 --assert --format json", 1, "f17aabdf28b7657231feb5b9dae3ad2f814b7d8110ea237eae78ce3a3debc989"),
    ("verify pi-row --max-n 40 --format json", 0, "2a61e4ad33f2a88320f52b4ca1e8cddfd3f9e9f10447fc24b173613f4268856f"),
    ("residues -n 40 -k 12 --method enum --format json", 0, "398830139aae317e6ea1c5d9bf829b4f6753e1345fc723eab06ead0c370eb88d"),
]

# The k = 14 threshold row and the row before it, the largest DP walks here:
# conftest.py's k14_threshold walks each once per session, for these CASES rows
# and for test_residues.py's test_k14_threshold_row.
K14_ROWS = {f"residues -n {n} -k 14 --assert --format json": n for n in (8194, 8193)}

DP_GUARD = "guard of 274877906944"  # residues.DP_MAX_WORK, 2^38

REFUSED = [
    # whole rows stop at rank 24, subset products at 40, the tree at 30
    ("enumerate -n 25", "guard of 24"),
    ("enumerate -n 25 --format csv", "guard of 24"),
    ("enumerate -n 25 --format json", "guard of 24"),
    ("enumerate -n 25 --format jsonl", "guard of 24"),
    ("verify coprime --max-n 25", "guard of 24"),
    ("verify coprime -p 3 --max-n 25", "guard of 24"),
    ("verify coprime -p 4 --max-n 25", "guard of 24"),  # the rank before the primes
    ("verify oracle --max-rank 25", "guard of 24"),
    ("residues -n 25 -p 7", "guard of 24"),
    ("verify pi-row --max-n 41", "guard of 40"),
    ("residues -n 41 -k 3 --method enum", "guard of 40"),
    ("residues -n 50 -k 3 --method enum", "guard of 40"),
    ("tree --max-rank 31", "guard of 30"),
    ("tree --max-rank 31 --format json", "guard of 30"),
    ("tree --max-rank 99", "guard of 30"),
    # modulus exponent 20, and 2^19 buckets for -p
    ("verify main -k 21", "guard of 20"),
    ("residues -n 10 -k 21", "guard of 20"),
    ("residues -n 4 -k 30", "guard of 20"),
    ("residues -n 5 -p 524309", "guard of 524288"),
    ("residues -n 3 -p 1000003", "guard of 524288"),
    # verify coprime's heads and tails, 3562 per distinct prime at --max-n 24: 2^22 at most, so 1177 primes;
    # 1178 distinct values, refused for the price before 4 is found not prime
    ("verify coprime --max-n 24" + "".join(f" -p {p}" for p in range(2, 1180)), "read 4196036 heads and tails, over the guard of 4194304"),
    # the DP's priced work
    ("verify main -k 15", DP_GUARD),
    ("residues -n 1000000000 -k 3", DP_GUARD),
    ("residues -n 10000000 -k 1", DP_GUARD),
    # a single row at k <= 2 is priced at least 4 * (n//2)^2: row 524289 is the last accepted
    ("residues -n 1048576 -k 1", DP_GUARD),
    ("residues -n 524290 -k 1", DP_GUARD),
    ("residues -n 524290 -k 2", DP_GUARD),
    # many cheap rows: refused for the rows read back, not for the last row's folds
    ("verify main -k 1 --n-extra 1000000", DP_GUARD),
    ("verify main -k 1 --n-extra 605394", DP_GUARD),
    ("verify one-step -k 1 --max-n 1000000", DP_GUARD),
    ("verify one-step -k 2 --max-n 700000", DP_GUARD),
    ("verify one-step -k 14 --max-n 6688", DP_GUARD),
    # one row past each multi-row edge the README states
    ("verify main -k 1 --n-extra 101430", DP_GUARD),
    ("verify one-step -k 4 --max-n 53196", DP_GUARD),
    ("verify one-step -k 14 --max-n 253", DP_GUARD),
    # arguments outside the domain
    ("verify main -k 0", "must be at least 1"),
    ("verify main -k 3 --n-extra -1", "n_extra must be nonnegative"),
    ("verify one-step -k 3 --max-n -1", "n_max must be nonnegative"),
    ("enumerate -n -2", "rank must be nonnegative"),
    ("residues -n 5 -p 9", "9 is not prime"),
    ("residues -n 5 -p 524289", "524289 is not prime"),
    ("residues -n 3 -p 524289", "524289 is not prime"),
    ("enumerate -n 5 --filter coprime -p 4", "4 is not prime"),
    ("enumerate -n 5 --filter coprime -p 4 --format csv", "4 is not prime"),
    ("enumerate -n 5 --filter coprime -p 4 --format json", "4 is not prime"),
    ("enumerate -n 5 --filter coprime -p 4 --format jsonl", "4 is not prime"),
    ("residues -n 25 -p 4", "4 is not prime"),
    ("enumerate -n 25 --filter coprime -p 4", "4 is not prime"),  # the prime before the row, as residues
    ("verify coprime -p 2 -p 4 --max-n 3", "4 is not prime"),  # every prime before the rows of the first
    ("residues -n 3 -p 2", "p must be an odd prime"),
    ("verify coprime -p 1 --max-n 2", "1 is not prime"),
    ("residues -n 3 -p 1763", "1763 is not prime"),  # 41 * 43: no witness divides it, Miller-Rabin decides
    ("verify coprime -p 318665857834031151167461 --max-n 1", "the bound of the deterministic primality test"),
]

# A missing, clashing or stray option, under the usage line of the command or suite given it.
USAGE = [
    ("enumerate -n 3 -p 3", "--prime/-p"),
    ("enumerate -n 3 --filter odd -p 3", "--prime/-p"),
    ("enumerate -n 3 --filter coprime", "--filter coprime requires --prime/-p"),
    ("tree --max-rank 3 --bogus", "unrecognized arguments: --bogus"),
    ("verify main", "-k/--modulus-pow"),
    ("verify main -k 3 -p 5", "unrecognized arguments: -p"),
    ("verify main -k 3 --max-n 7", "unrecognized arguments: --max-n"),
    ("verify one-step -k 3 --n-extra 1", "unrecognized arguments: --n-extra"),
    ("verify pi-row -p 3", "unrecognized arguments: -p"),
    ("verify coprime -k 3 -p 3", "unrecognized arguments: -k"),
    ("verify oracle -p 3", "unrecognized arguments: -p"),
    ("verify oracle -k 3", "unrecognized arguments: -k"),
    ("verify oracle --n-extra 5 --max-n 3", "unrecognized arguments: --n-extra"),
    ("residues -n 4", "-k/--modulus-pow -p/--prime"),
    ("residues -n 4 -k 2 -p 3", "not allowed with argument -k/--modulus-pow"),
    ("residues -n 4 -p 3 --method enum", "--method applies only to power-of-two moduli (-k)"),
]


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _ids(table):
    """Each row's command, a long one cut to its first 60 characters and its length."""
    return [row[0] if len(row[0]) <= 100 else f"{row[0][:60]}... ({len(row[0])} characters)" for row in table]


@pytest.mark.parametrize(("command", "code", "digest"), CASES, ids=_ids(CASES))
def test_stdout_digest(run, request, command, code, digest):
    if command in K14_ROWS:
        got_code, got_digest, _ = request.getfixturevalue("k14_threshold")(K14_ROWS[command])
    else:
        got_code, out, _ = run(*shlex.split(command))
        got_digest = _digest(out)
    assert (got_code, got_digest) == (code, digest)


@pytest.mark.parametrize(("command", "limit"), REFUSED, ids=_ids(REFUSED))
def test_guard_refuses_without_output(run, no_work, tmp_path, command, limit):
    target = tmp_path / "out"
    for argv in (shlex.split(command), [*shlex.split(command), "--out", str(target)]):
        code, out, err = run(*argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and limit in err, err
    assert not target.exists()


@pytest.mark.parametrize(("command", "message"), USAGE, ids=_ids(USAGE))
def test_usage_error_names_the_option(run, command, message):
    argv = shlex.split(command)
    leaf = " ".join(argv[:2] if argv[0] == "verify" else argv[:1])
    code, out, err = run(*argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: yflattice {leaf} ") and message in err, err


def print_cases():
    from conftest import run_cli

    for command, _, _ in CASES:
        code, out, _ = run_cli(*shlex.split(command))
        print(f'    ("{command}", {code}, "{_digest(out)}"),')
