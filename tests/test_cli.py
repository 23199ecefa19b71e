import json

from yflattice import cli, fstat, primes, residues
from yflattice.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_table(capsys):
    code, out, _ = run(capsys, "enumerate", "-n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["word", "rank", "f", "odd"]
    assert len(lines) == 6
    assert lines[1].split() == ["1111", "4", "1", "true"]
    assert lines[3].split() == ["121", "4", "2", "false"]


def test_enumerate_csv_odd_filter(capsys):
    code, out, _ = run(capsys, "enumerate", "-n", "7", "--filter", "odd", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "word,rank,f,odd"
    assert [line.split(",")[0] for line in lines[1:]] == [
        "1111111", "111112", "111211", "11122", "121111", "12112", "12211", "1222",
    ]
    assert all(line.endswith("true") for line in lines[1:])


def test_enumerate_coprime_filter(capsys):
    code, out, _ = run(capsys, "enumerate", "-n", "3", "--filter", "coprime", "-p", "3", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert [r["word"] for r in records] == ["111", "12", "21"]
    assert all(isinstance(r["f"], str) for r in records)


def test_enumerate_empty_word_tokens(capsys):
    code, out, _ = run(capsys, "enumerate", "-n", "0")
    assert code == 0
    assert out.splitlines()[1].split()[0] == "e"
    code, out, _ = run(capsys, "enumerate", "-n", "0", "--format", "json")
    assert json.loads(out)[0]["word"] == ""


def test_enumerate_usage_errors(capsys):
    code, _, _ = run(capsys, "enumerate", "-n", "3", "--filter", "coprime")
    assert code == 2
    code, _, err = run(capsys, "enumerate", "-n", "-2")
    assert code == 1
    assert "error" in err


def test_tree_dot(capsys):
    code, out, _ = run(capsys, "tree", "--max-rank", "2")
    assert code == 0
    assert out.startswith("graph macdonald_tree {")
    assert out.count("label=") == 4
    assert out.count(" -- ") == 3
    assert '"e" -- "1";' in out


def test_tree_dot_f_valued(capsys):
    code, out, _ = run(capsys, "tree", "--max-rank", "4", "--f-valued")
    assert code == 0
    assert '"22" [label="22 : 3"];' in out
    assert '"e" [label="e : 1"];' in out


def test_tree_json(capsys):
    code, out, _ = run(capsys, "tree", "--max-rank", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_rank"] == 3
    root = doc["root"]
    assert root["word"] == "" and root["f"] == "1"
    assert [c["word"] for c in root["children"]] == ["1"]
    grandchildren = root["children"][0]["children"]
    assert [c["word"] for c in grandchildren] == ["11", "2"]


def test_tree_guards(capsys):
    code, _, err = run(capsys, "tree", "--max-rank", "99")
    assert code == 1 and "guard" in err
    code, out, err = run(capsys, "tree", "--max-rank", "31")
    assert code == 1 and out == "" and "guard of 30" in err
    code, _, _ = run(capsys, "tree", "--max-rank", "0")
    assert code == 0


def test_verify_main_suite(capsys):
    code, out, _ = run(capsys, "verify", "main", "-k", "3")
    assert code == 0
    assert "3/3 checks passed" in out


def test_verify_main_requires_k(capsys):
    code, _, _ = run(capsys, "verify", "main")
    assert code == 2


def test_verify_one_step_jsonl(capsys):
    code, out, _ = run(capsys, "verify", "one-step", "-k", "2", "--max-n", "6", "--format", "jsonl")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 7
    assert all(r["ok"] for r in records)
    assert all(r["step_identity"] for r in records)


def test_verify_records_are_the_library_records(capsys):
    for argv, records in (
        (["main", "-k", "3", "--n-extra", "2"], residues.verify_main_theorem(3, 2)),
        (["one-step", "-k", "3", "--max-n", "12"], residues.verify_one_step(3, 12)),
    ):
        code, out, _ = run(capsys, "verify", *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["records"] == records


def test_verify_pi_row(capsys, monkeypatch):
    code, _, _ = run(capsys, "verify", "pi-row", "--max-n", "10")
    assert code == 0
    # mutation: every odd integer up to n as the factor set breaks odd rows
    monkeypatch.setattr(residues, "_row_factors", lambda n: range(1, n + 1, 2))
    code, _, err = run(capsys, "verify", "pi-row", "--max-n", "8")
    assert code == 1
    assert "FAIL" in err


def test_verify_coprime_json(capsys):
    code, out, _ = run(capsys, "verify", "coprime", "--max-n", "6", "-p", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert len(doc["records"]) == 7
    assert all(r["count"] == r["closed_form_count"] and r["agree"] for r in doc["records"])


def test_verify_coprime_csv_columns(capsys):
    code, out, _ = run(capsys, "verify", "coprime", "--max-n", "4", "-p", "3", "--format", "csv")
    assert code == 0
    header = out.strip().splitlines()[0].split(",")
    for column in ("n", "count", "closed_form_count", "agree"):
        assert column in header


def test_verify_coprime_walks_each_row_once(capsys, monkeypatch):
    calls = {"f_mod": 0, "rows": []}
    f_mod, enumerate_rank = primes.f_mod, cli.enumerate_rank

    def counted_f_mod(w, m):
        calls["f_mod"] += 1
        return f_mod(w, m)

    def counted_rows(n):
        calls["rows"].append(n)
        return enumerate_rank(n)

    monkeypatch.setattr(primes, "f_mod", counted_f_mod)
    monkeypatch.setattr(cli, "enumerate_rank", counted_rows)
    monkeypatch.setattr(primes, "enumerate_rank", counted_rows)
    code, _, _ = run(capsys, "verify", "coprime", "-p", "3", "--max-n", "10")
    assert code == 0
    assert calls["f_mod"] == 232  # the words of rows 0..10: F(13) - 1
    assert calls["rows"] == list(range(11))


def test_verify_oracle(capsys):
    code, out, _ = run(capsys, "verify", "oracle", "--max-rank", "9")
    assert code == 0
    assert "10/10 checks passed" in out


def test_verify_oracle_counts_each_word_once(capsys, monkeypatch):
    calls = []
    covers_down = fstat.covers_down

    def counted(w):
        calls.append(w)
        return covers_down(w)

    fstat._chains.cache_clear()
    monkeypatch.setattr(fstat, "covers_down", counted)
    code, _, _ = run(capsys, "verify", "oracle", "--max-rank", "12")
    assert code == 0
    assert len(calls) <= 609  # the words of rows 0..12: F(15) - 1


def test_whole_row_guards(capsys):
    code, out, err = run(capsys, "enumerate", "-n", "25")
    assert code == 1 and out == "" and "guard of 24" in err
    code, out, err = run(capsys, "verify", "oracle", "--max-rank", "25")
    assert code == 1 and out == "" and "guard of 24" in err


def test_verify_coprime_guard_before_rows(capsys, monkeypatch):
    def refuse(n, *args, **kwargs):
        raise AssertionError(f"row {n} computed before the guard")

    monkeypatch.setattr(cli, "enumerate_rank", refuse)
    monkeypatch.setattr(primes, "enumerate_rank", refuse)
    monkeypatch.setattr(cli, "pi_multiset", refuse)
    monkeypatch.setattr(cli, "f_valued_row", refuse)
    for argv, guard in (
        (("coprime", "-p", "3", "--max-n", "25"), "guard of 24"),
        (("pi-row", "--max-n", "41"), "guard of 40"),
    ):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 1 and out == "" and guard in err


def test_verify_max_rank_is_max_n(capsys):
    outputs = []
    for flag in ("--max-n", "--max-rank"):
        code, out, _ = run(capsys, "verify", "oracle", flag, "3", "--format", "json")
        assert code == 0
        outputs.append(json.loads(out)["records"])
    assert outputs[0] == outputs[1]
    assert [r["n"] for r in outputs[0]] == [0, 1, 2, 3]


def test_modulus_guard(capsys):
    code, out, err = run(capsys, "residues", "-n", "4", "-k", "30")
    assert code == 1 and out == "" and "guard of 20" in err
    code, out, err = run(capsys, "verify", "main", "-k", "21")
    assert code == 1 and out == "" and "guard of 20" in err
    code, out, err = run(capsys, "residues", "-n", "3", "-p", "1000003")
    assert code == 1 and out == "" and "guard of 524288" in err


def test_dp_work_guard(capsys, monkeypatch):
    def no_fold(*args):
        raise AssertionError("folded before the guard")

    monkeypatch.setattr(residues, "_fold", no_fold)
    for argv in (("verify", "main", "-k", "15"), ("residues", "-n", "10000000", "-k", "1")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "guard of" in err


def test_residues_table_and_assert(capsys):
    code, out, _ = run(capsys, "residues", "-n", "6", "-k", "3")
    assert code == 0
    assert "verdict: flat" in out
    code, out, _ = run(capsys, "residues", "-n", "5", "-k", "3")
    assert code == 0
    assert "verdict: not-flat" in out
    code, _, _ = run(capsys, "residues", "-n", "5", "-k", "3", "--assert")
    assert code == 1
    code, _, _ = run(capsys, "residues", "-n", "6", "-k", "3", "--assert")
    assert code == 0


def test_residues_csv(capsys):
    code, out, err = run(capsys, "residues", "-n", "6", "-k", "3", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines() == ["residue,count", "1,2", "3,2", "5,2", "7,2"]
    assert "verdict: flat" in err


def test_residues_json_methods_agree(capsys):
    code, dp_out, _ = run(capsys, "residues", "-n", "12", "-k", "4", "--format", "json")
    assert code == 0
    code, enum_out, _ = run(capsys, "residues", "-n", "12", "-k", "4", "--method", "enum", "--format", "json")
    assert code == 0
    dp_doc, enum_doc = json.loads(dp_out), json.loads(enum_out)
    assert dp_doc["counts"] == enum_doc["counts"]
    assert dp_doc["method"] == "dp" and enum_doc["method"] == "enum"


def test_residues_prime_modulus(capsys):
    code, out, _ = run(capsys, "residues", "-n", "3", "-p", "3", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines() == ["residue,count", "1,2", "2,1"]


def test_residues_usage_errors(capsys):
    code, _, _ = run(capsys, "residues", "-n", "4")
    assert code == 2
    code, _, _ = run(capsys, "residues", "-n", "4", "-k", "2", "-p", "3")
    assert code == 2
    code, _, _ = run(capsys, "residues", "-n", "4", "-p", "3", "--method", "enum")
    assert code == 2
    code, _, _ = run(capsys, "residues", "-n", "50", "-k", "3", "--method", "enum")
    assert code == 1


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "tree", "--max-rank", "6", "--f-valued")
    _, second, _ = run(capsys, "tree", "--max-rank", "6", "--f-valued")
    assert first == second


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "row.csv"
    code, out, _ = run(capsys, "enumerate", "-n", "3", "--format", "csv", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[0] == "word,rank,f,odd"


def test_out_unwritable_path_is_an_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "enumerate", "-n", "3", "--format", "csv", "--out", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert not target.exists()


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
