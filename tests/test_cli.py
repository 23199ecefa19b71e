import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from yflattice import cli, coprime_count, enumerate_rank, fstat, is_coprime_structural, primes, residues, word_text
from yflattice.macdonald import build_tree


def test_enumerate_table(run):
    code, out, _ = run("enumerate", "-n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["word", "rank", "f", "odd"]
    assert len(lines) == 6
    assert lines[1].split() == ["1111", "4", "1", "true"]
    assert lines[3].split() == ["121", "4", "2", "false"]


def test_enumerate_csv_odd_filter(run):
    code, out, _ = run("enumerate", "-n", "7", "--filter", "odd", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "word,rank,f,odd"
    assert [line.split(",")[0] for line in lines[1:]] == [
        "1111111", "111112", "111211", "11122", "121111", "12112", "12211", "1222",
    ]
    assert all(line.endswith("true") for line in lines[1:])


def test_enumerate_coprime_filter(run):
    code, out, _ = run("enumerate", "-n", "3", "--filter", "coprime", "-p", "3", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert [r["word"] for r in records] == ["111", "12", "21"]
    assert all(isinstance(r["f"], str) for r in records)


def test_enumerate_empty_word_tokens(run):
    code, out, _ = run("enumerate", "-n", "0")
    assert code == 0
    assert out.splitlines()[1].split()[0] == "e"
    code, out, _ = run("enumerate", "-n", "0", "--format", "json")
    assert json.loads(out)[0]["word"] == ""


def test_tree_dot(run):
    code, out, _ = run("tree", "--max-rank", "2")
    assert code == 0
    assert out.startswith("graph macdonald_tree {")
    assert out.count("label=") == 4
    assert out.count(" -- ") == 3
    assert '"e" -- "1";' in out


def test_tree_dot_f_valued(run):
    code, out, _ = run("tree", "--max-rank", "4", "--f-valued")
    assert code == 0
    assert '"22" [label="22 : 3"];' in out
    assert '"e" [label="e : 1"];' in out


def test_tree_json(run):
    code, out, _ = run("tree", "--max-rank", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_rank"] == 3
    root = doc["root"]
    assert root["word"] == "" and root["f"] == "1"
    assert [c["word"] for c in root["children"]] == ["1"]
    grandchildren = root["children"][0]["children"]
    assert [c["word"] for c in grandchildren] == ["11", "2"]


def _nested(node):
    return {
        "word": word_text(node.word, empty=""),
        "f": str(node.f),
        "children": [_nested(child) for child in node.children],
    }


@given(st.integers(min_value=0, max_value=16))
def test_tree_json_is_the_materialized_tree(run, max_rank):
    code, out, _ = run("tree", "--max-rank", str(max_rank), "--format", "json")
    assert code == 0
    assert json.loads(out) == {"max_rank": max_rank, "root": _nested(build_tree(max_rank).root)}


@given(st.integers(min_value=0, max_value=16), st.booleans())
def test_tree_dot_lines_are_the_materialized_rows(run, max_rank, f_valued):
    flags = ["--f-valued"] if f_valued else []
    code, out, _ = run("tree", "--max-rank", str(max_rank), "--format", "dot", *flags)
    assert code == 0
    nodes = [node for row in build_tree(max_rank).rows() for node in row]
    names = [word_text(node.word) for node in nodes]
    labels = [f"{name} : {node.f}" if f_valued else name for name, node in zip(names, nodes)]
    edges = [(word_text(node.word), word_text(child.word)) for node in nodes for child in node.children]
    assert out.splitlines() == [
        "graph macdonald_tree {",
        *(f'  "{name}" [label="{label}"];' for name, label in zip(names, labels)),
        *(f'  "{parent}" -- "{child}";' for parent, child in edges),
        "}",
    ]


def test_tree_out_writes_the_stdout_bytes(run, tmp_path):
    for fmt in ("dot", "json"):
        argv = ["tree", "--max-rank", "9", "--f-valued", "--format", fmt]
        target = tmp_path / f"tree.{fmt}"
        assert run(*argv, "--out", str(target)) == (0, "", "")
        code, out, _ = run(*argv)
        assert code == 0 and target.read_bytes() == out.encode()


def test_enumerate_out_writes_the_stdout_bytes(tmp_path, run):
    for fmt in ("table", "csv", "json", "jsonl"):
        argv = ("enumerate", "-n", "9", "--filter", "coprime", "-p", "3", "--format", fmt)
        code, out, _ = run(*argv)
        assert code == 0
        target = tmp_path / f"row.{fmt}"
        assert run(*argv, "--out", str(target)) == (0, "", "")
        assert target.read_text() == out


def test_enumerate_json_is_the_dumped_records(run):
    for n in (0, 1, 7, 12):
        code, out, _ = run("enumerate", "-n", str(n), "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert [r["word"] for r in records] == [word_text(w, empty="") for w in enumerate_rank(n)]
        assert out == json.dumps(records, indent=2) + "\n"
        code, out, _ = run("enumerate", "-n", str(n), "--format", "jsonl")
        assert out == "".join(json.dumps(r) + "\n" for r in records)


def test_verify_main_suite(run):
    code, out, _ = run("verify", "main", "-k", "3")
    assert code == 0
    assert "3/3 checks passed" in out


def test_verify_one_step_jsonl(run):
    code, out, _ = run("verify", "one-step", "-k", "2", "--max-n", "6", "--format", "jsonl")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 7
    assert all(r["ok"] for r in records)
    assert all(r["step_identity"] for r in records)


def test_verify_records_are_the_library_records(run):
    for argv, records in (
        (["main", "-k", "3", "--n-extra", "2"], residues.verify_main_theorem(3, 2)),
        (["one-step", "-k", "3", "--max-n", "12"], residues.verify_one_step(3, 12)),
    ):
        code, out, _ = run("verify", *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["records"] == records


def test_verify_pi_row(run, monkeypatch):
    code, _, _ = run("verify", "pi-row", "--max-n", "10")
    assert code == 0
    # mutation: every odd integer up to n as the factor set breaks odd rows
    monkeypatch.setattr(residues, "_row_factors", lambda n: range(1, n + 1, 2))
    code, out, err = run("verify", "pi-row", "--max-n", "8", "--format", "json")
    assert code == 1
    assert "FAIL: suite pi-row" in err
    assert [r["n"] for r in json.loads(out)["records"] if not r["ok"]] == [1, 3, 5, 7]
    # mutation: the right number of factors, shifted by one, fails on the values alone
    monkeypatch.setattr(residues, "_row_factors", lambda n: range(3, 2 * (n // 2) + 2, 2))
    code, out, err = run("verify", "pi-row", "--max-n", "6", "--format", "json")
    records = json.loads(out)["records"]
    assert code == 1 and "FAIL: suite pi-row" in err
    assert all(r["cardinality"] == 1 << (r["n"] // 2) for r in records)
    assert [r["n"] for r in records if not r["ok"]] == [2, 3, 4, 5, 6]


def test_verify_coprime_json(run):
    code, out, _ = run("verify", "coprime", "--max-n", "6", "-p", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert len(doc["records"]) == 7
    assert all(r["count"] == r["closed_form_count"] and r["agree"] for r in doc["records"])


def test_verify_coprime_csv_columns(run):
    code, out, _ = run("verify", "coprime", "--max-n", "4", "-p", "3", "--format", "csv")
    assert code == 0
    header = out.strip().splitlines()[0].split(",")
    for column in ("n", "count", "closed_form_count", "agree"):
        assert column in header


def _patch_head_route(monkeypatch, route):
    """primes.splits patched with route(w, cut, p) for verify coprime's head checks only.

    is_coprime_structural, the tail route, looks splits up in primes too:
    its own calls keep the real splits.
    """
    structural, splits = primes.is_coprime_structural, primes.splits
    in_tail = []

    def tail_route(w, p):
        in_tail.append(w)
        try:
            return structural(w, p)
        finally:
            in_tail.pop()

    monkeypatch.setattr(primes, "is_coprime_structural", tail_route)
    monkeypatch.setattr(primes, "splits", lambda w, cut, p: splits(w, cut, p) if in_tail else route(w, cut, p))


def test_verify_coprime_walks_each_row_once(run, monkeypatch):
    calls = {"structural": 0, "splits": 0, "rows": []}
    splits, enumerate_rank = primes.splits, fstat.enumerate_rank

    def counted_splits(w, cut, p):
        calls["splits"] += 1
        return splits(w, cut, p)

    _patch_head_route(monkeypatch, counted_splits)
    structural = primes.is_coprime_structural

    def counted_structural(w, p):
        calls["structural"] += 1
        return structural(w, p)

    def counted_rows(n):
        calls["rows"].append(n)
        return enumerate_rank(n)

    monkeypatch.setattr(primes, "is_coprime_structural", counted_structural)
    monkeypatch.setattr(fstat, "enumerate_rank", counted_rows)  # the block walk's row source
    code, _, _ = run("verify", "coprime", "-p", "3", "--max-n", "10")
    assert code == 0
    # Row n (h = n // 2) reads its tails, rows h and h - 1: F(h + 1) words,
    # 1 + 1 + 2 + 2 + 3 + 3 + 5 + 5 + 8 + 8 + 13 over rows 0..10.
    assert calls["structural"] == 51
    # and checks each head once, rows n - h and n - h - 1: F(n - h + 1) blocks,
    # 1 + 2 + 2 + 3 + 3 + 5 + 5 + 8 + 8 + 13 + 13; the rows hold F(13) - 1 = 232 words.
    assert calls["splits"] == 63
    assert calls["rows"] == list(range(11))


def _change_blocks(f_blocks, where, change):
    """f_blocks with the last tail of row n // 2 (its f) or the middle block (its g) passed through change."""
    def changed(n):
        tails, fs, blocks = f_blocks(n)
        if where == "tail":
            return tails, (fs[0][:-1] + [change(fs[0][-1])], fs[1]), blocks
        i = len(blocks) // 2
        head, g, t = blocks[i]
        return tails, fs, blocks[:i] + [(head, change(g), t)] + blocks[i + 1 :]

    return changed


@pytest.mark.parametrize(
    "where, change",
    [(None, None), ("tail", lambda f: f * 30030), ("tail", lambda f: 1), ("head", lambda g: g * 30030), ("head", lambda g: 1)],
    ids=["as-is", "tail-times-30030", "tail-one", "head-times-30030", "head-one"],
)
def test_verify_coprime_equals_the_per_word_reference(run, monkeypatch, where, change):
    # The block route's records against a reference made word by word from
    # f_row and is_coprime_structural.  Changing one f or one g (30030 is
    # 2*3*5*7*11*13) makes words whose two verdicts differ, so
    # predicates_agree must turn false in exactly the rows that hold one.
    if where:
        changed = _change_blocks(fstat.f_blocks, where, change)
        monkeypatch.setattr(fstat, "f_blocks", changed)  # the row source of f_row and of verify coprime
    primes = (2, 3, 5, 7, 11, 13)
    expected = []  # (p, n, count, closed_form_count, agree, predicates_agree)
    for p in primes:
        for n in range(15):
            verdicts = [(f % p != 0, is_coprime_structural(w, p)) for w, f in fstat.f_row(n)]
            count, closed = sum(direct for direct, _ in verdicts), coprime_count(p, n)
            expected.append((p, n, count, closed, count == closed, all(direct == split for direct, split in verdicts)))
    code, out, _ = run("verify", "coprime", *[arg for p in primes for arg in ("-p", str(p))], "--max-n", "14", "--format", "json")
    keys = ("p", "n", "count", "closed_form_count", "agree", "predicates_agree")
    assert [tuple(r[key] for key in keys) for r in json.loads(out)["records"]] == expected
    assert code == (0 if where is None else 1)
    assert any(not row[-1] for row in expected) == (where is not None)


def test_row_suites_report_a_disagreeing_route(run, monkeypatch):
    structural, splits, f_recursive = primes.is_coprime_structural, primes.splits, fstat.f_recursive
    # coprime reads each tail through is_coprime_structural and each head
    # through splits: one wrong verdict on "12" fails exactly the rows that
    # read it, as a tail (rows 6 and 7) or as a head (row 1 + "2" in rows 3
    # and 4, row 3 itself in rows 5 and 6)
    wrong = "12"

    def read(n, kind):
        tails, _, blocks = fstat.f_blocks(n)
        return {head for head, _, _ in blocks} if kind == "head" else {w for _, _, t in blocks for w in tails[t]}

    for name, route, kind, rows in (
        ("is_coprime_structural", lambda w, p: structural(w, p) ^ (w == wrong), "tail", [6, 7]),
        ("splits", lambda w, cut, p: splits(w, cut, p) ^ (w == wrong), "head", [3, 4, 5, 6]),
    ):
        assert [n for n in range(8) if wrong in read(n, kind)] == rows
        if name == "splits":
            _patch_head_route(monkeypatch, route)
        else:
            monkeypatch.setattr(primes, name, route)
        code, out, err = run("verify", "coprime", "-p", "3", "--max-n", "7", "--format", "json")
        assert code == 1 and err == "FAIL: suite coprime\n"
        records = json.loads(out)["records"]
        assert [r["n"] for r in records if not r["predicates_agree"]] == rows
        assert all(r["agree"] for r in records)  # the direct route is untouched
        monkeypatch.undo()
    wrong = "1212"  # one word of rank 6, deep inside the row
    monkeypatch.setattr(fstat, "f_recursive", lambda w: f_recursive(w) + (w == wrong))
    code, out, err = run("verify", "oracle", "--max-n", "7", "--format", "json")
    assert code == 1 and err == "FAIL: suite oracle\n"
    records = json.loads(out)["records"]
    assert [r["n"] for r in records if not r["ok"]] == [6]
    # every word is walked, past the disagreement too
    assert [r["words"] for r in records] == [1, 1, 2, 3, 5, 8, 13, 21]


def test_verify_oracle(run):
    code, out, _ = run("verify", "oracle", "--max-rank", "9")
    assert code == 0
    assert "10/10 checks passed" in out


def test_verify_oracle_counts_each_word_once(run, monkeypatch):
    calls = []
    covers_down = fstat.covers_down

    def counted(w):
        calls.append(w)
        return covers_down(w)

    fstat._chains.cache_clear()
    monkeypatch.setattr(fstat, "covers_down", counted)
    code, _, _ = run("verify", "oracle", "--max-rank", "12")
    assert code == 0
    assert len(calls) <= 609  # the words of rows 0..12: F(15) - 1


def test_verify_coprime_word_guard_boundary(run, monkeypatch):
    # 5 primes over rows 0..24 walk 5 * 196417 = 982085 <= 2^20 words, 6 walk 1178502
    def reached(n):
        raise ValueError(f"reached row {n}")

    monkeypatch.setattr(fstat, "f_blocks", reached)  # the row source of verify coprime
    for count, verdict in ((5, "reached row 0"), (6, "6 primes over rows 0..24 walk 1178502 words, over the guard of 1048576")):
        primes_argv = [arg for p in (2, 3, 5, 7, 11, 13)[:count] for arg in ("-p", str(p))]
        code, out, err = run("verify", "coprime", *primes_argv, "--max-n", "24")
        assert code == 1 and out == "" and err == f"error: {verdict}\n"
    assert cli.COPRIME_MAX_WORDS == 1 << 20


def test_verify_max_rank_is_max_n(run):
    outputs = []
    for flag in ("--max-n", "--max-rank"):
        code, out, _ = run("verify", "oracle", flag, "3", "--format", "json")
        assert code == 0
        outputs.append(json.loads(out)["records"])
    assert outputs[0] == outputs[1]
    assert [r["n"] for r in outputs[0]] == [0, 1, 2, 3]


def test_residues_table_and_assert(run):
    code, out, _ = run("residues", "-n", "6", "-k", "3")
    assert code == 0
    assert "verdict: flat" in out
    code, out, _ = run("residues", "-n", "5", "-k", "3")
    assert code == 0
    assert "verdict: not-flat" in out
    code, _, _ = run("residues", "-n", "5", "-k", "3", "--assert")
    assert code == 1
    code, _, _ = run("residues", "-n", "6", "-k", "3", "--assert")
    assert code == 0


def test_residues_counts_past_the_int_digit_limit(run):
    # row 28580 mod 2 is one count, 2^14290, of 4302 digits: past CPython's default limit of 4300
    outputs = {fmt: run("residues", "-n", "28580", "-k", "1", "--format", fmt) for fmt in ("table", "csv", "json")}
    count = str(1 << 14290)  # the run above lifted the limit in this process
    assert outputs["table"] == (0, f"residue  count\n1        {count}\nverdict: flat\n", "")
    assert outputs["csv"] == (0, f"residue,count\n1,{count}\n", "verdict: flat\n")
    code, out, _ = outputs["json"]
    assert code == 0 and json.loads(out)["counts"] == {"1": 1 << 14290}


def test_residues_csv(run):
    code, out, err = run("residues", "-n", "6", "-k", "3", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines() == ["residue,count", "1,2", "3,2", "5,2", "7,2"]
    assert "verdict: flat" in err


def test_residues_json_methods_agree(run):
    code, dp_out, _ = run("residues", "-n", "12", "-k", "4", "--format", "json")
    assert code == 0
    code, enum_out, _ = run("residues", "-n", "12", "-k", "4", "--method", "enum", "--format", "json")
    assert code == 0
    dp_doc, enum_doc = json.loads(dp_out), json.loads(enum_out)
    assert dp_doc["counts"] == enum_doc["counts"]
    assert dp_doc["method"] == "dp" and enum_doc["method"] == "enum"


def test_residues_prime_modulus(run):
    code, out, _ = run("residues", "-n", "3", "-p", "3", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines() == ["residue,count", "1,2", "2,1"]


small = st.integers(min_value=0, max_value=8)
text_argv = st.one_of(
    st.tuples(st.just("enumerate"), st.just("-n"), small.map(str), st.just("--filter"), st.sampled_from(["all", "odd"])),
    st.tuples(st.just("enumerate"), st.just("-n"), small.map(str), st.just("--filter"), st.just("coprime"), st.just("-p"), st.sampled_from("2357")),
    st.tuples(st.just("residues"), st.just("-n"), st.integers(0, 12).map(str), st.just("-k"), st.sampled_from("12345")),
    st.tuples(st.just("residues"), st.just("-n"), st.integers(0, 12).map(str), st.just("-p"), st.sampled_from(["3", "5", "7", "11"])),
    st.tuples(st.just("verify"), st.just("main"), st.just("-k"), st.sampled_from("1234"), st.just("--n-extra"), st.sampled_from("0123")),
    st.tuples(st.just("verify"), st.just("one-step"), st.just("-k"), st.sampled_from("1234"), st.just("--max-n"), small.map(str)),
    st.tuples(st.just("verify"), st.sampled_from(["pi-row", "coprime", "oracle"]), st.just("--max-n"), small.map(str)),
)


def _starts(line):
    return [m.start() for m in re.finditer(r"\S+", line)]


@settings(deadline=None)
@given(text_argv)
def test_table_is_the_csv_aligned(run, argv):
    (code, table, table_err), (csv_code, csv, csv_err) = (run(*argv, "--format", fmt) for fmt in ("table", "csv"))
    assert code == csv_code == 0 and table_err == ""
    lines, rows = table.splitlines(), [line.split(",") for line in csv.splitlines()]
    if argv[0] == "verify":
        ok = rows[0].index("ok")
        trailer = [f"{sum(row[ok] == 'true' for row in rows[1:])}/{len(rows) - 1} checks passed"]
        assert csv_err == ""
    elif argv[0] == "residues":
        trailer = [f"verdict: {'flat' if len({count for _, count in rows[1:]}) == 1 else 'not-flat'}"]
        assert csv_err == trailer[0] + "\n"
    else:
        trailer = []
        assert csv_err == ""
    assert lines[len(rows) :] == trailer
    assert [line.split() for line in lines[: len(rows)]] == rows
    # column j starts two spaces past column j - 1's widest cell or key, on every line
    widths = [max(map(len, column)) for column in zip(*rows)]
    offsets = [sum(widths[:j]) + 2 * j for j in range(len(widths))]
    assert all(_starts(line) == offsets for line in lines[: len(rows)])


def test_deterministic_output(run):
    _, first, _ = run("tree", "--max-rank", "6", "--f-valued")
    _, second, _ = run("tree", "--max-rank", "6", "--f-valued")
    assert first == second


def test_out_writes_file(tmp_path, run):
    target = tmp_path / "row.csv"
    code, out, _ = run("enumerate", "-n", "3", "--format", "csv", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[0] == "word,rank,f,odd"


def test_out_unwritable_path_is_an_error(tmp_path, run):
    target = tmp_path / "missing" / "x.csv"
    # residues csv writes its verdict to stderr, but only after a write that succeeds
    for argv in (("enumerate", "-n", "3"), ("residues", "-n", "6", "-k", "3")):
        code, out, err = run(*argv, "--format", "csv", "--out", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1 and "Traceback" not in err
        assert not target.exists()


def test_help_exits_zero(run):
    assert run("--help")[0] == 0
