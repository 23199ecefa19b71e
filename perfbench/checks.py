"""Output checks for the benchmark's CLI jobs.

Every check rests on a closed form from the paper, never on a second route
through the library:

- the row of rank n holds |F(n)| = Fib(n+1) distinct words, each of digit
  sum n;
- a word's chain count is coprime to a prime p exactly when the word splits
  into a prefix of rank n mod p and segments of rank p, so
  C_p(n) = |F(p)|^m * |F(r)| with n = p*m + r;
- the odd words of rank n number 2^(n//2): tree row r has 2^(r//2) nodes,
  an even-rank node w has the one child 1w with the same chain count, and
  an odd-rank node 1v has the children 11v (same count) and 2v (count times
  the parent's rank);
- the histogram mod 2^k of row n sums to 2^(n//2) and is flat from row
  2^(k-1)+2 on; for k <= 10 that row is also the first flat one.

Each check takes the job's standard output and returns the number of
records it read, or raises CheckError naming what is wrong.
"""

from __future__ import annotations

import json
import re


class CheckError(Exception):
    """The output of a job contradicts what the job must produce."""


def row_size(n: int) -> int:
    """|F(n)|, the number of words of rank n: Fib(n+1)."""
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def coprime_row_size(p: int, n: int) -> int:
    """C_p(n), the number of rank-n words whose chain count is coprime to p."""
    m, r = divmod(n, p)
    return row_size(p) ** m * row_size(r)


def flat_threshold(k: int) -> int:
    """First row whose odd-row histogram mod 2^k is flat."""
    return (1 << (k - 1)) + 2


# the DP scan that found the threshold sharp covered k = 2..10
SHARP_MAX_K = 10


def expected_flat(n: int, k: int) -> bool | None:
    """Flatness of row n mod 2^k where it is known, else None."""
    if n >= flat_threshold(k):
        return True
    if 2 <= k <= SHARP_MAX_K:
        return False
    return None


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckError(reason)


def _json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None


def _check_word(word: str, n: int) -> None:
    _require(set(word) <= {"1", "2"}, f"word {word!r} has digits other than 1 and 2")
    _require(sum(map(int, word)) == n, f"word {word!r} does not have rank {n}")


def check_help(text: str) -> int:
    _require(text.startswith("usage: yflattice"), "--help printed no usage line")
    return 1


def check_enumerate(text: str, *, n: int, fmt: str, prime: int | None = None) -> int:
    """A whole row, or its coprime-to-p part when prime is given."""
    if fmt == "jsonl":
        records = [_json(line) for line in text.splitlines()]
    elif fmt == "csv":
        lines = text.splitlines()
        _require(lines[:1] == ["word,rank,f,odd"], "missing CSV header")
        records = []
        for line in lines[1:]:
            word, rnk, f, odd = line.split(",")
            records.append({"word": word, "rank": int(rnk), "f": f, "odd": odd == "true"})
    else:
        raise ValueError(f"unchecked format {fmt}")
    expected = row_size(n) if prime is None else coprime_row_size(prime, n)
    _require(len(records) == expected, f"{len(records)} records, expected {expected}")
    words = [r["word"] for r in records]
    _require(len(set(words)) == len(words), "a word is listed twice")
    for r in records:
        _check_word(r["word"], n)
        _require(r["rank"] == n, f"record {r['word']} has rank field {r['rank']}")
        f = int(r["f"])
        _require(r["odd"] == (f % 2 == 1), f"record {r['word']} has odd flag {r['odd']} for f = {f}")
        if prime is not None:
            _require(f % prime != 0, f"record {r['word']} has f = {f}, a multiple of {prime}")
    return len(records)


def check_verify(text: str, *, suite: str, **params) -> int:
    """A verify suite in JSON: ok, one record per expected row, closed-form fields."""
    payload = _json(text)
    records = payload["records"]
    _require(payload["ok"] is True, "suite reports ok: false")
    _require(all(r["ok"] is True for r in records), "a record reports ok: false")
    if suite == "main":
        k, start = params["k"], flat_threshold(params["k"])
        ns = list(range(start, start + params["n_extra"] + 1))
        _require(all(r["k"] == k for r in records), "record with another k")
    elif suite == "one-step":
        k = params["k"]
        ns = list(range(params["max_n"] + 1))
        for r in records:
            _require(r["step_identity"] is True, f"step law fails at n = {r['n']}")
            for n, key in ((r["n"], "flat_n"), (r["n"] + 1, "flat_next")):
                want = expected_flat(n, k)
                _require(want is None or r[key] is want, f"row {n} mod 2^{k}: {key} = {r[key]}, expected {want}")
    elif suite == "oracle":
        ns = list(range(params["max_rank"] + 1))
        for r in records:
            _require(r["words"] == row_size(r["n"]), f"oracle row {r['n']} has {r['words']} words")
    elif suite == "pi-row":
        ns = list(range(params["max_n"] + 1))
        for r in records:
            _require(r["cardinality"] == 1 << (r["n"] // 2), f"pi-row {r['n']} has {r['cardinality']} products")
    elif suite == "coprime":
        pairs = [(p, n) for p in params["primes"] for n in range(params["max_n"] + 1)]
        _require([(r["p"], r["n"]) for r in records] == pairs, "coprime records do not cover the (p, n) grid")
        for r in records:
            want = coprime_row_size(r["p"], r["n"])
            _require(r["count"] == want == r["closed_form_count"], f"C_{r['p']}({r['n']}) = {r['count']}, expected {want}")
        return len(records)
    else:
        raise ValueError(f"unchecked suite {suite}")
    _require([r["n"] for r in records] == ns, f"suite {suite} reports rows {[r['n'] for r in records][:5]}..., expected {ns[:5]}...")
    return len(records)


def _check_histogram(counts: dict[int, int], *, keys: range, total: int, flat: bool, want_flat: bool | None) -> None:
    _require(list(counts) == list(keys), "histogram residues are not the expected classes")
    _require(sum(counts.values()) == total, f"histogram sums to {sum(counts.values())}, expected {total}")
    is_flat = len(set(counts.values())) == 1
    _require(flat is is_flat, f"verdict {'flat' if flat else 'not-flat'} disagrees with the counts")
    _require(want_flat is None or is_flat is want_flat, f"histogram flat = {is_flat}, expected {want_flat}")


def check_residues_pow2(text: str, *, n: int, k: int, method: str) -> int:
    """A JSON histogram mod 2^k over the odd words of rank n."""
    payload = _json(text)
    m = 1 << k
    _require(payload["n"] == n and payload["modulus"] == m, "wrong n or modulus")
    _require(payload["method"] == method, f"method {payload['method']}, expected {method}")
    counts = {int(r): c for r, c in payload["counts"].items()}
    _check_histogram(counts, keys=range(1, m, 2), total=1 << (n // 2), flat=payload["flat"], want_flat=expected_flat(n, k))
    return len(counts)


def check_residues_mod_p(text: str, *, n: int, p: int) -> int:
    """A table of chain-count residues mod an odd prime over the whole row."""
    lines = text.splitlines()
    _require(lines[:1] and lines[0].split() == ["residue", "count"], "missing table header")
    match = re.fullmatch(r"verdict: (flat|not-flat)", lines[-1])
    _require(match is not None, "missing verdict line")
    counts = {}
    for line in lines[1:-1]:
        r, c = map(int, line.split())
        counts[r] = c
    _check_histogram(counts, keys=range(1, p), total=coprime_row_size(p, n), flat=match[1] == "flat", want_flat=None)
    return len(counts)


def _check_tree(nodes: dict[str, int], children: dict[str, list[str]], max_rank: int) -> int:
    """The Macdonald tree from its node labels and child lists, root ''."""
    _require(nodes.get("") == 1, "root is not the empty word with f = 1")
    per_rank = [0] * (max_rank + 1)
    for word, f in nodes.items():
        r = sum(map(int, word))
        _check_word(word, r)
        _require(r <= max_rank, f"node {word} beyond max rank {max_rank}")
        per_rank[r] += 1
        kids = children.get(word, [])
        if r == max_rank:
            want = []
        elif r % 2 == 0:
            want = [("1" + word, f)]
        else:
            _require(word.startswith("1"), f"odd-rank node {word} does not start with 1")
            want = [("11" + word[1:], f), ("2" + word[1:], f * r)]
        got = [(c, nodes.get(c)) for c in kids]
        _require(got == want, f"children of {word or 'e'}: {got}, expected {want}")
    for r, count in enumerate(per_rank):
        _require(count == 1 << (r // 2), f"tree row {r} has {count} nodes, expected {1 << (r // 2)}")
    return len(nodes)


def check_tree_json(text: str, *, max_rank: int) -> int:
    payload = _json(text)
    _require(payload["max_rank"] == max_rank, "wrong max_rank")
    nodes: dict[str, int] = {}
    children: dict[str, list[str]] = {}
    stack = [payload["root"]]
    while stack:
        node = stack.pop()
        word = node["word"]
        _require(word not in nodes, f"node {word} appears twice")
        nodes[word] = int(node["f"])
        children[word] = [c["word"] for c in node["children"]]
        stack.extend(node["children"])
    return _check_tree(nodes, children, max_rank)


_DOT_NODE = re.compile(r'  "(\w+)" \[label="(\w+) : (\d+)"\];')
_DOT_EDGE = re.compile(r'  "(\w+)" -- "(\w+)";')


def check_tree_dot(text: str, *, max_rank: int) -> int:
    """An f-valued DOT export; 'e' names the empty word."""
    lines = text.splitlines()
    _require(lines[0] == "graph macdonald_tree {" and lines[-1] == "}", "not a macdonald_tree graph")
    nodes: dict[str, int] = {}
    children: dict[str, list[str]] = {}
    for line in lines[1:-1]:
        if m := _DOT_NODE.fullmatch(line):
            _require(m[1] == m[2], f"node {m[1]} has label {m[2]}")
            word = "" if m[1] == "e" else m[1]
            _require(word not in nodes, f"node {m[1]} appears twice")
            nodes[word] = int(m[3])
        elif m := _DOT_EDGE.fullmatch(line):
            children.setdefault("" if m[1] == "e" else m[1], []).append(m[2])
        else:
            raise CheckError(f"unexpected DOT line {line!r}")
    _require(set(children) <= set(nodes), "edge from an unlisted node")
    return _check_tree(nodes, children, max_rank)
