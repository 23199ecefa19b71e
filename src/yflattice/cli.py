"""Command-line front end: enumeration, tree export, verification, histograms.

Exit codes: 0 success, 1 failed assertion or domain guard, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, islice
from typing import Any, Callable, Iterable, Iterator, NoReturn, Sequence

from .core import EMPTY_TOKEN, word_text

# Each command imports the layer functions it runs where it runs them, so a
# run compiles and loads only its own modules (--help only this one and core),
# and reads each function off the module that owns it at the call, so a
# wrapper bound there (perfbench/tracer.py) sees every call.


def _batches(chunks: Iterable[str]) -> Iterator[str]:
    """The chunks joined 128 at a time, one write each, and the rest as they are.

    A write per table or csv line would cost more than making the line; a
    few large chunks, such as one JSON document, are written without a copy.
    """
    chunks = iter(chunks)
    while len(batch := list(islice(chunks, 128))) == 128:
        yield "".join(batch)
    yield from batch


def _write(chunks: Iterable[str], out: str | None) -> None:
    if out is None:
        sys.stdout.writelines(_batches(chunks))
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(_batches(chunks))


def _cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _widths(keys: Sequence[str], rows: Iterable[Iterable[str]]) -> list[int]:
    """Each column's width: its longest cell's or its key's length.

    The cell lengths are read as one stream, 1024 rows at a time, and
    column i of a batch is its every m-th length from i on.
    """
    m, widths = len(keys), list(map(len, keys))
    lens = map(len, chain.from_iterable(rows))
    while batch := list(islice(lens, 1024 * m)):
        widths = [max(w, *batch[i::m]) for i, w in enumerate(widths)]
    return widths


def _table(keys: Sequence[str], widths: Sequence[int], rows: Iterable[Iterable[str]]) -> Iterator[str]:
    """Aligned columns of text cells, line by line, each column widths[i] wide.

    Every line is stripped on the right, so the last column's width never
    shows.
    """
    yield "  ".join(map(str.ljust, keys, widths)).rstrip() + "\n"
    for row in rows:
        yield "  ".join(map(str.ljust, row, widths)).rstrip() + "\n"


def _csv(keys: Sequence[str], rows: Iterable[Iterable[str]]) -> Iterator[str]:
    yield ",".join(keys) + "\n"
    for row in rows:
        yield ",".join(row) + "\n"


def _text(keys: Sequence[str], rows: Callable[[], Iterable[Iterable[str]]], fmt: str) -> Iterator[str]:
    """A table, or CSV for fmt "csv", of the text rows rows() makes afresh: a table calls it twice, holding no row."""
    if fmt == "csv":
        return _csv(keys, rows())
    return _table(keys, _widths(keys, rows()), rows())


def _json(doc: Any, indent: int | None = 2) -> Iterable[str]:
    """The document and a newline, as json.dumps(doc, indent=indent) lays it out but chunk by chunk."""
    import json  # only where JSON is written: --help, tables and csv never load it

    return chain(json.JSONEncoder(indent=indent).iterencode(doc), ["\n"])


_ENUMERATE_KEYS = ("word", "rank", "f", "odd")


def _enumerate_json(records: Iterable[tuple[str, str, str, str]]) -> Iterator[str]:
    """The records exactly as json.dumps(..., indent=2) lays them out.

    Words and counts are digit strings, so nothing needs escaping.
    """
    lead = "[\n"
    for word, n, f, odd in records:
        yield f'{lead}  {{\n    "word": "{word}",\n    "rank": {n},\n    "f": "{f}",\n    "odd": {odd}\n  }}'
        lead = ",\n"
    yield "[]\n" if lead == "[\n" else "\n]\n"


def cmd_enumerate(args: argparse.Namespace) -> int:
    from .fstat import f_blocks

    if args.filter == "coprime" and args.prime is None:
        args.parser.error("--filter coprime requires --prime/-p")
    if args.filter != "coprime" and args.prime is not None:
        args.parser.error("--prime/-p applies only to --filter coprime")
    if args.filter == "coprime":
        from .primes import check_prime

        check_prime(args.prime)  # refused before the row is built, not at its first word
    tails, fs, blocks = f_blocks(args.rank)  # the rank guard runs here, before any output
    modulus = {"odd": 2, "coprime": args.prime}.get(args.filter)
    n = str(args.rank)
    empty = "" if args.format in ("json", "jsonl") else EMPTY_TOKEN

    def records() -> Iterator[tuple[str, str, str, str]]:
        """(word, rank, f, odd) as text per kept word, each word a head joined to one of its tails."""
        for head, g, t in blocks:
            for tail, f in zip(tails[t], fs[t]):
                f *= g
                if modulus is None or f % modulus:
                    yield word_text(head + tail, empty), n, str(f), "true" if f & 1 else "false"

    if args.format == "json":
        chunks = _enumerate_json(records())
    elif args.format == "jsonl":
        chunks = (f'{{"word": "{w}", "rank": {r}, "f": "{f}", "odd": {odd}}}\n' for w, r, f, odd in records())
    else:
        chunks = _text(_ENUMERATE_KEYS, records, args.format)
    _write(chunks, args.out)
    return 0


Rows = Iterable[list[tuple[str, int]]]


def _tree_dot(rows: Rows, f_valued: bool) -> Iterator[str]:
    """DOT lines of the tree rows: the nodes row by row, then the edges row by row."""
    names: list[list[str]] = []
    yield "graph macdonald_tree {\n"
    for row in rows:
        texts = [word_text(w) for w, _ in row]
        names.append(texts)
        if f_valued:
            yield from (f'  "{t}" [label="{t} : {f}"];\n' for t, (_, f) in zip(texts, row))
        else:
            yield from (f'  "{t}" [label="{t}"];\n' for t in texts)
    for r, (parents, children) in enumerate(zip(names, names[1:])):
        width = 1 + r % 2  # children per node of row r
        yield from (f'  "{parents[j // width]}" -- "{c}";\n' for j, c in enumerate(children))
    yield "}\n"


def _tree_json(rows: Rows, max_rank: int) -> Iterator[str]:
    """The nested tree of the rows exactly as json.dumps(..., indent=2) lays it out.

    Depth-first with an explicit stack of ranks to open and text to write.
    Preorder meets each row's nodes in layout order, so every row is read
    left to right by its own iterator.  A node's text around its word and
    count, and its rank's separator and closer, are made once per rank.
    Words and counts are digit strings, so nothing needs escaping.
    """
    nodes, heads, mids, tails, seps, closers = [], [], [], [], [], []
    for r, row in enumerate(rows):
        nodes.append(iter(row))
        pad = "    " * (r + 1)  # the node's keys; its braces sit two spaces left
        heads.append(f'{{\n{pad}"word": "')
        mids.append(f'",\n{pad}"f": "')
        tails.append(f'",\n{pad}"children": ' + (f"[]\n{pad[2:]}}}" if r == max_rank else f"[\n{pad}  "))
        seps.append(f",\n{pad}  ")
        closers.append(f"\n{pad}]\n{pad[2:]}}}")
    yield f'{{\n  "max_rank": {max_rank},\n  "root": '
    stack: list[int | str] = [0]
    while stack:
        r = stack.pop()
        if type(r) is str:
            yield r
            continue
        word, f = next(nodes[r])
        yield f"{heads[r]}{word}{mids[r]}{f}{tails[r]}"
        if r < max_rank:
            stack += [closers[r], r + 1]
            if r % 2:  # two children below an odd rank
                stack += [seps[r], r + 1]
    yield "\n}\n"


def cmd_tree(args: argparse.Namespace) -> int:
    from .macdonald import tree_rows

    rows = tree_rows(args.max_rank)  # the rank guard runs here, before any output
    if args.format == "json":
        _write(_tree_json(rows, args.max_rank), args.out)
    else:
        _write(_tree_dot(rows, args.f_valued), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from importlib import import_module

    module, function = args.run
    verify = getattr(import_module(f"{__package__}.{module}"), function)  # loaded on first use, read at the call
    records = verify(*(getattr(args, dest) for dest in args.options))
    ok = all(r["ok"] for r in records)
    if args.format == "json":
        chunks = _json({"ok": ok, "records": records})
    elif args.format == "jsonl":
        chunks = chain.from_iterable(_json(r, None) for r in records)
    else:
        chunks = _text(list(records[0]), lambda: (map(_cell, r.values()) for r in records), args.format)
        if args.format == "table":
            chunks = chain(chunks, [f"{sum(r['ok'] for r in records)}/{len(records)} checks passed\n"])
    _write(chunks, args.out)
    if not ok:
        print(f"FAIL: suite {args.suite}", file=sys.stderr)
    return 0 if ok else 1


def cmd_residues(args: argparse.Namespace) -> int:
    from .residues import is_equidistributed, residue_histogram_dp, residue_histogram_enum

    if args.prime is not None and args.method is not None:
        args.parser.error("--method applies only to power-of-two moduli (-k)")
    if args.modulus_pow is not None:
        method = args.method or "dp"
        compute = residue_histogram_enum if method == "enum" else residue_histogram_dp
        counts, modulus = compute(args.rank, args.modulus_pow), 1 << args.modulus_pow
    else:
        from .primes import residue_distribution_mod_p

        method = None
        counts, modulus = residue_distribution_mod_p(args.rank, args.prime), args.prime
    flat = is_equidistributed(counts)
    verdict = f"verdict: {'flat' if flat else 'not-flat'}\n"
    if args.format == "json":
        doc = {"n": args.rank, "modulus": modulus, "counts": counts, "flat": flat}  # json writes each int key as str(r)
        if method is not None:
            doc["method"] = method
        chunks = _json(doc)
    else:
        chunks = _text(["residue", "count"], lambda: (map(str, rc) for rc in counts.items()), args.format)
        if args.format == "table":
            chunks = chain(chunks, [verdict])
    _write(chunks, args.out)
    if args.format == "csv":
        sys.stderr.write(verdict)  # after the write, so that a failed one reports only its error
    return 1 if args.assert_flat and not flat else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yflattice",
        description="Exact-arithmetic toolkit for the Young-Fibonacci lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list the words of one rank with their chain counts")
    p_enum.add_argument("-n", "--rank", type=int, required=True)
    p_enum.add_argument("--filter", choices=("all", "odd", "coprime"), default="all")
    p_enum.add_argument("-p", "--prime", type=int, help="prime for --filter coprime")
    p_enum.add_argument("--format", choices=("table", "csv", "json", "jsonl"), default="table")
    p_enum.add_argument("--out", help="write output to this path instead of stdout")
    p_enum.set_defaults(cmd=cmd_enumerate, parser=p_enum)

    p_tree = sub.add_parser("tree", help="export the tree of odd words as DOT or JSON")
    p_tree.add_argument("--max-rank", type=int, required=True)
    p_tree.add_argument("--f-valued", action="store_true", help="label DOT nodes with their chain counts (JSON nodes always carry f)")
    p_tree.add_argument("--format", choices=("dot", "json"), default="dot")
    p_tree.add_argument("--out", help="write output to this path instead of stdout")
    p_tree.set_defaults(cmd=cmd_tree, parser=p_tree)

    p_verify = sub.add_parser("verify", help="run a verification suite; exit 0 iff everything holds")
    suites = p_verify.add_subparsers(dest="suite", required=True)  # each takes only the options it reads
    for suite, module, function, max_n in (  # each suite's library function, called with its options in order
        ("main", "residues", "verify_main_theorem", None),
        ("one-step", "residues", "verify_one_step", 12),
        ("pi-row", "macdonald", "verify_pi_row", 16),
        ("coprime", "primes", "verify_coprime", 18),
        ("oracle", "fstat", "verify_oracle", 12),
    ):
        p_suite = suites.add_parser(suite)
        options = []
        if suite in ("main", "one-step"):
            options.append(p_suite.add_argument("-k", "--modulus-pow", type=int, required=True, help="modulus exponent"))
        if max_n is None:
            options.append(p_suite.add_argument("--n-extra", type=int, default=2, help="rows past the threshold (default %(default)s)"))
        else:
            options.append(p_suite.add_argument("--max-n", "--max-rank", type=int, default=max_n, help="last row scanned (default %(default)s)"))
        if suite == "coprime":
            options.append(p_suite.add_argument("-p", "--prime", type=int, action="append", help="prime, repeatable (default 2, 3, 5, 7)"))
        p_suite.add_argument("--format", choices=("table", "csv", "json", "jsonl"), default="table")
        p_suite.add_argument("--out", help="write output to this path instead of stdout")
        p_suite.set_defaults(cmd=cmd_verify, run=(module, function), options=[o.dest for o in options], parser=p_suite)

    p_res = sub.add_parser("residues", help="histogram of chain-count residues for one rank")
    p_res.add_argument("-n", "--rank", type=int, required=True)
    modulus = p_res.add_mutually_exclusive_group(required=True)
    modulus.add_argument("-k", "--modulus-pow", type=int, help="use modulus 2^k over the odd words")
    modulus.add_argument("-p", "--prime", type=int, help="use an odd prime modulus over the whole rank")
    p_res.add_argument("--method", choices=("dp", "enum"), help="histogram path for -k (default dp)")
    p_res.add_argument("--assert", dest="assert_flat", action="store_true", help="exit 1 unless the histogram is flat")
    p_res.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p_res.add_argument("--out", help="write output to this path instead of stdout")
    p_res.set_defaults(cmd=cmd_residues, parser=p_res)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run the command line on argv (default sys.argv[1:]) in process and return its exit code."""
    parser = _build_parser()
    try:
        try:
            args, stray = parser.parse_known_args(argv)
            if stray:  # argparse passes a leaf's unknown options up to the root: the leaf reports them, with its usage
                args.parser.error(f"unrecognized arguments: {' '.join(stray)}")
            if hasattr(sys, "set_int_max_str_digits"):  # CPython 3.10.7+; after parsing, so arguments
                sys.set_int_max_str_digits(0)  # still meet the digit limit and counts of any length print
            return args.cmd(args)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        finally:
            sys.stdout.flush()  # here, so a failed last write is reported as any failed write is
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """main() as a process (python -m yflattice and the console script).

    Both streams are flushed, so the process ends with os._exit and skips
    the interpreter's teardown, which would only free memory the exit frees.
    """
    code = main()
    sys.stderr.flush()
    os._exit(code)

