"""Run one yflattice CLI job in process, traced at the module boundaries.

    python3 perfbench/tracer.py --mode spans --job 0 --report R.json -- verify main -k 5

The public functions of core, fstat, macdonald, residues and primes are
wrapped from here, in every yflattice module that holds a reference to them,
and yflattice.cli.main is called with the job's argv.  The job's standard
output is captured, counted and then printed, so the caller checks it as it
would check an untraced run; the exit code is the job's.

--mode spans records a span (name, start, end, parent, job) per call of a
layer function, and counts plus aggregate time for the functions called
once per word.  --mode memory instead runs under tracemalloc and records,
per layer function, the peak of traced memory above the level at entry; it
is a pass of its own because tracemalloc slows allocation.  Either way the
report (JSON) is written to --report when the job ends.
"""

from __future__ import annotations

import argparse
import inspect
import io
import itertools
import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

SRC = Path(__file__).resolve().parent.parent / "src"

# (traced name, module, attribute, per word).  Functions called once per word
# get counts and aggregate time, not a span each.  covers_down, word_text and
# the residues helpers stay inside their callers.
WRAPPED = (
    ("core.enumerate_rank", "core", "enumerate_rank", False),
    ("fstat.f_recursive", "fstat", "f_recursive", True),
    ("fstat.f_product", "fstat", "f_product", True),
    ("fstat.f_mod", "fstat", "f_mod", True),
    ("macdonald.build_tree", "macdonald", "build_tree", False),
    ("macdonald.rows", "macdonald", "MacdonaldTree.rows", False),
    ("macdonald.f_valued_row", "macdonald", "f_valued_row", False),
    ("macdonald.is_odd_word", "macdonald", "is_odd_word", True),
    ("residues.dp", "residues", "residue_histogram_dp", False),
    ("residues.enum", "residues", "residue_histogram_enum", False),
    ("residues.pi_multiset", "residues", "pi_multiset", False),
    ("residues.verify", "residues", "verify_main_theorem", False),
    ("residues.verify", "residues", "verify_one_step", False),
    ("primes.coprime_count", "primes", "coprime_count", False),
    ("primes.structural", "primes", "is_coprime_structural", True),
    ("primes.direct", "primes", "is_coprime_direct", True),
    ("primes.mod_p", "primes", "residue_distribution_mod_p", False),
)


def _tree_nodes(tree: Any) -> int:
    count, stack = 0, [tree.root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


def _subset_products(a: dict[str, Any], result: Any) -> int:
    return 1 << (a["n"] // 2)  # computed: one product per subset of n//2 factors


# Work counters, read from each call's arguments and result.  The bucket and
# subset counts are computed from the arguments, not counted inside the loops.
COUNTERS: dict[str, tuple[str, Callable[[dict[str, Any], Any], int]]] = {
    "core.enumerate_rank": ("core.words", lambda a, result: len(result)),
    "macdonald.build_tree": ("macdonald.tree_nodes", lambda a, result: _tree_nodes(result)),
    "residues.dp": ("residues.bucket_updates", lambda a, result: (a["n"] // 2) << (a["k"] - 1)),
    "residues.enum": ("residues.subset_products", _subset_products),
    "residues.pi_multiset": ("residues.subset_products", _subset_products),
}


class _Frame:
    __slots__ = ("span", "child_s", "peak")

    def __init__(self, span: int | None) -> None:
        self.span = span
        self.child_s = 0.0
        self.peak = 0


class Tracer:
    """Spans, counts and self times of one job, kept in memory."""

    def __init__(self, job: int, memory: bool) -> None:
        self.job = job
        self.memory = memory
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.peak_bytes: Counter[str] = Counter()
        self.bookkeeping_s = 0.0
        self._ids = itertools.count()
        self._stack = [_Frame(None)]
        self._origin = time.perf_counter()

    def wrap(self, name: str, fn: Callable, per_word: bool) -> Callable:
        if self.memory:
            return fn if per_word else self._wrap_memory(name, fn)
        return self._wrap_spans(name, fn, per_word)

    def _wrap_spans(self, name: str, fn: Callable, per_word: bool) -> Callable:
        stack, clock = self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            frame = _Frame(parent.span if per_word else next(self._ids))
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += end - start - frame.child_s
                if not per_word:
                    self.spans.append((name, start - self._origin, end - self._origin, parent.span, self.job))
            if counter is not None:
                key, count = counter
                self.counts[key] += count(signature.bind(*args, **kwargs).arguments, result)
            done = clock()
            self.bookkeeping_s += done - end
            parent.child_s += done - start  # the wrapper's own cost is no part of the caller's self time
            return result

        return traced

    def _wrap_memory(self, name: str, fn: Callable) -> Callable:
        stack = self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            entry, peak = tracemalloc.get_traced_memory()
            parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
            frame = _Frame(None)
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                top = max(frame.peak, tracemalloc.get_traced_memory()[1])
                self.peak_bytes[name] = max(self.peak_bytes[name], top - entry)
                parent.peak = max(parent.peak, top)

        return traced

    def report(self) -> dict[str, Any]:
        return {
            "job": self.job,
            "spans": [dict(zip(("name", "start", "end", "parent", "job"), s)) for s in self.spans],
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "peak_bytes": dict(self.peak_bytes),
            "bookkeeping_s": self.bookkeeping_s,
        }


def install(tracer: Tracer) -> Callable[[list[str]], int]:
    """Wrap every WRAPPED function wherever yflattice refers to it; return traced cli.main."""
    import yflattice
    from yflattice import cli

    modules = [m for key, m in sys.modules.items() if key == "yflattice" or key.startswith("yflattice.")]
    for name, module, attr, per_word in WRAPPED:
        owner: Any = getattr(yflattice, module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrapped = tracer.wrap(name, original, per_word)
        setattr(owner, leaf, wrapped)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
    return tracer.wrap("cli.main", cli.main, False)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("spans", "memory"), required=True)
    parser.add_argument("--job", type=int, required=True)
    parser.add_argument("--report", required=True, help="where to write the JSON report")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="the job's yflattice arguments, after --")
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    sys.path.insert(0, str(SRC))
    tracer = Tracer(opts.job, opts.mode == "memory")
    cli_main = install(tracer)
    captured = io.StringIO()
    stdout, sys.stdout = sys.stdout, captured
    if tracer.memory:
        tracemalloc.start()
    try:
        code = cli_main(argv)
    finally:
        tracemalloc.stop()
        sys.stdout = stdout
    text = captured.getvalue()
    report = tracer.report()
    report["out_bytes"] = len(text.encode())
    Path(opts.report).write_text(json.dumps(report))
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
