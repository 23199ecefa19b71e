"""The benchmark's workloads: fixed lists of yflattice CLI jobs.

The seed picks each job's parameters from a narrow band of equal cost and
shuffles the job order; the program only ever sees the generated argv.
Every job stays well inside the rank and modulus budgets the CLI is meant
to accept, so that tightening a budget never turns a job into a refusal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    check: Callable[[str], int]  # returns the record count, raises CheckError
    memory_pass: bool = True  # whether the tracemalloc pass of --trace 1 runs it

    def __str__(self) -> str:
        return "yflattice " + " ".join(self.argv)


def _job(check: Callable[..., int], argv: str, memory_pass: bool = True, **params) -> Job:
    return Job(tuple(argv.split()), partial(check, **params), memory_pass)


SETUP_JOB = _job(checks.check_help, "--help")


def flatness(rng: random.Random) -> list[Job]:
    """Residue histograms mod 2^k: the bucket DP does nearly all the work."""
    n_extra = rng.randint(8, 12)
    max_n = rng.randint(196, 204)
    n = rng.randint(2050, 2058)  # past the threshold 2^11 + 2, so --assert holds
    # tracemalloc slows the bucket DP about 30-fold (verify main -k 13: 100 s
    # against 3 s on a 2-core x86-64 VM), past a run's time limit, so the
    # memory pass measures the DP on the other two jobs
    return [
        _job(checks.check_verify, f"verify main -k 13 --n-extra {n_extra} --format json", memory_pass=False, suite="main", k=13, n_extra=n_extra),
        _job(checks.check_verify, f"verify one-step -k 8 --max-n {max_n} --format json", suite="one-step", k=8, max_n=max_n),
        _job(checks.check_residues_pow2, f"residues -n {n} -k 12 --assert --format json", n=n, k=12, method="dp"),
    ]


def row_scan(rng: random.Random) -> list[Job]:
    """Every word of full rows through core, fstat and primes."""
    primes = rng.sample((3, 5, 7, 11, 13), 3)
    filter_p = rng.choice((5, 7))
    table_p = rng.choice((5, 7, 11, 13))
    flags = " ".join(f"-p {p}" for p in primes)
    return [
        _job(checks.check_verify, "verify oracle --max-rank 16 --format json", suite="oracle", max_rank=16),
        _job(checks.check_verify, f"verify coprime {flags} --max-n 20 --format json", suite="coprime", primes=primes, max_n=20),
        _job(checks.check_enumerate, "enumerate -n 24 --format jsonl", n=24, fmt="jsonl"),
        _job(checks.check_enumerate, f"enumerate -n 22 --filter coprime -p {filter_p} --format csv", n=22, fmt="csv", prime=filter_p),
        _job(checks.check_residues_mod_p, f"residues -n 20 -p {table_p}", n=20, p=table_p),
    ]


def odd_tree(rng: random.Random) -> list[Job]:
    """The odd-word tree and its serialization, plus subset-product enumeration."""
    n = rng.choice((36, 37))  # both rows have 2^18 odd words
    k = rng.randint(10, 12)
    return [
        _job(checks.check_tree_json, "tree --max-rank 26 --f-valued --format json", max_rank=26),
        _job(checks.check_tree_dot, "tree --max-rank 26 --f-valued --format dot", max_rank=26),
        _job(checks.check_verify, "verify pi-row --max-n 36 --format json", suite="pi-row", max_n=36),
        _job(checks.check_residues_pow2, f"residues -n {n} -k {k} --method enum --format json", n=n, k=k, method="enum"),
    ]


WORKLOADS: dict[str, Callable[[random.Random], list[Job]]] = {
    "flatness": flatness,
    "row-scan": row_scan,
    "odd-tree": odd_tree,
}


def build(workload: str, seed: int) -> list[Job]:
    """The job list of one workload for one seed, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    return jobs
