"""Benchmark of the yflattice command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload flatness --seed 1 --seconds 20 --trace 0

A single driver runs the workload's job list (see workloads.py) again and
again until --seconds have passed: one subprocess per job, one job after
another (a closed loop with one client).  Each job runs the checkout's own
src/yflattice with a wall-clock timeout and an address-space limit set on
the child only; a job fails on a wrong exit code, a failed output check or
a timeout.  The first pass checks every output against closed forms
(checks.py); later passes must reproduce the checked bytes.

--trace 0 prints the end-to-end metrics, each the median over passes:
wall_s (the whole job list), cpu_s (user+sys of the job processes),
peak_rss_mib (the largest max-RSS of any job) and setup_s (a no-op
`yflattice --help`: interpreter start, import and parser build).

--trace 1 alternates untraced passes with passes of tracer.py, then makes
one tracemalloc pass, and prints the per-layer metrics.  The spans and
counters of every traced job are written to perfbench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import workloads
from checks import CheckError
from tracer import COUNTERS
from workloads import SETUP_JOB, Job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

JOB_TIMEOUT_S = 60
JOB_ADDRESS_SPACE = 2 << 30
SETUP_CALLS_PER_PASS = 4
RUN_DEADLINE_S = 150  # start no pass after this
RUN_LIMIT_S = 170  # kill any job still running then; a run must end within 180 s

LAYERS = ("core", "fstat", "macdonald", "residues", "primes", "cli")
COUNTED = {name for name, _ in COUNTERS.values()}

# end-to-end metrics (--trace 0) and per-layer metrics (--trace 1): name ->
# unit; the names match BENCHMARK.json
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
PER_LAYER = {
    "core.enumerate_rank.calls": "count",
    "core.enumerate_rank.self_s": "s",
    "core.words": "count",
    "core.peak_mib": "MiB",
    "core.self_s": "s",
    "fstat.f_recursive.calls": "count",
    "fstat.f_recursive.self_s": "s",
    "fstat.f_product.calls": "count",
    "fstat.f_product.self_s": "s",
    "fstat.f_mod.calls": "count",
    "fstat.f_mod.self_s": "s",
    "fstat.self_s": "s",
    "macdonald.build_tree.self_s": "s",
    "macdonald.tree_nodes": "count",
    "macdonald.f_valued_row.self_s": "s",
    "macdonald.is_odd_word.calls": "count",
    "macdonald.is_odd_word.self_s": "s",
    "macdonald.peak_mib": "MiB",
    "macdonald.self_s": "s",
    "residues.dp.self_s": "s",
    "residues.bucket_updates": "count",
    "residues.enum.self_s": "s",
    "residues.pi_multiset.self_s": "s",
    "residues.subset_products": "count",
    "residues.verify.self_s": "s",
    "residues.peak_mib": "MiB",
    "residues.self_s": "s",
    "primes.coprime_count.calls": "count",
    "primes.coprime_count.self_s": "s",
    "primes.structural.calls": "count",
    "primes.structural.self_s": "s",
    "primes.direct.calls": "count",
    "primes.direct.self_s": "s",
    "primes.mod_p.self_s": "s",
    "primes.self_s": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "cli.records": "count",
    "cli.filter_yield": "ratio",
    "trace.overhead_s": "s",
}


@dataclass
class JobRun:
    wall_s: float
    cpu_s: float
    rss_mib: float
    ok: bool
    reason: str = ""
    records: int = 0


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (JOB_ADDRESS_SPACE, JOB_ADDRESS_SPACE))


def spawn(cmd: list[str], out_path: Path, timeout: float) -> tuple[float, float, float, int | None]:
    """Run cmd with stdout to out_path; (wall s, cpu s, max RSS MiB, exit code or None on timeout)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stdin=subprocess.DEVNULL, env=env, cwd=ROOT, preexec_fn=_limit_child)
        finished = []
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                finished, _, _ = select.select([pidfd], [], [], max(timeout, 0))
            finally:
                os.close(pidfd)
        finally:
            if not finished:
                os.kill(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait again
    code = proc.returncode if finished else None
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, code


class Runner:
    """Runs jobs and checks their output; the first checked output of each job is the reference."""

    def __init__(self, tag: str, deadline: float) -> None:
        self.deadline = deadline  # perf_counter time by which every job must have ended
        self.out_path = OUT / f"{tag}.stdout"
        self.reference: dict[tuple[str, ...], bytes] = {}
        self.attempted = 0
        self.failed = 0

    def run(self, job: Job, cmd: list[str]) -> JobRun:
        timeout = min(JOB_TIMEOUT_S, self.deadline - time.perf_counter())
        wall, cpu, rss, code = spawn(cmd, self.out_path, timeout)
        run = JobRun(wall, cpu, rss, ok=False)
        self.attempted += 1
        if code is None:
            run.reason = f"timed out after {timeout:.0f} s"
        elif code != 0:
            run.reason = f"exit code {code}"
        else:
            data = self.out_path.read_bytes()
            digest = hashlib.sha256(data).digest()
            try:
                if self.reference.get(job.argv) not in (None, digest):
                    raise CheckError("output differs from the checked output of an earlier pass")
                run.records = job.check(data.decode())
                self.reference[job.argv] = digest
                run.ok = True
            except (CheckError, KeyError, TypeError, ValueError, IndexError) as exc:
                run.reason = f"output check failed: {type(exc).__name__}: {exc}"
        if not run.ok:
            self.failed += 1
            print(f"FAILED {job}: {run.reason}", file=sys.stderr)
        return run

    def plain(self, job: Job) -> JobRun:
        return self.run(job, [sys.executable, "-m", "yflattice", *job.argv])

    def traced(self, job: Job, index: int, mode: str, report: Path) -> tuple[JobRun, dict | None]:
        cmd = [sys.executable, str(HERE / "tracer.py"), "--mode", mode, "--job", str(index), "--report", str(report), "--", *job.argv]
        report.unlink(missing_ok=True)
        run = self.run(job, cmd)
        return run, json.loads(report.read_text()) if run.ok else None


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, jobs: list[Job], seconds: float, started: float) -> dict:
    setups, walls, cpus, rsss = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not walls or (time.perf_counter() < deadline and time.perf_counter() - started < RUN_DEADLINE_S):
        setups += [runner.plain(SETUP_JOB).wall_s for _ in range(SETUP_CALLS_PER_PASS)]
        runs = [runner.plain(job) for job in jobs]
        walls.append(sum(r.wall_s for r in runs))
        cpus.append(sum(r.cpu_s for r in runs))
        rsss.append(max(r.rss_mib for r in runs))
    print(f"{len(walls)} passes; wall_s {min(walls):.3f}..{max(walls):.3f}", file=sys.stderr)
    values = {"wall_s": walls, "cpu_s": cpus, "peak_rss_mib": rsss, "setup_s": setups}
    return {name: _metric(statistics.median(values[name]), unit) for name, unit in END_TO_END.items()}


def per_layer(runner: Runner, jobs: list[Job], seconds: float, started: float, trace_file: Path) -> dict:
    """Alternate untraced and span-traced passes, then one tracemalloc pass."""
    plain_walls, traced_walls, passes = [], [], []
    reports = OUT / "reports"
    reports.mkdir(exist_ok=True)
    deadline = time.perf_counter() + seconds
    while not passes or (time.perf_counter() < deadline and time.perf_counter() - started < RUN_DEADLINE_S):
        plain_walls.append(sum(runner.plain(job).wall_s for job in jobs))
        runs = [runner.traced(job, i, "spans", reports / f"{i}.json") for i, job in enumerate(jobs)]
        traced_walls.append(sum(run.wall_s for run, _ in runs))
        passes.append(runs)
    memory = [runner.traced(job, i, "memory", reports / f"{i}.json")[1] for i, job in enumerate(jobs) if job.memory_pass]

    first = [rep or {} for _, rep in passes[0]]
    calls = sum((Counter(rep.get("calls", {})) for rep in first), Counter())
    counts = sum((Counter(rep.get("counts", {})) for rep in first), Counter())
    peaks: Counter[str] = Counter()
    for rep in memory:
        for n, b in (rep or {}).get("peak_bytes", {}).items():
            layer = n.split(".")[0]
            peaks[layer] = max(peaks[layer], b)

    def median_self(names: list[str]) -> float:
        return statistics.median(sum(rep["self_s"].get(n, 0.0) for _, rep in p if rep for n in names) for p in passes)

    values: dict[str, float] = {}
    for name in PER_LAYER:
        base, _, leaf = name.rpartition(".")
        if name in COUNTED:
            values[name] = counts[name]
        elif leaf == "calls":
            values[name] = calls[base]
        elif leaf == "self_s" and base in LAYERS:
            values[name] = median_self(["cli.main"] if base == "cli" else [n for n in calls if n.split(".")[0] == base])
        elif leaf == "self_s":
            values[name] = median_self([base])
        elif leaf == "peak_mib":
            values[name] = peaks[base] / 2**20
    filtered = [(run.records, (rep or {}).get("counts", {}).get("core.words", 0)) for job, (run, rep) in zip(jobs, passes[0]) if "--filter" in job.argv]
    kept, seen = sum(k for k, _ in filtered), sum(w for _, w in filtered)
    values["cli.out_bytes"] = sum(rep.get("out_bytes", 0) for rep in first)
    values["cli.records"] = sum(run.records for run, _ in passes[0])
    values["cli.filter_yield"] = kept / seen if seen else 0.0  # 0 when no job filters
    values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    trace_file.write_text(
        json.dumps(
            {
                "jobs": [list(job.argv) for job in jobs],
                "untraced_wall_s": plain_walls,
                "traced_wall_s": traced_walls,
                "span_passes": [[rep for _, rep in p] for p in passes],
                "memory_pass": memory,
                "metrics": values,
            }
        )
    )
    print(f"{len(passes)} traced passes; spans and counters in {trace_file.relative_to(ROOT)}", file=sys.stderr)
    return {name: _metric(values[name], unit) for name, unit in PER_LAYER.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description="Time fixed lists of yflattice CLI jobs.")
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()
    if not (SRC / "yflattice" / "cli.py").is_file():
        print(f"error: no yflattice sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    jobs = workloads.build(args.workload, args.seed)
    for job in jobs:
        print(f"job: {job}", file=sys.stderr)
    tag = f"{args.workload}-seed{args.seed}"
    runner = Runner(tag, started + RUN_LIMIT_S)
    if args.trace:
        metrics = per_layer(runner, jobs, args.seconds, started, OUT / f"trace-{tag}.json")
    else:
        metrics = end_to_end(runner, jobs, args.seconds, started)
    runner.out_path.unlink(missing_ok=True)
    result = {"correct": runner.failed == 0, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
