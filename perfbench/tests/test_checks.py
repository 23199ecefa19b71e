"""Tests of the benchmark's output checks and job runner.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402
from workloads import Job  # noqa: E402

ROOT = HERE.parent


def yflattice(*argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "yflattice", *argv], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_checker_accepts_real_seed_output(workload):
    for job in workloads.build(workload, seed=1):
        assert job.check(yflattice(*job.argv)) > 0, job


def test_seed_fixes_the_job_list():
    for workload in workloads.WORKLOADS:
        argvs = {seed: [job.argv for job in workloads.build(workload, seed)] for seed in range(8)}
        assert argvs[3] == [job.argv for job in workloads.build(workload, 3)]
        assert len({tuple(a) for a in argvs.values()}) > 1


def test_closed_forms():
    assert [checks.row_size(n) for n in range(8)] == [1, 1, 2, 3, 5, 8, 13, 21]
    # words of rank <= p are all coprime to p
    assert all(checks.coprime_row_size(p, n) == checks.row_size(n) for p in (3, 5, 7) for n in range(p + 1))
    assert checks.flat_threshold(12) == 2050


def test_dropped_record_is_rejected():
    text = yflattice("enumerate", "-n", "10", "--format", "jsonl")
    assert checks.check_enumerate(text, n=10, fmt="jsonl") == 89
    lines = text.splitlines()
    with pytest.raises(CheckError, match="88 records, expected 89"):
        checks.check_enumerate("\n".join(lines[:40] + lines[41:]), n=10, fmt="jsonl")
    with pytest.raises(CheckError, match="listed twice"):
        checks.check_enumerate("\n".join(lines[:40] + lines[39:40] + lines[41:]), n=10, fmt="jsonl")

    payload = json.loads(yflattice("verify", "oracle", "--max-rank", "8", "--format", "json"))
    del payload["records"][5]
    with pytest.raises(CheckError):
        checks.check_verify(json.dumps(payload), suite="oracle", max_rank=8)


def test_dropped_tree_node_is_rejected():
    text = yflattice("tree", "--max-rank", "7", "--f-valued", "--format", "dot")
    assert checks.check_tree_dot(text, max_rank=7) == 1 + 1 + 2 + 2 + 4 + 4 + 8 + 8
    lines = [line for line in text.splitlines() if not line.startswith('  "2211"')]
    with pytest.raises(CheckError):
        checks.check_tree_dot("\n".join(lines), max_rank=7)

    payload = json.loads(yflattice("tree", "--max-rank", "7", "--format", "json"))
    payload["root"]["children"][0]["children"][1]["f"] = "3"  # the node 2 has f = 1
    with pytest.raises(CheckError, match="children of 1"):
        checks.check_tree_json(json.dumps(payload), max_rank=7)


def test_non_flat_histogram_is_rejected():
    payload = json.loads(yflattice("residues", "-n", "12", "-k", "3", "--format", "json"))
    assert checks.check_residues_pow2(json.dumps(payload), n=12, k=3, method="dp") == 4
    payload["counts"]["1"] += 1
    payload["counts"]["3"] -= 1
    with pytest.raises(CheckError, match="disagrees with the counts"):
        checks.check_residues_pow2(json.dumps(payload), n=12, k=3, method="dp")
    payload["flat"] = False  # a consistent verdict does not save it: row 12 >= 2^2 + 2 must be flat
    with pytest.raises(CheckError, match="expected True"):
        checks.check_residues_pow2(json.dumps(payload), n=12, k=3, method="dp")


def test_histogram_with_wrong_total_is_rejected():
    text = yflattice("residues", "-n", "9", "-p", "5")
    assert checks.check_residues_mod_p(text, n=9, p=5) == 4
    header, first, *rest = text.splitlines()
    residue, count = first.split()
    bumped = "\n".join([header, f"{residue} {int(count) + 1}", *rest])
    with pytest.raises(CheckError, match="sums to"):
        checks.check_residues_mod_p(bumped, n=9, p=5)


@pytest.fixture
def runner(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    return run.Runner("test", deadline=time.perf_counter() + 100)


def _printing(text: str) -> list[str]:
    return [sys.executable, "-c", f"import sys; sys.stdout.write({text!r})"]


def test_corrupted_output_counts_as_failed(runner):
    text = yflattice("enumerate", "-n", "6", "--format", "jsonl")
    job = Job(("enumerate", "-n", "6", "--format", "jsonl"), lambda out: checks.check_enumerate(out, n=6, fmt="jsonl"))
    assert runner.run(job, _printing(text)).ok
    corrupted = "\n".join(text.splitlines()[1:])
    assert not runner.run(job, _printing(corrupted)).ok
    assert (runner.attempted, runner.failed) == (2, 1)


def test_output_must_repeat_across_passes(runner):
    job = Job(("x",), lambda out: 1)
    assert runner.run(job, _printing("first")).ok
    assert not runner.run(job, _printing("second")).ok


def test_slow_or_large_job_counts_as_failed(runner, monkeypatch):
    monkeypatch.setattr(run, "JOB_TIMEOUT_S", 0.5)
    job = Job(("x",), lambda out: 1)
    slow = runner.run(job, [sys.executable, "-c", "import time; time.sleep(30)"])
    assert not slow.ok and "timed out" in slow.reason
    # the allocation is refused by the child's address-space limit, so no memory is touched
    large = runner.run(job, [sys.executable, "-c", f"bytearray({run.JOB_ADDRESS_SPACE})"])
    assert not large.ok and "exit code 1" in large.reason
    assert runner.failed == 2


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
