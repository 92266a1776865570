"""Self-tests of the benchmark, on the tiny-bound `smoke` workload.

    python3 -m pytest benchmarks/test_bench.py

Run from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import (COMMAND_LIMIT_S, END_TO_END, PER_LAYER,  # noqa: E402
                 Runner, measure, oracle_check, self_times, span_problems)
from workloads import WORKLOADS  # noqa: E402

SMOKE = WORKLOADS["smoke"]


def run_bench(*extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "smoke",
         "--seed", "3", "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1][:1] == "{" else None
    return proc, result


def pinned_answers() -> dict:
    with open(os.path.join(HERE, "answers.json")) as fh:
        return json.load(fh)


def test_every_metric_printed_with_its_unit():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, expected, declared in ((0, END_TO_END, spec["end_to_end"]),
                                      (1, PER_LAYER, spec["per_layer"])):
        proc, result = run_bench("--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        assert result["correct"] and result["failed"] == 0, proc.stdout
        assert result["attempted"] >= 3
        assert "fail_ratio = 0 / %d" % result["attempted"] in proc.stdout
        assert {m: (v["unit"]) for m, v in result["metrics"].items()} == \
            dict(expected) == {d["name"]: d["unit"] for d in declared}
        for name, unit in expected:
            assert any(line.split()[:1] == [name] and unit in line.split()
                       for line in proc.stdout.splitlines()), name


def test_corrupted_answer_counts_as_failure(tmp_path):
    answers = pinned_answers()
    answers["smoke-enum-refgraph-1"]["details"]["count"] += 1
    runner = Runner(ROOT, str(tmp_path), answers, COMMAND_LIMIT_S)
    # The oracle recount no longer matches the pinned count either.
    assert [p.split(" is ")[0] for p in oracle_check(runner, SMOKE)] == \
        ["oracle recount for smoke-enum-refgraph-1"]
    plain, _traced, _setup, _orders = measure(
        runner, SMOKE, 3, 1.0, False, time.perf_counter())
    assert runner.failures
    assert all(f.startswith("smoke-enum-refgraph-1: details differs")
               for f in runner.failures), runner.failures
    assert runner.attempted > len(runner.failures)
    assert plain["smoke-enum-refgraph-1"] == []
    assert all(plain[c.id] for c in SMOKE.commands[1:])


def test_command_over_time_limit_fails(tmp_path):
    runner = Runner(ROOT, str(tmp_path), pinned_answers(), 0.02)
    plain, _traced, _setup, _orders = measure(
        runner, SMOKE, 3, 1.0, False, time.perf_counter())
    assert len(runner.failures) == runner.attempted >= len(SMOKE.commands)
    assert all("over its 0.02 s time limit" in f for f in runner.failures)
    assert not any(plain.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_times_share_overlapping_workers():
    # root 0 [0, 10] with child 1 [1, 3] on its thread, and two pool
    # workers 2 [4, 8] and 3 [6, 9] submitted by root; 4 [5, 6] inside 2.
    spans = [(1, 0, 0, 1.0, 3.0), (4, 0, 2, 5.0, 6.0), (2, 0, 0, 4.0, 8.0),
             (3, 0, 0, 6.0, 9.0), (0, 0, -1, 0.0, 10.0)]
    own, covered = self_times(spans)
    assert covered == 10.0
    assert abs(sum(own.values()) - covered) < 1e-12
    assert own == {0: 1 + 1 + 1, 1: 2.0, 2: 1 + 0 + 1, 3: 1 + 1, 4: 1.0}


def test_span_problems_catch_a_broken_tree():
    # cli.main 0 [0, 10] with child 1 [1, 3]; child 2 claims parent 1 but
    # ends after it, and span 3 has no traced parent.
    dump = {"command": "c", "names": ["cli.main", "presheaf.product"],
            "spans": [(1, 1, 0, 1.0, 3.0), (0, 0, -1, 0.0, 10.0)]}
    assert span_problems(dump, 10.0, 10.5) == []
    assert span_problems(dump, 10.0, 9.5) == [
        "c: spans cover 10.000000 s of a 9.500000 s command"]
    dump["spans"].append((2, 1, 1, 2.0, 4.0))
    assert span_problems(dump, 10.0, 10.5) == [
        "c: 1 spans lie outside their parent's interval"]
    dump["spans"].append((3, 1, -1, 11.0, 12.0))
    assert span_problems(dump, 11.0, 12.5) == [
        "c: root spans are ['cli.main', 'presheaf.product'], "
        "not one cli.main"]
