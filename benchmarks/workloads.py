"""The benchmark's workloads: fixed lists of `fptopos` CLI commands.

Each command is one fresh `python -m fptopos.cli ... --format json`
process.  The engine's inputs are exhaustive and fixed by base and bound,
so a workload seed only orders the commands within a run.  Why each
workload exists, and which layer it loads, is in README.md beside this
file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    id: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    # Bases whose resolution the set-up measurement times.
    bases: tuple[str, ...]
    # (command id, per-stage bounds) of enumerate commands whose pinned
    # class count is recounted once per run by the brute-force oracle in
    # tests/oracles.py.
    oracle_counts: tuple[tuple[str, dict], ...] = ()


def _cmd(id_: str, *argv: str) -> Command:
    return Command(id_, argv)


PI_PROPS = "pi-structure,connected-iff-pi-one,connected-products,pi-products"

WORKLOADS = {w.name: w for w in (
    # Corpus generation only, at the default --jobs 1: candidate
    # validation (refgraph, the generator-free .cat base) and canonical
    # forms (graph, sierpinski).
    Workload(
        "corpus",
        (_cmd("enum-refgraph-3", "enumerate", "--base", "refgraph",
              "--bound", "3"),
         _cmd("enum-graph-V4E3", "enumerate", "--base", "graph",
              "--bound", "V=4,E=3"),
         _cmd("enum-sierpinski-4", "enumerate", "--base", "sierpinski",
              "--bound", "4"),
         _cmd("enum-refgraph.cat-V3E2", "enumerate", "--base",
              "samples/refgraph.cat", "--bound", "V=3,E=2")),
        ("refgraph", "graph", "sierpinski", "samples/refgraph.cat"),
        (("enum-refgraph-3", {"V": 3, "E": 3}),
         ("enum-sierpinski-4", {"0": 4, "1": 4}),
         ("enum-refgraph.cat-V3E2", {"V": 3, "E": 2}))),
    # Forcing, power objects and the --jobs thread pool; the corpus layer
    # is under 1 % here.  Runs at --jobs 2 (= nproc of the reference
    # machine); the pinned answers come from --jobs 1.
    Workload(
        "fibers",
        (_cmd("lemma-two-discrete-3", "verify", "lemma", "--base",
              "two-discrete", "--bound", "3", "--jobs", "2"),
         _cmd("lemma-sierpinski-3", "verify", "lemma", "--base",
              "sierpinski", "--bound", "3", "--jobs", "2"),
         _cmd("lemma-graph-V3E2", "verify", "lemma", "--base", "graph",
              "--bound", "V=3,E=2", "--jobs", "2"),
         _cmd("props-refgraph-2", "verify", "props", "--base", "refgraph",
              "--bound", "2", "--jobs", "2"),
         _cmd("props-sierpinski-2", "verify", "props", "--base",
              "sierpinski", "--bound", "2", "--jobs", "2")),
        ("two-discrete", "sierpinski", "graph", "refgraph")),
    # The paper's headline pipeline on refgraph at --jobs 1: NS/DQO/DSO,
    # the adjoint string and precohesion.  Each run enumerates corpora 7
    # times, 6 of them the same bound-3 corpus.
    Workload(
        "precohesion",
        (_cmd("precohesion-3", "precohesion", "--bound", "3"),
         _cmd("verify-C-3", "verify", "C", "--bound", "3"),
         _cmd("verify-A-V2E3", "verify", "A", "--bound", "V=2,E=3"),
         _cmd("props-pi-3", "verify", "props", "--bound", "3",
              "--props", PI_PROPS)),
        ("refgraph",)),
    # Tiny bounds for the benchmark's own self-tests; not in
    # BENCHMARK.json.
    Workload(
        "smoke",
        (_cmd("smoke-enum-refgraph-1", "enumerate", "--base", "refgraph",
              "--bound", "1"),
         _cmd("smoke-lemma-two-discrete-1", "verify", "lemma", "--base",
              "two-discrete", "--bound", "1", "--jobs", "2"),
         _cmd("smoke-props-sierpinski-1", "verify", "props", "--base",
              "sierpinski", "--bound", "1", "--props",
              "connected-iff-pi-one,pi-structure", "--jobs", "2")),
        ("refgraph", "two-discrete", "sierpinski"),
        (("smoke-enum-refgraph-1", {"V": 1, "E": 1}),)),
)}


def base_of(cmd: Command) -> str:
    return cmd.argv[cmd.argv.index("--base") + 1]


def cli_argv(cmd: Command, jobs: int | None = None) -> list[str]:
    """The command's CLI arguments with JSON output; `jobs` overrides any
    --jobs value (used to pin answers sequentially)."""
    argv = list(cmd.argv)
    if jobs is not None and "--jobs" in argv:
        argv[argv.index("--jobs") + 1] = str(jobs)
    return argv + ["--format", "json"]


# Verdicts that must carry at least one witness.
WITNESS_VERDICTS = ("fails", "witness")


def answer_of(exit_code: int, stdout: str) -> dict:
    """The pinned part of a command's result: exit code, verdict and
    details.  Witness labels are not pinned, only whether any exist."""
    report = json.loads(stdout)
    return {"exit": exit_code, "verdict": report["verdict"],
            "details": report["details"],
            "has_witness": bool(report["witnesses"])}


def check_answer(pinned: dict | None, exit_code: int, stdout: str) -> str:
    """'' when the result matches the pinned answer, else the reason it
    does not."""
    if pinned is None:
        return "no pinned answer"
    if exit_code == 2:
        return "exit 2"
    try:
        got = answer_of(exit_code, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return "unreadable report: %s" % exc
    if got["verdict"] in WITNESS_VERDICTS and not got["has_witness"]:
        return "verdict %r without a witness" % got["verdict"]
    for key in ("exit", "verdict", "details", "has_witness"):
        if got[key] != pinned[key]:
            return "%s differs: got %r, pinned %r" % (key, got[key],
                                                      pinned[key])
    return ""
