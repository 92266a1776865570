"""The fptopos benchmark: time real CLI commands and check their answers.

    python3 benchmarks/run.py --workload corpus|fibers|precohesion \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Each command of the workload is one fresh
`python -m fptopos.cli ... --format json` process, started one at a time
(a closed loop with one client).  The seed orders the commands; passes
over the workload repeat until S seconds have gone, and every command
runs at least once.  Each answer is checked against `answers.json`.

--trace 0 prints the end-to-end metrics: verdict_s (sum over commands of
each command's median wall time), setup_s (median wall time of a fresh
process that imports the CLI and resolves the workload's bases) and
peak_rss_mb (largest per-command median ru_maxrss).  --trace 1 runs each
command once more under `tracer.py` and prints per-layer self times and
counts, plus the tracing overhead.  The last line of output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  README.md beside
this file explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import marshal
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import (WORKLOADS, Workload, base_of,  # noqa: E402
                       check_answer, cli_argv)

COMMAND_LIMIT_S = 60.0  # a command running longer fails
# No command starts after RUN_LIMIT_S and none runs past RUN_END_S (both
# from the start of the run), so a run ends within 180 s.
RUN_LIMIT_S = 150.0
RUN_END_S = 170.0

END_TO_END = (("verdict_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

# Per-layer metrics printed with --trace 1.  <module>.<function> names
# get .calls and .self_s from the spans; the rest are counts, ratios and
# totals computed in layer_metrics().
SPAN_FUNCTIONS = (
    "corpus.enumerate_presheaves", "corpus.canonical_key",
    "presheaf.make_from_generators", "presheaf.make_presheaf",
    "presheaf.nat_transformations", "presheaf.find_iso", "presheaf.product",
    "presheaf.subfunctors", "presheaf.power_object", "presheaf.exponential",
    "presheaf.factor_through",
    "forcing.pc_object", "forcing.universally_valid",
    "sublattice.complemented_subobjects", "sublattice.is_nn_dense_arrow",
    "decidable.pi", "decidable.is_decidable", "decidable.check_dqo",
    "decidable.check_dso",
    "precohesion.build_adjoint_string", "precohesion.check_precohesive",
    "precohesion.theorem_c_harness", "precohesion.theorem_ab_harness",
)
MODULES = ("cli", "files", "fincat", "builtins", "corpus", "presheaf",
           "sublattice", "forcing", "decidable", "precohesion", "harness")
PER_LAYER = tuple(
    [(f + ".calls", "count") for f in SPAN_FUNCTIONS]
    + [(f + ".self_s", "s") for f in SPAN_FUNCTIONS]
    + [("corpus.candidates.attempted", "count"),
       ("corpus.candidates.kept", "count"),
       ("corpus.candidates.kept_ratio", "ratio"),
       ("corpus.classes", "count"),
       ("corpus.canonical_key.kept_ratio", "ratio"),
       ("presheaf.nat_transformations.arrows", "count"),
       ("presheaf.nat_transformations.arrows_per_call", "ratio"),
       ("presheaf.subfunctors.results", "count"),
       ("forcing.pc_object.kept", "count"),
       ("forcing.pc_object.power", "count"),
       ("forcing.pc_object.kept_ratio", "ratio"),
       ("forcing.countermodels", "count"),
       ("decidable.congruences.results", "count"),
       ("harness.lemma_report.self_s", "s"),
       ("harness.props_report.self_s", "s"),
       ("harness.worker.busy_s", "s"),
       ("harness.pool.capacity_s", "s"),
       ("harness.pool.idle_ratio", "ratio"),
       ("fincat.catalog.self_s", "s"),
       ("files.resolve_base.self_s", "s"),
       ("cli.main.wall_s", "s"),
       ("errors.size_cap.hits", "count")]
    + [("layer.%s.self_s" % m, "s") for m in MODULES]
    + [("trace.outside_s", "s"), ("trace.verdict_s", "s"),
       ("trace.untraced_verdict_s", "s"), ("trace.overhead_s", "s"),
       ("trace.spans", "count")])
# ratio metric -> (numerator, denominator), printed with its base
RATIOS = {
    "corpus.candidates.kept_ratio":
        ("corpus.candidates.kept", "corpus.candidates.attempted"),
    "corpus.canonical_key.kept_ratio":
        ("corpus.classes", "corpus.canonical_key.calls"),
    "presheaf.nat_transformations.arrows_per_call":
        ("presheaf.nat_transformations.arrows",
         "presheaf.nat_transformations.calls"),
    "forcing.pc_object.kept_ratio":
        ("forcing.pc_object.kept", "forcing.pc_object.power"),
    "harness.pool.idle_ratio":
        ("harness.pool.idle_s", "harness.pool.capacity_s"),
}


class Runner:
    """Starts commands from the repository root and records each result."""

    def __init__(self, root: str, workdir: str, answers: dict,
                 limit_s: float):
        self.root = root
        self.workdir = workdir
        self.answers = answers
        self.limit_s = limit_s
        self.env = dict(os.environ)
        self.env.pop("FPTOPOS_JOBS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"),
                        os.environ.get("PYTHONPATH")) if p)
        self.attempted = 0
        self.failures: list[str] = []

    def spawn(self, argv: list[str], limit_s: float,
              env: dict | None = None) -> dict:
        """Run argv to completion; wall time from spawn to exit, and
        ru_maxrss from wait4.  A child still running after limit_s is
        killed and reported as timed out."""
        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            lock = threading.Lock()
            reaped = killed = False
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root,
                                    env=env or self.env,
                                    stdout=out, stderr=err)

            def kill():
                # Only the wait4 below reaps the child, and never while
                # this holds the lock, so proc.pid is still the child's.
                nonlocal killed
                with lock:
                    if not reaped:
                        os.kill(proc.pid, signal.SIGKILL)
                        killed = True
            timer = threading.Timer(limit_s, kill)
            timer.start()
            try:
                # Wait for the exit without reaping, so a kill that races
                # with it reaches at worst a zombie.
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                wall = time.perf_counter() - start
                with lock:
                    reaped = True
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                with lock:
                    reaped = True
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh:
            stdout = fh.read()
        with open(err_path) as fh:
            stderr = fh.read()
        # A child that exited by itself just before the kill landed is
        # not timed out.
        timed_out = killed and proc.returncode == -signal.SIGKILL
        return {"wall": wall, "rss_mb": usage.ru_maxrss / 1024.0,
                "exit": proc.returncode, "stdout": stdout,
                "stderr": stderr, "timed_out": timed_out}

    def command(self, cmd, limit_s: float, spans_path: str | None = None):
        """Run one workload command, plain or under the tracer, and check
        its answer.  Returns the spawn record, with 'error' set if the
        command failed."""
        if spans_path is None:
            argv = [sys.executable, "-m", "fptopos.cli"]
        else:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"),
                    spans_path, cmd.id, "--"]
        rec = self.spawn(argv + cli_argv(cmd), min(limit_s, self.limit_s))
        self.attempted += 1
        if rec["timed_out"]:
            rec["error"] = "over its %g s time limit" % min(
                limit_s, self.limit_s)
        else:
            rec["error"] = check_answer(self.answers.get(cmd.id),
                                        rec["exit"], rec["stdout"])
        if rec["error"]:
            self.failures.append("%s: %s %s" % (cmd.id, rec["error"],
                                                rec["stderr"][-300:]))
        return rec


def setup_seconds(runner: Runner, workload: Workload) -> float:
    """Wall time of a fresh process that imports the CLI and resolves the
    workload's bases without searching."""
    code = ("import fptopos.cli\n"
            "from fptopos.files import resolve_base\n"
            "for b in %r:\n    resolve_base(b)\n" % (workload.bases,))
    rec = runner.spawn([sys.executable, "-c", code], COMMAND_LIMIT_S)
    if rec["exit"] != 0:
        raise RuntimeError("set-up process failed: %s" % rec["stderr"][-500:])
    return rec["wall"]


def oracle_check(runner: Runner, workload: Workload) -> list[str]:
    """Recount the workload's pinned corpus sizes with tests/oracles.py;
    returns one message per mismatch."""
    if not workload.oracle_counts:
        return []
    cmds = {c.id: c for c in workload.commands}
    pairs = [(base_of(cmds[cid]), bounds)
             for cid, bounds in workload.oracle_counts]
    env = dict(runner.env)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(runner.root, "tests"), env["PYTHONPATH"]])
    rec = runner.spawn([sys.executable, os.path.join(HERE, "oracle.py"),
                        json.dumps(pairs)], COMMAND_LIMIT_S, env)
    if rec["exit"] != 0:
        return ["oracle recount failed: %s" % rec["stderr"][-300:]]
    problems = []
    for (cid, _bounds), got in zip(workload.oracle_counts,
                                   json.loads(rec["stdout"])):
        pinned = runner.answers.get(cid, {}).get("details", {}).get("count")
        if got != pinned:
            problems.append("oracle recount for %s is %s, pinned %s"
                            % (cid, got, pinned))
    return problems


# ---------------------------------------------------------------------------
# span attribution

def self_times(spans) -> tuple[dict, float]:
    """Self time of every span, and the time covered by any span.

    At each instant the wall time is shared equally among the active spans
    that have no active child (one per busy thread), so overlapping pool
    workers are not counted twice and the self times add up to the
    covered time.  With one thread this is the span's duration minus the
    part of it its children cover."""
    parent = {}
    events = []
    for sid, _name, par, start, end in spans:
        parent[sid] = par
        events.append((start, 1, sid))
        events.append((end, 0, -sid))
    # Ends before starts at equal times; at equal ends, children first.
    events.sort()
    own = dict.fromkeys(parent, 0.0)
    children: dict[int, int] = {}
    leaves: set[int] = set()
    covered = 0.0
    last = None
    for t, kind, key in events:
        if leaves:
            share = (t - last) / len(leaves)
            for sid in leaves:
                own[sid] += share
            covered += t - last
        last = t
        sid = key if kind else -key
        par = parent[sid]
        if kind:
            children[sid] = 0
            leaves.add(sid)
            if par in children:
                children[par] += 1
                leaves.discard(par)
        else:
            del children[sid]
            leaves.discard(sid)
            if par in children:
                children[par] -= 1
                if not children[par]:
                    leaves.add(par)
    return own, covered


def span_problems(dump: dict, covered: float, wall: float) -> list[str]:
    """Checks that the spans form one tree under cli.main, as the
    attribution assumes: the only root span is cli.main, every span lies
    inside its parent's interval, the spans cover exactly cli.main's
    interval, and that interval lies inside the command's wall time."""
    names, spans = dump["names"], dump["spans"]
    interval = {sid: (start, end) for sid, _idx, _par, start, end in spans}
    roots = [(names[idx], end - start)
             for _sid, idx, par, start, end in spans if par not in interval]
    if len(roots) != 1 or roots[0][0] != "cli.main":
        return ["%s: root spans are %s, not one cli.main"
                % (dump["command"], sorted({n for n, _ in roots}))]
    problems = []
    outside = sum(1 for _sid, _idx, par, start, end in spans
                  if par in interval and not
                  interval[par][0] <= start <= end <= interval[par][1])
    if outside:
        problems.append("%s: %d spans lie outside their parent's interval"
                        % (dump["command"], outside))
    if abs(covered - roots[0][1]) > 1e-5:  # rounding over ~1e6 events
        problems.append("%s: spans cover %.6f s, cli.main lasts %.6f s"
                        % (dump["command"], covered, roots[0][1]))
    if covered > wall:
        problems.append("%s: spans cover %.6f s of a %.6f s command"
                        % (dump["command"], covered, wall))
    return problems


def span_metrics(dump: dict, wall: float) -> tuple[dict, list[str]]:
    """Per-function calls/self_s/total_s, per-module self_s and the
    tracer's counters for one traced command, and span_problems()."""
    names = dump["names"]
    own, covered = self_times(dump["spans"])
    m: dict[str, float] = dict(dump["counters"])
    for sid, idx, _par, start, end in dump["spans"]:
        name = names[idx]
        m[name + ".calls"] = m.get(name + ".calls", 0) + 1
        m[name + ".self_s"] = m.get(name + ".self_s", 0.0) + own[sid]
        m[name + ".total_s"] = m.get(name + ".total_s", 0.0) + end - start
        layer = "layer.%s.self_s" % name.split(".", 1)[0]
        m[layer] = m.get(layer, 0.0) + own[sid]
    m["trace.spans"] = len(dump["spans"])
    m["trace.outside_s"] = wall - covered
    m["harness.pool.capacity_s"] = dump["pool_capacity_s"]
    return m, span_problems(dump, covered, wall)


def layer_metrics(per_command: list[dict], untraced_s: float) -> dict:
    """Sum per-command metrics and derive the named totals and ratios."""
    m: dict[str, float] = {}
    for cm in per_command:
        for key, value in cm.items():
            m[key] = m.get(key, 0) + value
    m["corpus.candidates.kept"] = (m.get("corpus.candidates.attempted", 0)
                                   - m.get("corpus.candidates.rejected", 0))
    m["harness.worker.busy_s"] = m.get("harness.worker.total_s", 0.0)
    m["harness.pool.idle_s"] = (m.get("harness.pool.capacity_s", 0.0)
                                - m["harness.worker.busy_s"])
    m["cli.main.wall_s"] = m.get("cli.main.total_s", 0.0)
    m["trace.untraced_verdict_s"] = untraced_s
    m["trace.overhead_s"] = m["trace.verdict_s"] - untraced_s
    for ratio, (num, den) in RATIOS.items():
        m[ratio] = m.get(num, 0) / m[den] if m.get(den) else 0.0
    return m


# ---------------------------------------------------------------------------

def median_sample(recs: list[dict]) -> dict:
    """The sample with the (lower) median wall time."""
    return sorted(recs, key=lambda r: r["wall"])[(len(recs) - 1) // 2]


def measure(runner: Runner, workload: Workload, seed: int, seconds: float,
            trace: bool, run_start: float):
    """Passes over the workload in seed order for `seconds`, every command
    at least once; with `trace`, each command also runs under
    the tracer, in an order the seed picks.  Without `trace`, a set-up
    process runs before each command, so set-up is sampled under the same
    conditions.  Returns the successful plain and traced samples per
    command id, the set-up times and the command order of each pass."""
    rng = random.Random(seed)
    order = list(workload.commands)
    plain = {c.id: [] for c in order}
    traced = {c.id: [] for c in order}
    ran = set()
    last: dict[str, float] = {}  # wall time of each command's last turn
    setup = []
    spans_path = os.path.join(runner.workdir, "spans.marshal")
    start = time.perf_counter()
    orders = []
    while True:
        rng.shuffle(order)
        orders.append([c.id for c in order])
        for cmd in order:
            now = time.perf_counter()
            # Once every command has run, stop before one that would end
            # past `seconds`, judged by its last sample.
            if len(ran) == len(order) and now - start + last.get(
                    cmd.id, 0.0) >= seconds:
                return plain, traced, setup, orders
            if now - run_start >= RUN_LIMIT_S:
                runner.failures.append("%s: not run, run time limit"
                                       % cmd.id)
                runner.attempted += 1
                return plain, traced, setup, orders
            ran.add(cmd.id)
            if not trace:
                setup.append(setup_seconds(runner, workload))
            last[cmd.id] = 0.0
            modes = [False, True] if trace else [False]
            rng.shuffle(modes)
            for with_trace in modes:
                limit = RUN_END_S - (time.perf_counter() - run_start)
                rec = runner.command(cmd, limit,
                                     spans_path if with_trace else None)
                last[cmd.id] += rec["wall"]
                if with_trace and os.path.exists(spans_path):
                    if not rec["error"]:
                        with open(spans_path, "rb") as fh:
                            rec["metrics"], rec["problems"] = span_metrics(
                                marshal.load(fh), rec["wall"])
                    os.remove(spans_path)
                if not rec["error"]:
                    (traced if with_trace else plain)[cmd.id].append(rec)


def report(name: str, value: float, unit: str, note: str = "") -> dict:
    print("%-46s %14.6f %-6s %s" % (name, value, unit, note))
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    run_start = time.perf_counter()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fptopos", "cli.py")):
        print("error: run from the fptopos repository root "
              "(src/fptopos/cli.py not found)", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "answers.json")) as fh:
        answers = json.load(fh)
    workload = WORKLOADS[args.workload]
    scratch = os.path.join(root, ".bench_out")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        runner = Runner(root, workdir, answers, COMMAND_LIMIT_S)
        problems = oracle_check(runner, workload)
        plain, traced, setup, orders = measure(
            runner, workload, args.seed, args.seconds, bool(args.trace),
            run_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    print("workload %s, seed %d, %d passes; first pass order: %s" % (
        workload.name, args.seed, len(orders), " ".join(orders[0])))
    for cid, recs in plain.items():
        print("  %-28s n=%-3d median %.4f s  walls %s" % (
            cid, len(recs), statistics.median(r["wall"] for r in recs)
            if recs else float("nan"),
            " ".join("%.3f" % r["wall"] for r in recs)))
    complete = all(plain.values()) and (not args.trace
                                        or all(traced.values()))
    if not complete:
        problems.append("some command has no successful sample")
    metrics = {}
    if complete and not args.trace:
        verdict = sum(statistics.median(r["wall"] for r in recs)
                      for recs in plain.values())
        n = min(len(recs) for recs in plain.values())
        metrics["verdict_s"] = report(
            "verdict_s", verdict, "s",
            "sum of per-command medians, >= %d samples each" % n)
        metrics["setup_s"] = report(
            "setup_s", statistics.median(setup), "s",
            "median of %d processes" % len(setup))
        metrics["peak_rss_mb"] = report(
            "peak_rss_mb", max(statistics.median(r["rss_mb"] for r in recs)
                               for recs in plain.values()), "MiB",
            "largest per-command median ru_maxrss")
    elif complete:
        chosen = [median_sample(recs) for recs in traced.values()]
        per_command = [r["metrics"] for r in chosen]
        for cm, rec in zip(per_command, chosen):
            cm["trace.verdict_s"] = rec["wall"]
        for recs in traced.values():
            for rec in recs:
                problems.extend(rec["problems"])
        untraced = sum(statistics.median(r["wall"] for r in recs)
                       for recs in plain.values())
        lm = layer_metrics(per_command, untraced)
        for name, unit in PER_LAYER:
            note = ""
            if name in RATIOS:
                num, den = RATIOS[name]
                note = "= %s / %s = %.6g / %.6g" % (
                    num, den, lm.get(num, 0), lm.get(den, 0))
            metrics[name] = report(name, lm.get(name, 0), unit, note)
        shares = sorted(((k, v) for k, v in lm.items()
                         if k.endswith(".self_s")), key=lambda kv: -kv[1])
        print("share of trace.verdict_s = %.4f s:" % lm["trace.verdict_s"])
        for key, value in ([kv for kv in shares if kv[0][:6] == "layer."]
                           + [("trace.outside_s", lm["trace.outside_s"])]
                           + [kv for kv in shares
                              if kv[0][:6] != "layer."][:12]):
            print("  %-44s %9.4f s  %5.1f %%" % (
                key, value, 100 * value / lm["trace.verdict_s"]))
    failed = len(runner.failures)
    print("fail_ratio = %d / %d = %.4f" % (
        failed, runner.attempted, failed / max(runner.attempted, 1)))
    for line in runner.failures + problems:
        print("FAIL " + line)
    print(json.dumps({"correct": not runner.failures and not problems,
                      "attempted": runner.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
