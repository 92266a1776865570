"""Pin the benchmark's answers from the current code.

    python3 benchmarks/pin.py [WORKLOAD ...]

Run from the repository root.  Runs every command of the named workloads
(default: all) once with --jobs 1, records its exit code, verdict,
details and whether it carries a witness in answers.json beside this
file, then recounts the pinned corpus sizes with the brute-force oracle
in tests/oracles.py.  Exits 1 if a command exits 2 or a recount differs.
"""

from __future__ import annotations

import json
import os
import sys

from run import COMMAND_LIMIT_S, HERE, Runner, oracle_check
from workloads import WORKLOADS, answer_of, cli_argv


def main(names: list[str]) -> int:
    root = os.getcwd()
    path = os.path.join(HERE, "answers.json")
    answers = {}
    if os.path.exists(path):
        with open(path) as fh:
            answers = json.load(fh)
    os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
    runner = Runner(root, os.path.join(root, ".bench_out"), answers,
                    COMMAND_LIMIT_S)
    ok = True
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        for cmd in workload.commands:
            rec = runner.spawn([sys.executable, "-m", "fptopos.cli"]
                               + cli_argv(cmd, jobs=1), COMMAND_LIMIT_S)
            if rec["exit"] == 2 or rec["timed_out"]:
                print("%s: exit %d %s" % (cmd.id, rec["exit"],
                                          rec["stderr"][-300:]))
                ok = False
                continue
            answers[cmd.id] = answer_of(rec["exit"], rec["stdout"])
            print("%-28s exit %d  %-12s %.2f s" % (
                cmd.id, rec["exit"], answers[cmd.id]["verdict"],
                rec["wall"]))
        for problem in oracle_check(runner, workload):
            print(problem)
            ok = False
    for leftover in ("stdout", "stderr"):
        os.remove(os.path.join(root, ".bench_out", leftover))
    os.rmdir(os.path.join(root, ".bench_out"))
    with open(path, "w") as fh:
        json.dump(answers, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
