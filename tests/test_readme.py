"""The usage examples of README.md run and give a verdict.

Each `fptopos …` line of the README's command-line usage block runs
through `cli.main` from the repository root, with `--format json`, and
must exit 0 (holds) or 1 (fails, or unknown at the cap), never 2."""

import json
import pathlib
import re
import shlex

import pytest

from fptopos.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _usage_commands() -> list[list[str]]:
    """The argv of each `fptopos` line of the first sh block after the
    "Command-line usage" heading, continuation lines joined and
    comments dropped."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Command-line usage"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv and argv[0] == "fptopos":
            commands.append(argv[1:])
    return commands


COMMANDS = _usage_commands()


def test_the_usage_block_is_found():
    assert len(COMMANDS) == 15


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_example_runs(capsys, monkeypatch, argv):
    monkeypatch.chdir(ROOT)
    code = main([*argv, "--format", "json"])
    captured = capsys.readouterr()
    assert code in (0, 1), captured.err
    assert json.loads(captured.out)["command"] == argv[0] + (
        " " + argv[1] if argv[0] == "verify" else "")
