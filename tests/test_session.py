"""Each corpus-quantified command enumerates its corpus exactly once."""

import sys

import pytest

import fptopos.corpus
from fptopos.cli import main

COMMANDS = [
    ["precohesion", "--bound", "2"],
    ["verify", "A", "--bound", "2"],
    ["verify", "C", "--bound", "2"],
    ["verify", "lemma", "--bound", "2"],
    ["verify", "props", "--bound", "1"],
    ["check-dqo", "--bound", "2"],
    ["check-dso", "--bound", "2"],
    ["dec-topos", "--bound", "2"],
    ["search-counterexample", "--property", "lemma-equivalences",
     "--bound", "2"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_enumerates_corpus_once(argv, monkeypatch, capsys):
    original = fptopos.corpus.enumerate_presheaves
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("fptopos") and \
                getattr(module, "enumerate_presheaves", None) is original:
            monkeypatch.setattr(module, "enumerate_presheaves", counting)
    assert main(argv + ["--base", "refgraph", "--format", "json"]) == 0
    capsys.readouterr()
    assert len(calls) == 1
