"""JSON reports of corpus-quantified commands, byte for byte.

Each file in tests/golden/ is the stdout of `fptopos <command> --format
json`, so a faster search behind these commands (hom-sets, isomorphisms,
Π, corpora) must leave every report unchanged."""

import pathlib

import pytest

from fptopos.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

COMMANDS = {
    "precohesion-2": ("precohesion", "--bound", "2"),
    "verify-A-2": ("verify", "A", "--bound", "2"),
    "verify-C-2": ("verify", "C", "--bound", "2"),
    "dec-topos-2": ("dec-topos", "--bound", "2"),
    "check-dso-2": ("check-dso", "--bound", "2"),
    "verify-lemma-sierpinski-2": ("verify", "lemma", "--base", "sierpinski",
                                  "--bound", "2"),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_json_report_matches_golden(capsys, name):
    code = main([*COMMANDS[name], "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / ("%s.json" % name)).read_bytes()
