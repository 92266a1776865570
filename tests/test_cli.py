"""Command-line interface, run in-process through main(argv), and in a
fresh process to see what importing it loads."""

import json
import os
import subprocess
import sys

import pytest

import fptopos
from fptopos.cli import _SUBCOMMANDS, _build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_catalog(capsys):
    code, rep = run_json(capsys, "catalog")
    assert code == 0
    assert "refgraph" in rep["details"]["catalog"]
    assert len(rep["details"]["catalog"]) == 5


def test_subc_counts_terminal_of_two_discrete(capsys):
    code, rep = run_json(capsys, "subc", "--base", "two-discrete",
                         "--object", "builtin:1")
    assert code == 0
    assert rep["details"]["count"] == 4


def test_check_ns_refgraph_holds(capsys):
    code, rep = run_json(capsys, "check-ns", "--base", "refgraph")
    assert code == 0 and rep["verdict"] == "holds"


def test_check_ns_graph_fails_with_edge_representable(capsys):
    code, rep = run_json(capsys, "check-ns", "--base", "graph")
    assert code == 1 and rep["verdict"] == "fails"
    assert "y(E)" in rep["witnesses"][0]["all_failing"]


def test_pi_and_connected_on_builtin(capsys):
    code, rep = run_json(capsys, "pi", "--object", "P2")
    assert code == 0
    q = rep["details"]["quotient"]
    assert {c: len(v) for c, v in q["sets"].items()} == {"V": 1, "E": 1}
    code, rep = run_json(capsys, "connected", "--object", "P2")
    assert code == 0 and rep["verdict"] == "connected"
    code, rep = run_json(capsys, "connected", "--object", "2")
    assert code == 1 and rep["verdict"] == "not-connected"


def test_decidable_subcommand(capsys):
    code, _ = run_json(capsys, "decidable", "--object", "D2")
    assert code == 0
    code, _ = run_json(capsys, "decidable", "--object", "P2")
    assert code == 1


def test_pneumo_both_maps(capsys):
    for mp in ("pi", "separated"):
        code, rep = run_json(capsys, "pneumo", "--object", "L",
                             "--map", mp)
        assert code == 0 and rep["verdict"] == "pneumoconnected-fibers"


def test_check_dqo_object_and_bound(capsys):
    code, rep = run_json(capsys, "check-dqo", "--base", "graph",
                         "--object", "A1")
    assert code == 1 and rep["verdict"] == "fails"
    code, rep = run_json(capsys, "check-dqo", "--base", "refgraph",
                         "--bound", "V=1,E=2")
    assert code == 0 and rep["verdict"] == "holds-at-bound"


def test_check_dso_bound(capsys):
    code, rep = run_json(capsys, "check-dso", "--base", "two-discrete",
                         "--bound", "1")
    assert code == 1 and rep["verdict"] == "fails"


def test_dec_topos_agreement_reported(capsys):
    code, rep = run_json(capsys, "dec-topos", "--base", "sierpinski",
                         "--bound", "2")
    assert code == 0  # the two sides agree (both false)
    assert rep["verdict"] == "agree"
    assert rep["details"]["monos_complemented"] is False
    assert rep["details"]["pi_epic_on_dense"] is False
    assert rep["witnesses"]


def test_precohesion_refgraph(capsys):
    code, rep = run_json(capsys, "precohesion", "--bound", "V=1,E=2")
    assert code == 0 and rep["verdict"] == "precohesive"
    for k in ("fully_faithful", "products_preserved", "counit_monic",
              "nullstellensatz"):
        assert rep["details"][k] is True


def test_verify_lemma_and_props(capsys):
    code, _rep = run_json(capsys, "verify", "lemma", "--bound", "V=1,E=2")
    assert code == 0
    code, rep = run_json(capsys, "verify", "props", "--bound", "V=1,E=2",
                         "--props", "pi-structure,connected-iff-pi-one")
    assert code == 0
    assert len(rep["details"]["properties"]) == 2


def test_props_cap_hit_is_unknown_for_that_property_only(capsys):
    code, rep = run_json(capsys, "verify", "props", "--bound", "V=1,E=2",
                         "--cap", "8")
    assert code == 1 and rep["verdict"] == "unknown-at-cap"
    props = rep["details"]["properties"]
    assert len(props) == 10
    assert sum(v is True for v in props.values()) == 8
    assert set(props.values()) == {True, "unknown-at-cap"}


def test_lemma_cap_hit_is_unknown_at_cap(capsys):
    # P_c of a corpus object passes the cap: the lemma's verdict is
    # unknown at the cap, with the cap's message, not an exit-2 error.
    code, rep = run_json(capsys, "verify", "lemma", "--base", "sierpinski",
                         "--bound", "3", "--cap", "4")
    assert code == 1 and rep["verdict"] == "unknown-at-cap"
    assert rep["details"] == {"capped": "Hom(X,2) has 8 elements (cap 4)"}


def test_dec_topos_cap_hit_is_unknown_at_cap(capsys):
    # The subfunctors of a decidable corpus object pass the cap; verify D
    # keeps the verdict instead of turning it into "fails".
    for argv in (("dec-topos",), ("verify", "D")):
        code, rep = run_json(capsys, *argv, "--bound", "3", "--cap", "3")
        assert code == 1 and rep["verdict"] == "unknown-at-cap", argv
        assert rep["details"] == {"capped": "more than 3 subfunctors (cap)"}


@pytest.mark.parametrize("prop", [
    "lemma-equivalences", "pi-product-preservation", "pneumo-pi-quotients",
    "pneumo-separated-reflections", "pneumo-two-inverting-epis"])
def test_search_cap_hit_is_unknown_at_cap(capsys, prop):
    # A search that is not a per-object check reports a cap hit anywhere
    # in it as unknown at the cap, with the cap's message.  Π's products
    # read ΠX's sizes off ∫X, so only the product X×Y can pass the cap.
    code, rep = run_json(capsys, "search-counterexample", "--base",
                         "sierpinski", "--bound", "3", "--cap", "4",
                         "--property", prop)
    assert code == 1 and rep["verdict"] == "unknown-at-cap"
    assert rep["witnesses"] == []
    capped = ("product needs 6 elements at one stage (cap 4)"
              if prop == "pi-product-preservation" else
              "Hom(X,2) has 8 elements (cap 4)")
    assert rep["details"] == {"capped": capped, "property": prop}


def test_point_bound_13_builds_no_pi(capsys):
    # Π of a 13-element set lists its sides under the 2^13 maps to 2,
    # past the default cap; precohesion and theorems A and C reach their
    # verdicts without building Π.
    for argv, verdict in ((("precohesion",), "precohesive"),
                          (("verify", "A"), "holds"),
                          (("verify", "C"), "holds")):
        code, rep = run_json(capsys, *argv, "--base", "point", "--bound",
                             "13")
        assert (code, rep["verdict"]) == (0, verdict), argv


def test_connected_iff_pi_one_reads_pi_sizes(capsys):
    # ΠX ≅ 1 is read off the components of ∫X, so a cap that Π of a
    # three-component object would pass does not stop the property.
    for base in ("refgraph", "point"):
        code, rep = run_json(capsys, "verify", "props", "--base", base,
                             "--bound", "3", "--cap", "4", "--props",
                             "connected-iff-pi-one")
        assert code == 0, base
        assert rep["details"]["properties"] == {"connected-iff-pi-one": True}


def test_props_witnesses_name_their_property(capsys):
    from fptopos.decidable import is_connected, pi
    from fptopos.fincat import catalog
    from fptopos.presheaf import is_isomorphic, make_presheaf, terminal
    code, rep = run_json(capsys, "verify", "props", "--base", "graph",
                         "--bound", "V=2,E=1", "--props",
                         "pi-structure,connected-iff-pi-one,pi-products")
    assert code == 1 and rep["verdict"] == "fails"
    props = rep["details"]["properties"]
    assert props == {"pi-structure": True, "connected-iff-pi-one": False,
                     "pi-products": False}
    assert [w["property"] for w in rep["witnesses"]] == \
        ["connected-iff-pi-one", "pi-products"]
    # The witness re-checks from its JSON alone.
    w = rep["witnesses"][0]["object"]
    GR = catalog("graph")
    X = make_presheaf(GR, w["sets"], w["actions"])
    assert is_connected(X) != is_isomorphic(pi(X).quotient, terminal(GR))


def test_bound_stage_names_are_checked(capsys):
    for argv in (("enumerate", "--bound", "v=2,E=1"),
                 ("verify", "A", "--bound", "v=2,E=1"),
                 ("enumerate", "--bound", "V=2,V=1"),
                 ("verify", "B", "--bound", "V=2,V=1")):
        assert main(list(argv)) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("'v'" if "v=2" in argv[-1] else "'V'") in captured.err


def test_verify_theorem_c(capsys):
    code, rep = run_json(capsys, "verify", "C", "--bound", "V=1,E=2")
    assert code == 0 and rep["verdict"] == "holds"
    assert rep["details"]["axioms_hold"] and rep["details"]["precohesive"]
    assert rep["details"]["checks"]["dso_part_nn_dense"] is True


def test_verify_theorem_c_prerequisite_failure(capsys):
    code, rep = run_json(capsys, "verify", "C", "--base", "graph",
                         "--bound", "2")
    assert code == 1 and rep["verdict"] == "prerequisite-failed"
    assert "NS" in rep["details"]["failed_prereq"]


def test_search_counterexample_exit_codes(capsys):
    code, rep = run_json(capsys, "search-counterexample", "--base",
                         "graph", "--bound", "V=2,E=1",
                         "--property", "dqo-uniqueness")
    assert code == 1 and rep["verdict"] == "witness" and rep["witnesses"]
    code, rep = run_json(capsys, "search-counterexample",
                         "--bound", "V=1,E=2",
                         "--property", "dqo-uniqueness")
    assert code == 0 and rep["verdict"] == "none"


def test_enumerate(capsys):
    code, rep = run_json(capsys, "enumerate", "--bound", "V=1,E=2")
    assert code == 0 and rep["details"]["count"] == 3
    code, rep = run_json(capsys, "enumerate", "--bound", "V=1,E=2",
                         "--list")
    assert len(rep["details"]["presheaves"]) == 3
    assert rep["timings"] is None
    # --timings adds what the corpus search did: on refgraph at bound 3,
    # 63 partial tables are dropped because a swap of two elements makes
    # them smaller, and 10 functorial tables reach a leaf, for 8 classes.
    code, rep = run_json(capsys, "enumerate", "--bound", "3", "--timings")
    counts = {k: v for k, v in rep["timings"].items() if k != "seconds"}
    assert counts == {"candidate_tables_tried": 723, "prefixes_pruned": 63,
                      "leaves_validated": 10, "refined_keys": 10}


def test_fiber_counts_with_timings(capsys):
    # --timings adds what the fiber conditions searched, beside the
    # corpus counts: on sierpinski at bound 2, 22 epis out of 8 domains,
    # each domain's maps into the 6 decidables found once.
    code, rep = run_json(capsys, "verify", "lemma", "--base", "sierpinski",
                         "--bound", "2")
    assert code == 0 and rep["timings"] is None
    code, rep = run_json(capsys, "verify", "lemma", "--base", "sierpinski",
                         "--bound", "2", "--timings")
    counts = {k: v for k, v in rep["timings"].items() if k != "seconds"}
    assert counts == {"candidate_tables_tried": 9, "prefixes_pruned": 2,
                      "leaves_validated": 8, "refined_keys": 8,
                      "epis_checked": 22, "fiber_checks": 142,
                      "domain_hom_sets": 48}
    for argv in (("verify", "props", "--base", "sierpinski", "--bound", "1"),
                 ("search-counterexample", "--base", "graph", "--bound",
                  "V=2,E=1", "--property", "pneumo-two-inverting-epis")):
        code, rep = run_json(capsys, *argv, "--timings")
        assert {"epis_checked", "fiber_checks", "domain_hom_sets"} <= \
            set(rep["timings"])


def test_force_formula(capsys):
    code, rep = run_json(capsys, "force",
                         "--formula", "all x : P2 . x = x",
                         "--let", "P2=P2")
    assert code == 0 and rep["verdict"] == "valid"
    code, rep = run_json(capsys, "force",
                         "--formula",
                         "all x : L . all y : L . x = y or not x = y",
                         "--let", "L=L")
    # the stage-minimal countermodel already appears at V, where the
    # quantifier reaches the loop "e" along sigma
    assert code == 1 and rep["witnesses"][0]["stage"] in ("V", "E")


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """`code` run by a new interpreter that finds this fptopos."""
    src = os.path.dirname(os.path.dirname(fptopos.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


def test_cli_import_leaves_the_formula_interpreter_unloaded():
    # Only `force` evaluates formulas, and it imports the interpreter
    # itself, so no other command pays for compiling it.
    proc = _fresh_python(
        "import sys\n"
        "import fptopos.cli\n"
        "assert 'fptopos.forcing' not in sys.modules\n"
        "sys.exit(fptopos.cli.main(['force', '--formula',\n"
        "    'all x : P2 . x = x', '--let', 'P2=P2', '--format',\n"
        "    'json']))\n")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "valid"


def test_cli_import_leaves_dataclasses_unloaded():
    # The records are plain classes: `dataclasses` would pull in
    # `inspect` (and with it `ast`, `dis` and `tokenize`) at every start.
    # pytest loads both, hence the new process.
    proc = _fresh_python(
        "import sys\n"
        "import fptopos.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def _modules_run_by(*argv) -> list[str]:
    """The package modules that `fptopos.cli.main(argv)` compiles and runs
    in a new interpreter.  The CLI registers every module past errors,
    fincat and report in sys.modules without running it (importlib's
    LazyLoader), and each runs at the first read of one of its
    attributes; until then its type is a subclass of the module type."""
    proc = _fresh_python(
        "import contextlib, io, sys, types\n"
        "import fptopos.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = fptopos.cli.main(%r)\n"
        "assert code == 0, code\n"
        "print(*sorted(n for n, m in sys.modules.items()\n"
        "              if n.startswith('fptopos.')\n"
        "              and type(m) is types.ModuleType))\n" % (list(argv),))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


# What a command that NS on the base decides runs: the base, NS decided
# on its hom-sets, and the report.
NS_DECIDED_RUN = ["fptopos.cli", "fptopos.errors", "fptopos.fincat",
                  "fptopos.precohesion", "fptopos.report"]


@pytest.mark.parametrize("argv, run", [
    (("precohesion",), NS_DECIDED_RUN), (("verify", "A"), NS_DECIDED_RUN),
    (("verify", "C"), NS_DECIDED_RUN),
    (("verify", "props", "--props", "pi-structure,connected-iff-pi-one,"
      "connected-products,pi-products"), NS_DECIDED_RUN),
    (("check-dqo",), NS_DECIDED_RUN),
    (("enumerate",), ["fptopos.cli", "fptopos.corpus", "fptopos.errors",
                      "fptopos.fincat", "fptopos.presheaf",
                      "fptopos.report"])],
    ids=("precohesion", "verify A", "verify C", "verify props",
         "check-dqo", "enumerate"))
def test_each_command_loads_only_its_modules(argv, run):
    # The NS-decided commands compile no presheaf, files, builtins,
    # corpus, decidable, sublattice or harness layer; `enumerate`
    # compiles no decidable layer and no builtins.
    assert _modules_run_by(*argv, "--bound", "3") == run


# Arguments that argparse answers itself: help, an unknown option, a
# missing required option and a bad choice, for each subcommand; and at
# the top level, help, no arguments and an unknown subcommand.
PARSER_CASES = [["-h"], [], ["nope"], ["verify", "X"],
                *([name, "-h"] for name in _SUBCOMMANDS),
                *([name, "--bogus"] for name in _SUBCOMMANDS),
                *([name, "--format", "xml"] for name in _SUBCOMMANDS),
                *([name] for name, spec in _SUBCOMMANDS.items()
                  if spec[2] == "req" or name in ("force", "verify",
                                                  "search-counterexample"))]


def _exit_of(parse, argv, capsys) -> tuple:
    """The exit code, stdout and stderr of parse(argv), which exits."""
    with pytest.raises(SystemExit) as exited:
        parse(argv)
    captured = capsys.readouterr()
    return exited.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSER_CASES,
                         ids=lambda argv: " ".join(argv) or "no arguments")
def test_one_subparser_answers_as_the_full_parser(argv, capsys):
    # `main` builds only the subparser that argv[0] names; its usage,
    # help and error text equal those of a parser with every subcommand,
    # including the top-level usage that an unknown option prints.
    full = _exit_of(_build_parser().parse_args, argv, capsys)
    assert _exit_of(main, argv, capsys) == full
    assert full[0] == (0 if "-h" in argv else 2)


@pytest.mark.parametrize("argv, known", [
    (("search-counterexample", "--property", "nope"), "lemma-equivalences"),
    (("verify", "props", "--props", "pi-products,nope"), "pi-products")])
def test_unknown_property_names_exit_two_listing_the_known(capsys, argv,
                                                           known):
    # The parser leaves the names to the harness, which lists them.
    assert main([*argv, "--bound", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown property 'nope'" in captured.err
    assert known in captured.err


def test_dec_topos_witness_rechecks_from_its_json(capsys):
    # The dense arrow with non-epic Π names its components, so it is
    # rebuilt and found dense with Π(f) not epic from the JSON alone.
    from fptopos.decidable import pi
    from fptopos.fincat import catalog
    from fptopos.presheaf import (NatTrans, is_epi, make_presheaf,
                                  nat_transformations)
    from fptopos.sublattice import is_nn_dense_arrow
    code, rep = run_json(capsys, "dec-topos", "--base", "graph", "--bound",
                         "2")
    assert code == 0 and not rep["details"]["pi_epic_on_dense"]
    (w,) = [w["dense_arrow_with_nonepic_pi"] for w in rep["witnesses"]
            if "dense_arrow_with_nonepic_pi" in w]
    GR = catalog("graph")
    X, Y = (make_presheaf(GR, w[k]["sets"], w[k]["actions"])
            for k in ("dom", "cod"))
    f = NatTrans(X, Y, w["arrow"])
    assert any(f.same_components(h) for h in nat_transformations(X, Y))
    assert is_nn_dense_arrow(f)
    assert not is_epi(f.then(pi(Y).map))


def test_file_inputs(capsys, tmp_path):
    code, rep = run_json(capsys, "pi", "--base", "samples/refgraph.cat",
                         "--object", "samples/p2.psh")
    assert code == 0
    q = rep["details"]["quotient"]
    assert {c: len(v) for c, v in q["sets"].items()} == {"V": 1, "E": 1}


def test_errors_exit_two(capsys):
    assert main(["pi", "--object", "no-such-file.psh"]) == 2
    _ = capsys.readouterr()
    assert main(["check-dqo", "--bound", "wat"]) == 2
    _ = capsys.readouterr()
    assert main(["pi", "--object", "builtin:nope"]) == 2


def test_json_reports_are_parallelism_invariant(capsys):
    outs = []
    for jobs in ("1", "4"):
        code, out = run(capsys, "verify", "props", "--bound", "V=1,E=2",
                        "--jobs", jobs, "--format", "json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_text_format_has_one_verdict_line(capsys):
    code, out = run(capsys, "check-ns", "--base", "refgraph")
    assert code == 0
    assert any(line.startswith("verdict") for line in out.splitlines())
