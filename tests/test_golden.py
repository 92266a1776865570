"""JSON reports of CLI commands, byte for byte, with their exit codes.

Each file in tests/golden/ is the stdout of `fptopos <command> --format
json`, so a faster search behind these commands (hom-sets, isomorphisms,
Π, complemented parts, P_c, corpora) or a new report layout must leave
every report unchanged.  The cases cover verdicts that hold and the
failing paths: NS, DQO and DSO failures, a not-applicable precohesion
check, a failed prerequisite, a counterexample search that finds a
witness, and a pneumoconnected-fibers failure whose witness names an
element of P_c.  The fiber cases run the three fiber conditions over
corpus epis (`verify lemma`, `search-counterexample`) and the pneumo
properties, including P_c of product domains and of pullbacks.  The
`enumerate --list` cases pin corpora: their representatives, action
tables and order; the bound-4 and sierpinski bound-5 corpora were pinned
from the corpus search before it pruned tables that a swap of two
elements makes smaller, and the sierpinski bound-7 counts from the
dedup by least relabelled table, before it became an invariant plus an
iso test.  The bounded DQO checks and the DQO counterexample search on
sierpinski were pinned at the cap at some objects while DQO listed every
subfunctor of X×X; DQO is now decided by a closure, and they reach a
verdict.  `precohesion` and `verify C` at refgraph bound 4 hit the size
cap at Π and reported unknown at the cap instead of aborting; Π of
products is now decided on component counts, and these two and `verify
A` at bound 4 were re-pinned from the reports the earlier code gave with
the cap raised.  The whole
property battery at refgraph bound 3 was pinned while the fiber check
ran on P_c(X) as a relation object, before it read P_c(X) off component
masks.  `verify A` at refgraph bound 5 and `verify lemma` at two-discrete
bound 4 were pinned while the exponential-ideal check built Y^X from the
hom-sets Hom(y(c)×X, Y) and the lemma listed every map from an epi's
domain to each decidable; both are now read per component of the
category of elements.  `verify A` on the point at bound 6 was pinned
while theorem A listed Hom(ΠX, S) and Hom(X, S) for every pair; it now
asks whether every map into a decidable factors through the unit.
`precohesion` on the point at bound 6 was pinned while each f_* ⊣ f^!
transpose was found by a search over Hom(f_*X, S); it is now read off
its formula.  `precohesion` and `verify C` on the monoids idem ({1, e},
e∘e = e) and lz ({1, a, b}, x∘y = x), both at bound 4, were pinned while
both built Π of every corpus object to check the Nullstellensatz and
theorem C's ingredients, which now hold by construction.  `precohesion`
and `verify C` at bound 3 on the cospan a → c ← b and on arrowidem, two
bases without NS, were pinned while both commands enumerated the corpus
before or after deciding NS; they now decide NS on the base alone.  The
bounded DQO check and the DQO search on graph at a cap of 3, unknown at
the cap at X5, and the DSO search on two-discrete, which finds a
witness, were pinned while the bounded check and the two per-object
searches ran the scan through two code paths; they now share one.
`dec-topos` at bound 2 on sierpinski and on the cospan, where both sides
of the criterion fail and each names its witness, were pinned while the
right side built Π(Y) of every dense arrow's codomain; it now reads the
components of ∫Y."""

import pathlib

import pytest

from fptopos.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

# name: (command, expected exit code)
COMMANDS = {
    "precohesion-2": (("precohesion", "--bound", "2"), 0),
    "verify-A-2": (("verify", "A", "--bound", "2"), 0),
    "verify-C-2": (("verify", "C", "--bound", "2"), 0),
    "dec-topos-2": (("dec-topos", "--bound", "2"), 0),
    "check-dso-2": (("check-dso", "--bound", "2"), 0),
    "verify-lemma-sierpinski-2": (("verify", "lemma", "--base", "sierpinski",
                                   "--bound", "2"), 0),
    "check-ns-graph": (("check-ns", "--base", "graph"), 1),
    "check-dqo-graph-V2E1": (("check-dqo", "--base", "graph", "--bound",
                              "V=2,E=1"), 1),
    "check-dqo-graph-A1": (("check-dqo", "--base", "graph", "--object",
                            "A1"), 1),
    "check-dqo-P2": (("check-dqo", "--object", "P2"), 0),
    "check-dso-two-discrete-1": (("check-dso", "--base", "two-discrete",
                                  "--bound", "1"), 1),
    "precohesion-graph-V1E1": (("precohesion", "--base", "graph", "--bound",
                                "V=1,E=1"), 1),
    "verify-C-graph-2": (("verify", "C", "--base", "graph", "--bound", "2"),
                         1),
    "verify-B-2": (("verify", "B", "--bound", "2"), 0),
    "verify-D-two-discrete-2": (("verify", "D", "--base", "two-discrete",
                                 "--bound", "2"), 0),
    "search-dqo-graph-V2E1": (("search-counterexample", "--base", "graph",
                               "--bound", "V=2,E=1", "--property",
                               "dqo-uniqueness"), 1),
    "check-dqo-graph-V2E1-cap3": (("check-dqo", "--base", "graph", "--bound",
                                   "V=2,E=1", "--cap", "3"), 1),
    "search-dqo-graph-V2E1-cap3": (("search-counterexample", "--base",
                                    "graph", "--bound", "V=2,E=1",
                                    "--property", "dqo-uniqueness", "--cap",
                                    "3"), 1),
    "search-dso-two-discrete-1": (("search-counterexample", "--base",
                                   "two-discrete", "--bound", "1",
                                   "--property", "dso-uniqueness"), 1),
    "subc-D3": (("subc", "--object", "D3"), 0),
    "subc-two-discrete-1": (("subc", "--base", "two-discrete", "--object",
                             "1"), 0),
    "connected-2": (("connected", "--object", "2"), 1),
    "pneumo-L-separated": (("pneumo", "--object", "L", "--map",
                            "separated"), 0),
    "pneumo-graph-A1-pi": (("pneumo", "--base", "graph", "--object", "A1",
                            "--map", "pi"), 1),
    "verify-props-sierpinski-2": (("verify", "props", "--base",
                                   "sierpinski", "--bound", "2"), 1),
    "verify-props-refgraph-2": (("verify", "props", "--base", "refgraph",
                                 "--bound", "2"), 0),
    "verify-props-refgraph-3": (("verify", "props", "--base", "refgraph",
                                 "--bound", "3"), 1),
    "verify-lemma-graph-V3E2": (("verify", "lemma", "--base", "graph",
                                 "--bound", "V=3,E=2"), 1),
    "search-pneumo-epis-graph-V2E1": (("search-counterexample", "--base",
                                       "graph", "--bound", "V=2,E=1",
                                       "--property",
                                       "pneumo-two-inverting-epis"), 1),
    "verify-props-pneumo-closed-V2E3": (("verify", "props", "--bound",
                                         "V=2,E=3", "--props",
                                         "pneumo-pullback-closed,"
                                         "pneumo-product-closed"), 1),
    "enumerate-graph-V3E2": (("enumerate", "--list", "--base", "graph",
                              "--bound", "V=3,E=2"), 0),
    "enumerate-sierpinski-3": (("enumerate", "--list", "--base",
                                "sierpinski", "--bound", "3"), 0),
    "enumerate-refgraph-V2E3": (("enumerate", "--list", "--base",
                                 "refgraph", "--bound", "V=2,E=3"), 0),
    "enumerate-refgraph.cat-V2E2": (("enumerate", "--list", "--base",
                                     "samples/refgraph.cat", "--bound",
                                     "V=2,E=2"), 0),
    "enumerate-two-discrete-2": (("enumerate", "--list", "--base",
                                  "two-discrete", "--bound", "2"), 0),
    "enumerate-sierpinski-5": (("enumerate", "--list", "--base",
                                "sierpinski", "--bound", "5"), 0),
    "enumerate-refgraph-4": (("enumerate", "--list", "--base", "refgraph",
                              "--bound", "4"), 0),
    "enumerate-graph-4": (("enumerate", "--base", "graph", "--bound", "4"),
                          0),
    "enumerate-sierpinski-7": (("enumerate", "--base", "sierpinski",
                                "--bound", "7"), 0),
    "check-dqo-sierpinski-3": (("check-dqo", "--base", "sierpinski",
                                "--bound", "3"), 0),
    "search-dqo-sierpinski-3": (("search-counterexample", "--base",
                                 "sierpinski", "--bound", "3", "--property",
                                 "dqo-uniqueness"), 0),
    "check-dqo-4": (("check-dqo", "--bound", "4"), 0),
    "check-dqo-sierpinski-4": (("check-dqo", "--base", "sierpinski",
                                "--bound", "4"), 0),
    "precohesion-4": (("precohesion", "--bound", "4"), 0),
    "verify-C-4": (("verify", "C", "--bound", "4"), 0),
    "verify-A-4": (("verify", "A", "--bound", "4"), 0),
    "verify-A-5": (("verify", "A", "--bound", "5"), 0),
    "verify-A-point-6": (("verify", "A", "--base", "point", "--bound", "6"),
                         0),
    "precohesion-point-6": (("precohesion", "--base", "point", "--bound",
                             "6"), 0),
    "verify-lemma-two-discrete-4": (("verify", "lemma", "--base",
                                     "two-discrete", "--bound", "4"), 0),
    "precohesion-idem-4": (("precohesion", "--base", "samples/idem.cat",
                            "--bound", "4"), 0),
    "verify-C-idem-4": (("verify", "C", "--base", "samples/idem.cat",
                         "--bound", "4"), 0),
    "precohesion-lz-4": (("precohesion", "--base", "samples/lz.cat",
                          "--bound", "4"), 0),
    "verify-C-lz-4": (("verify", "C", "--base", "samples/lz.cat",
                       "--bound", "4"), 0),
    "precohesion-cospan-3": (("precohesion", "--base", "samples/cospan.cat",
                              "--bound", "3"), 1),
    "verify-C-cospan-3": (("verify", "C", "--base", "samples/cospan.cat",
                           "--bound", "3"), 1),
    "precohesion-arrowidem-3": (("precohesion", "--base",
                                 "samples/arrowidem.cat", "--bound", "3"),
                                1),
    "verify-C-arrowidem-3": (("verify", "C", "--base",
                              "samples/arrowidem.cat", "--bound", "3"), 1),
    "dec-topos-sierpinski-2": (("dec-topos", "--base", "sierpinski",
                                "--bound", "2"), 0),
    "dec-topos-cospan-2": (("dec-topos", "--base", "samples/cospan.cat",
                            "--bound", "2"), 0),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_json_report_matches_golden(capsys, name):
    argv, expected_code = COMMANDS[name]
    code = main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    assert code == expected_code
    assert out.encode("utf-8") == (GOLDEN / ("%s.json" % name)).read_bytes()
