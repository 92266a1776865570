"""Acceptance gate: thirteen end-to-end criteria.

Each test prints exactly one PASS/FAIL line (run pytest with -s to see
them) and enforces its wall-clock budget.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager

import pytest

import oracles
from fptopos.builtins import builtin_object
from fptopos.cli import main as cli_main
from fptopos.corpus import enumerate_presheaves
from fptopos.decidable import (check_dqo, check_dso, is_connected,
                               is_decidable, pi, separated_reflection)
from fptopos.errors import AxiomPrereqFailed
from fptopos.fincat import catalog
from fptopos.forcing import PresheafSort, _restrict_env, forces
from fptopos.harness import lemma_report, search_counterexample
from fptopos.precohesion import check_ns, theorem_c_harness
from fptopos.presheaf import (global_elements, is_epi, is_isomorphic,
                              make_presheaf, product, terminal)
from fptopos.sublattice import (complemented_subobjects,
                                has_pneumoconnected_fibers)

PT = catalog("point")
TD = catalog("two-discrete")
RG = catalog("refgraph")
GR = catalog("graph")


@contextmanager
def criterion(n, budget, label):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print("criterion %2d: FAIL  %s" % (n, label))
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget, \
        "criterion %d exceeded budget: %.1fs >= %ss" % (n, elapsed, budget)
    print("criterion %2d: PASS  %s (%.2fs, budget %ss)"
          % (n, label, elapsed, budget))


def test_criterion_01_terminal_of_set_x_set_has_four_pieces():
    with criterion(1, 1, "Sub_c(1) on the two-discrete base has 4 elements"):
        assert len(complemented_subobjects(terminal(TD))) == 4


def test_criterion_02_ns_decisions_with_brute_force_cross_check():
    with criterion(2, 40, "NS verdicts on 4 bases, brute-forced at bound 3"):
        expected = {"point": True, "refgraph": True,
                    "graph": False, "two-discrete": False}
        for name, holds in expected.items():
            C = catalog(name)
            r = check_ns(C)
            assert r.holds() == holds, name
            corpus = enumerate_presheaves(C, 3)
            assert oracles.ns_brute_force(corpus).holds() == holds, name
        assert "y(E)" in check_ns(GR).witnesses[0]["all_failing"]
        assert check_ns(TD).witnesses[0]["representable"].startswith("y(")


def test_criterion_03_connected_iff_pi_is_terminal():
    with criterion(3, 120, "is_connected(X) ⇔ Π(X) ≅ 1, refgraph bound 3"):
        one = terminal(RG)
        for X in enumerate_presheaves(RG, 3):
            assert is_connected(X) == \
                is_isomorphic(pi(X).quotient, one), X.name


def test_criterion_04_pi_counts_components_and_is_discrete():
    with criterion(4, 120, "Π points = union-find components, Π discrete"):
        for X in enumerate_presheaves(RG, 3):
            Q = pi(X).quotient
            assert len(global_elements(Q)) == oracles.component_count(X)
            sigma_image = {Q.act("sigma", v) for v in Q.sets["V"]}
            assert len(sigma_image) == len(Q.sets["V"]) == len(Q.sets["E"])


def test_criterion_05_fiber_pneumoconnectedness_equivalences():
    with criterion(5, 600, "epi fiber conditions (i)=(ii)=(iii), bound 2"):
        r = lemma_report(enumerate_presheaves(RG, 2))
        assert r.holds() and r.witnesses == []


def test_criterion_06_pi_preserves_products_and_connected_products():
    with criterion(6, 300, "Π(X×Y) ≅ ΠX×ΠY; connected closed under ×"):
        objs = list(enumerate_presheaves(RG, 2))
        for X in objs:
            for Y in objs:
                P, _p1, _p2 = product(X, Y)
                rhs, _q1, _q2 = product(pi(X).quotient, pi(Y).quotient)
                assert is_isomorphic(pi(P).quotient, rhs)
                if is_connected(X) and is_connected(Y):
                    assert is_connected(P)


def test_criterion_07_decidables_are_an_exponential_ideal():
    with criterion(7, 300, "Yˣ decidable for decidable Y, bound 2"):
        objs = list(enumerate_presheaves(RG, 2))
        decs = [Y for Y in objs if is_decidable(Y)]
        for X in objs:
            for Y in decs:
                assert is_decidable(oracles.exponential(X, Y))


def test_criterion_08_dqo_counterexample_search_finds_a1():
    with criterion(8, 30, "DQO search on graph base yields A1 with K={Δ,X²}"):
        w = search_counterexample("dqo-uniqueness",
                                  enumerate_presheaves(GR, 2))
        assert w is not None
        W = make_presheaf(GR, w["object"]["sets"], w["object"]["actions"])
        assert is_isomorphic(W, builtin_object(GR, "A1"))
        ks = sorted((len(k["V"]), len(k["E"]))
                    for k in w["factoring_congruences"])
        assert ks == [(2, 1), (4, 1)]  # the diagonal and the total relation
        # the witness re-checks from its serialized form alone
        assert check_dqo(W).verdict == "fails"


def test_criterion_09_dso_fails_on_lopsided_pair():
    with criterion(9, 1, "DSO fails at ({a}, ∅) with candidates {∅, X}"):
        X = make_presheaf(TD, {"a": ("a0",), "b": ()}, {})
        r = check_dso(X)
        assert r.verdict == "fails"
        assert r.witnesses[0]["decidable_subobjects"] == \
            [{"a": [], "b": []}, {"a": ["a0"], "b": []}]


def test_criterion_10_theorem_c_harness():
    with criterion(10, 600, "axioms ⇔ precohesion on refgraph; NS gate on "
                            "graph"):
        h = theorem_c_harness(RG)
        assert h.holds() and h.details["axioms_hold"] and \
            h.details["precohesive"]
        assert h.details["checks"]["dso_part_nn_dense"]
        assert h.details["checks"]["pi_of_dense_mono_epic"]
        with pytest.raises(AxiomPrereqFailed) as exc:
            theorem_c_harness(GR)
        assert "NS" in str(exc.value)


def test_criterion_11_forcing_soundness_and_monotonicity():
    with criterion(11, 120, "forcing = classical on the point; 1000 "
                            "monotonicity triples"):
        from fptopos.forcing import (Bot, Eq, Mem, SubConst, Top, VarT)
        from fptopos.sublattice import Subobject
        from oracles import subobjects

        for size in (1, 2):
            X = make_presheaf(PT, {"*": tuple("ab"[:size])}, {}, "X")
            xsort = PresheafSort(X)
            s1 = SubConst(Subobject(X, {"*": frozenset(X.sets["*"][:1])}),
                          "S1")
            atoms = [Top(), Bot(), Eq(VarT("x"), VarT("y")),
                     Mem(VarT("x"), s1), Mem(VarT("y"), s1)]
            sorts = [("x", xsort), ("y", xsort)]
            rng = random.Random(size)
            for _ in range(700):
                phi = oracles.random_formula(rng, atoms, sorts, 3)
                free = sorted(phi.free())
                for combo in itertools.product(X.sets["*"],
                                               repeat=len(free)):
                    env = {n: (xsort, v) for n, v in zip(free, combo)}
                    assert forces("*", env, phi) == oracles.classical_truth(
                        phi, dict(zip(free, combo)))

        P2 = builtin_object(RG, "P2")
        xsort = PresheafSort(P2)
        consts = [SubConst(S, "S%d" % i)
                  for i, S in enumerate(subobjects(P2)[:6])]
        atoms = [Eq(VarT("x"), VarT("y")), Top(), Bot()]
        atoms += [Mem(VarT("x"), S) for S in consts[:3]]
        atoms += [Mem(VarT("y"), S) for S in consts[3:]]
        sorts = [("x", xsort), ("y", xsort)]
        rng = random.Random(23)
        checked = 0
        while checked < 1000:
            phi = oracles.random_formula(rng, atoms, sorts, 3)
            c = rng.choice(RG.objects)
            env = {n: (xsort, rng.choice(P2.sets[c])) for n in phi.free()}
            if forces(c, env, phi):
                for m in RG.arrows_into(c):
                    assert forces(RG.dom(m), _restrict_env(env, m), phi)
            checked += 1


def test_criterion_12_separated_reflections_are_pneumoconnected():
    with criterion(12, 300, "M(X) reflections pneumoconnected; M(L) ≅ 1"):
        for X in enumerate_presheaves(RG, 2):
            _M, m = separated_reflection(X)
            assert is_epi(m)
            assert has_pneumoconnected_fibers(m)
        M, _m = separated_reflection(builtin_object(RG, "L"))
        assert is_isomorphic(M, terminal(RG))


def test_criterion_13_reports_are_parallelism_invariant(capsys):
    with criterion(13, 300, "byte-identical reports across --jobs 1 and 4"):
        outs = {}
        for jobs in ("1", "4"):
            for argv in (["verify", "props", "--bound", "V=1,E=2"],
                         ["verify", "lemma", "--bound", "V=1,E=2"],
                         ["check-ns", "--base", "graph"]):
                code = cli_main(argv + ["--jobs", jobs,
                                        "--format", "json"])
                out = capsys.readouterr().out
                assert code in (0, 1)
                outs.setdefault(tuple(argv), []).append(out.encode())
        for argv, pair in outs.items():
            assert pair[0] == pair[1], argv
