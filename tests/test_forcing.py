"""Stage-wise forcing: soundness, monotonicity, parser, fiber formulas."""

import itertools
import random

import pytest

from fptopos.builtins import builtin_object
from fptopos.corpus import enumerate_presheaves
from fptopos.decidable import pi, separated_reflection
from fptopos.errors import ParseError
from fptopos.fincat import catalog, close_generators
from fptopos.forcing import (And, Bot, Eq, Exists, Forall, Implies, Mem,
                             Not, Or, PairT, PresheafSort, SubConst, Top,
                             VarT, _restrict_env, forces, parse_formula,
                             universally_valid)
from fptopos.presheaf import (is_epi, make_presheaf, nat_transformations,
                              pairing, product, terminal)
from fptopos.sublattice import (Subobject, has_pneumoconnected_fibers,
                                pc_masks, pneumoconnected_countermodel)

import oracles
from oracles import subobjects

PT = catalog("point")
RG = catalog("refgraph")
P2 = builtin_object(RG, "P2")
L = builtin_object(RG, "L")


def _point_setup():
    X = make_presheaf(PT, {"*": ("a", "b")}, {}, "X")
    xsort = PresheafSort(X)
    s1 = SubConst(Subobject(X, {"*": frozenset(["a"])}), "S1")
    s2 = SubConst(Subobject(X, {"*": frozenset()}), "S2")
    atoms = [Top(), Bot(),
             Eq(VarT("x"), VarT("x")), Eq(VarT("x"), VarT("y")),
             Mem(VarT("x"), s1), Mem(VarT("y"), s1),
             Mem(VarT("x"), s2)]
    sorts = [("x", xsort), ("y", xsort), ("z", xsort)]
    return X, xsort, atoms, sorts


def _check_against_classical(phi, X, xsort):
    free = sorted(phi.free())
    for combo in itertools.product(X.sets["*"], repeat=len(free)):
        env = {n: (xsort, v) for n, v in zip(free, combo)}
        assert forces("*", env, phi) == \
            oracles.classical_truth(phi, dict(zip(free, combo)))


def test_point_base_forcing_is_classical_exhaustive_depth_two():
    X, xsort, atoms, sorts = _point_setup()
    for phi in oracles.all_formulas(atoms, sorts[:2], 2):
        _check_against_classical(phi, X, xsort)


def test_point_base_forcing_is_classical_random_depth_three():
    X, xsort, atoms, sorts = _point_setup()
    rng = random.Random(7)
    for _ in range(500):
        phi = oracles.random_formula(rng, atoms, sorts, 3)
        _check_against_classical(phi, X, xsort)


def _refgraph_atoms():
    xsort = PresheafSort(P2)
    subs = subobjects(P2)
    consts = [SubConst(S, "S%d" % i) for i, S in enumerate(subs)]
    atoms = [Eq(VarT("x"), VarT("y")), Top(), Bot()]
    atoms += [Mem(VarT("x"), S) for S in consts[:4]]
    atoms += [Mem(VarT("y"), S) for S in consts[2:6]]
    return xsort, atoms


def test_monotonicity_under_restriction():
    xsort, atoms = _refgraph_atoms()
    sorts = [("x", xsort), ("y", xsort)]
    rng = random.Random(11)
    checked = 0
    while checked < 200:
        phi = oracles.random_formula(rng, atoms, sorts, 3)
        c = rng.choice(RG.objects)
        env = {n: (xsort, rng.choice(P2.sets[c])) for n in phi.free()}
        if not forces(c, env, phi):
            continue
        for m in RG.arrows_into(c):
            assert forces(RG.dom(m), _restrict_env(env, m), phi)
        checked += 1


def test_excluded_middle_fails_on_l():
    vert = [S for S in subobjects(L) if oracles.part_sizes(S) == (1, 1)][0]
    phi = Or(Mem(VarT("x"), SubConst(vert, "S")),
             Not(Mem(VarT("x"), SubConst(vert, "S"))))
    cm = universally_valid(phi, {"x": PresheafSort(L)})
    assert cm is not None and cm.stage == "E" and cm.bindings == {"x": "e"}


def test_double_negation_elimination_countermodel_on_l():
    vert = [S for S in subobjects(L) if oracles.part_sizes(S) == (1, 1)][0]
    mem = lambda: Mem(VarT("x"), SubConst(vert, "S"))
    phi = Implies(Not(Not(mem())), mem())
    cm = universally_valid(phi, {"x": PresheafSort(L)})
    assert cm is not None
    assert cm.stage == "E" and cm.bindings == {"x": "e"}


def test_pc_object_of_p2():
    # P2 is connected, and so is each P2×y(c): two complemented parts
    # at each stage, the empty one first.
    pc = pc_masks(P2)
    assert [len(pc.masks[c]) for c in RG.objects] == [2, 2]
    assert [pc.name(c, 0) for c in RG.objects] == ["{}", "{}"]


def test_pneumo_identity_and_collapse():
    assert has_pneumoconnected_fibers(oracles.identity_nat(P2))
    one = terminal(RG)
    q = nat_transformations(P2, one)[0]
    assert has_pneumoconnected_fibers(q)


def test_pneumo_fails_for_two_point_collapse_on_point_base():
    X = make_presheaf(PT, {"*": ("a", "b")}, {}, "X")
    q = nat_transformations(X, terminal(PT))[0]
    cm = pneumoconnected_countermodel(q)
    assert cm is not None


def _fiber_check_arrows(C, corpus):
    """Every arrow between the corpus objects, their Π and
    separated-reflection maps, and f×g for the first three epis f, g
    with pneumoconnected fibers."""
    homs = [f for X in corpus for Y in corpus
            for f in nat_transformations(X, Y)]
    epis = [f for f in homs
            if is_epi(f) and has_pneumoconnected_fibers(f)][:3]
    arrows = homs + [pi(X).map for X in corpus] + \
        [separated_reflection(X)[1] for X in corpus]
    for f in epis:
        for g in epis:
            P, p1, p2 = product(f.dom, g.dom)
            Q, _q1, _q2 = product(f.cod, g.cod)
            arrows.append(pairing(p1.then(f), p2.then(g), Q))
    return arrows


def test_direct_fiber_check_matches_forcing_oracle():
    # The same least countermodel (stage and bindings), or None, as the
    # fiber formula evaluated by the forcing interpreter.  The catalog
    # bases list the domain of each arrow before its codomain, and there
    # a failure of the outer ¬¬ clause along m: b→c is first seen at
    # stage b; the graph base with its stages listed E, V is added so
    # that the outer clause decides which countermodel is the least.
    edges_first = close_generators("graph-EV", ("E", "V"),
                                   [("s", "V", "E"), ("t", "V", "E")])
    bases = [*oracles.bound_two_corpora(),
             (edges_first, list(enumerate_presheaves(edges_first, 2)))]
    holding = failing = 0
    for C, corpus in bases:
        masks, tables = {}, {}  # P_c of each domain, built once
        for f in _fiber_check_arrows(C, corpus):
            X = f.dom
            if X not in masks:
                masks[X], tables[X] = pc_masks(X), oracles.pc_object(X)
            got = pneumoconnected_countermodel(f, pc=masks[X])
            want = oracles.forced_pneumo_countermodel(f, pc=tables[X])
            if want is None:
                assert got is None, (C.name, f.dom, f.cod)
                holding += 1
            else:
                assert (got.stage, got.bindings) == \
                    (want.stage, want.bindings), (C.name, f.dom, f.cod)
                failing += 1
    assert (holding, failing) == (520, 367)


# ---------------------------------------------------------------------------
# surface syntax

def _names():
    return {"P2": PresheafSort(P2), "L": PresheafSort(L)}


def test_parse_reflexivity():
    phi = parse_formula("all x : P2 . x = x", _names())
    assert universally_valid(phi, {}, base=RG) is None


def test_parse_precedence_and_quantifiers():
    text = "all x : P2 . all y : P2 . x = y or not x = y implies true"
    phi = parse_formula(text, _names())
    assert universally_valid(phi, {}, base=RG) is None
    # vertices of P2 are not internally equal-or-apart at stage E
    apart = parse_formula("all x : P2 . all y : P2 . x = y or not x = y",
                          _names())
    assert universally_valid(apart, {}, base=RG) is not None


def test_parse_membership_and_pairs():
    vert = [S for S in subobjects(L) if oracles.part_sizes(S) == (1, 1)][0]
    names = dict(_names(), S=SubConst(vert, "S"))
    phi = parse_formula("exists x : L . x in S", names)
    assert universally_valid(phi, {}, base=RG) is None


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_formula("all x : P2 .\n x = ", _names())
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_formula("all x : Mystery . x = x", _names())
