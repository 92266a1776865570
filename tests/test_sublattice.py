"""The Heyting algebra of subobjects."""

import pytest

import oracles

from fptopos.builtins import builtin_object
from fptopos.corpus import enumerate_presheaves
from fptopos.errors import AmbientMismatch, SizeCapError
from fptopos.fincat import catalog
from fptopos.forcing import pc_object
from fptopos.presheaf import initial, product, terminal, yoneda
from fptopos.sublattice import (complemented_subobjects,
                                empty_subobject, full_subobject,
                                implication, is_complemented, is_nn_dense,
                                join, maps_to_two, meet, negation,
                                nn_closure, subobjects)

RG = catalog("refgraph")
TD = catalog("two-discrete")
P2 = builtin_object(RG, "P2")
L = builtin_object(RG, "L")


def test_lattice_bounds():
    top = full_subobject(P2)
    bot = empty_subobject(P2)
    for S in subobjects(P2):
        assert bot.leq(S) and S.leq(top)
        assert meet(S, top) == S and join(S, bot) == S


def test_heyting_adjunction():
    # S∧T ≤ U  iff  S ≤ T⇒U, on every triple of subobjects of P2
    subs = subobjects(P2)
    for S in subs:
        for T in subs:
            for U in subs:
                assert meet(S, T).leq(U) == S.leq(implication(T, U))


def test_negation_of_vertex_part_of_l():
    # in L (one vertex, extra loop) the vertex-with-degenerate-loop part
    # has empty negation: every element restricts into it
    vert = [S for S in subobjects(L) if S.size_vector() == (1, 1)][0]
    assert negation(vert).is_empty()
    assert not is_complemented(vert)
    assert nn_closure(vert) == full_subobject(L)
    assert is_nn_dense(vert)


def test_terminal_of_two_discrete_has_four_complemented_subobjects():
    one = terminal(TD)
    assert len(complemented_subobjects(one)) == 4
    assert len(subobjects(one)) == 4


def _same_maps_to_two(X):
    got, want = maps_to_two(X), oracles.hom_search_maps_to_two(X)
    assert [h.cod for h in got] == [h.cod for h in want], X
    assert [h.components for h in got] == [h.components for h in want], X


CATALOG = ("point", "two-discrete", "sierpinski", "graph", "refgraph")


@pytest.mark.parametrize("base", CATALOG)
def test_maps_to_two_match_the_hom_search_on_the_corpus(base):
    # The same maps in the same order, on every bound-3 corpus object.
    for X in enumerate_presheaves(catalog(base), 3):
        _same_maps_to_two(X)


@pytest.mark.parametrize("base, bound", [
    ("refgraph", 3), ("graph", {"V": 2, "E": 2}), ("sierpinski", 3),
    ("two-discrete", 2)])
def test_maps_to_two_match_the_hom_search_on_products(base, bound):
    # On X×Y and X×Y×y(c) for all pairs of corpus objects: products
    # have more components, and y(c) adds elements to each.
    C = catalog(base)
    corpus = list(enumerate_presheaves(C, bound))
    reps = [yoneda(C, c) for c in C.objects]
    for X in corpus:
        for Y in corpus:
            P = product(X, Y)[0]
            _same_maps_to_two(P)
            for yc in reps:
                _same_maps_to_two(product(P, yc)[0])


def test_maps_to_two_of_the_empty_and_terminal_objects():
    for C in (RG, TD):
        # No components: one map, the empty one.
        assert [h.components for h in maps_to_two(initial(C))] == \
            [{c: {} for c in C.objects}]
        _same_maps_to_two(initial(C))
        _same_maps_to_two(terminal(C))
    assert len(maps_to_two(terminal(RG))) == 2
    assert len(maps_to_two(terminal(TD))) == 4


def test_maps_to_two_cap_counts_the_maps_before_building_them():
    with pytest.raises(SizeCapError,
                       match=r"Hom\(X,2\) has 4 elements \(cap 3\)"):
        maps_to_two(terminal(TD), 3)
    assert len(maps_to_two(terminal(TD), 4)) == 4


def test_p2_has_two_complemented_subobjects():
    assert len(complemented_subobjects(P2)) == 2


def test_complemented_parts_match_the_filter_oracles():
    # Sub_c(X) from the maps X → 2 against the subfunctors S with
    # S ∨ ¬S = X, and P_c(X) built from them against the elements of
    # P(X) that force ∀x (x ∈ u ∨ ¬ x ∈ u).
    checked = 0
    for C, corpus in oracles.bound_two_corpora():
        for X in oracles.sample_objects(C, corpus):
            got = complemented_subobjects(X)
            want = oracles.filtered_complemented_subobjects(X)
            assert [S.parts for S in got] == [S.parts for S in want], X
            pc, ref = pc_object(X).power, oracles.forced_pc_object(X)
            assert pc.carrier.sets == ref.carrier.sets, X
            assert pc.carrier.actions == ref.carrier.actions, X
            assert pc.relations == ref.relations, X
            checked += 1
    assert checked == 180


def test_nn_closure_is_a_closure_operator():
    subs = subobjects(P2)
    for S in subs:
        cl = nn_closure(S)
        assert S.leq(cl)
        assert nn_closure(cl) == cl
        for T in subs:
            if S.leq(T):
                assert cl.leq(nn_closure(T))


def test_complemented_parts_are_nn_closed():
    for S in complemented_subobjects(P2):
        assert nn_closure(S) == S


def test_ambient_mismatch_raises():
    with pytest.raises(AmbientMismatch):
        meet(full_subobject(P2), full_subobject(L))


def test_double_negation_agrees_with_forcing():
    # stage-wise ¬S from the lattice equals the internally forced ¬(x∈S)
    from fptopos.forcing import (Mem, Not, PresheafSort, SubConst, VarT,
                                 forces)
    xsort = PresheafSort(P2)
    for S in subobjects(P2):
        neg = negation(S)
        phi = Not(Mem(VarT("x"), SubConst(S, "S")))
        for c in RG.objects:
            for x in P2.sets[c]:
                assert forces(c, {"x": (xsort, x)}, phi) == \
                    neg.contains(c, x)
