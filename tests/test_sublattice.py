"""The Heyting algebra of subobjects, complemented parts, P_c(X) on
component masks and the fiber check on them."""

import pytest

import oracles

from fptopos.builtins import builtin_object
from fptopos.corpus import enumerate_presheaves
from fptopos.errors import SizeCapError, DEFAULT_SIZE_CAP
from fptopos.fincat import catalog
from fptopos.presheaf import (initial, is_epi, nat_transformations,
                              pairing, product, subfunctors, terminal,
                              yoneda)
from fptopos.sublattice import (Subobject, complemented_subobjects,
                                has_pneumoconnected_fibers, is_complemented,
                                is_nn_dense, is_nn_dense_arrow, pc_masks,
                                pneumoconnected_countermodel)
from oracles import (AmbientMismatch, empty_subobject, full_subobject,
                     implication, is_empty, join, leq, meet, negation,
                     nn_closure, part_sizes, subobjects)

RG = catalog("refgraph")
TD = catalog("two-discrete")
P2 = builtin_object(RG, "P2")
L = builtin_object(RG, "L")


def test_lattice_bounds():
    top = full_subobject(P2)
    bot = empty_subobject(P2)
    for S in subobjects(P2):
        assert leq(bot, S) and leq(S, top)
        assert meet(S, top) == S and join(S, bot) == S


def test_heyting_adjunction():
    # S∧T ≤ U  iff  S ≤ T⇒U, on every triple of subobjects of P2
    subs = subobjects(P2)
    for S in subs:
        for T in subs:
            for U in subs:
                assert leq(meet(S, T), U) == leq(S, implication(T, U))


def test_negation_of_vertex_part_of_l():
    # in L (one vertex, extra loop) the vertex-with-degenerate-loop part
    # has empty negation: every element restricts into it
    vert = [S for S in subobjects(L) if part_sizes(S) == (1, 1)][0]
    assert is_empty(negation(vert))
    assert not is_complemented(vert)
    assert nn_closure(vert) == full_subobject(L)
    assert is_nn_dense(vert)


def test_complemented_and_dense_reads_match_the_heyting_oracle():
    # S ∨ ¬S = X and ¬¬S = X read off the restriction tables, against
    # the negation and join of the Heyting algebra of subobjects, on
    # every subfunctor of the corpora and sample objects.
    checked, seen = 0, set()
    for X in oracles.lattice_objects():
        for parts in subfunctors(X):
            S = Subobject(X, parts)
            got = (is_complemented(S), is_nn_dense(S))
            assert got == (oracles.is_complemented(S),
                           oracles.is_nn_dense(S)), S
            seen.add(got)
            checked += 1
    assert checked == 3707
    assert len(seen) == 4


# The arrows between bound-3 corpus objects of each catalog base, and
# how many of them are ¬¬-dense.
DENSE_ARROWS = {"point": (60, 18), "two-discrete": (3600, 324),
                "sierpinski": (3203, 1065), "graph": (23112, 5950),
                "refgraph": (186, 80)}


@pytest.mark.parametrize("base", sorted(DENSE_ARROWS))
def test_dense_arrow_reads_match_the_heyting_oracle(base):
    # An arrow is ¬¬-dense iff every element of its codomain has a
    # restriction in the image, against the ¬¬-closure of the image.
    corpus = list(enumerate_presheaves(catalog(base), 3))
    arrows = dense = 0
    for X in corpus:
        for Y in corpus:
            for f in nat_transformations(X, Y):
                image = Subobject(Y, {c: frozenset(f.components[c].values())
                                      for c in Y.base.objects})
                got = is_nn_dense_arrow(f)
                assert got == oracles.is_nn_dense(image), f
                arrows += 1
                dense += got
    assert (arrows, dense) == DENSE_ARROWS[base]


def test_terminal_of_two_discrete_has_four_complemented_subobjects():
    one = terminal(TD)
    assert len(complemented_subobjects(one)) == 4
    assert len(subobjects(one)) == 4


def _same_maps_to_two(X):
    # Sub_c(X), read off the components, against the preimages of inl(*)
    # under the maps X → 2 of the hom search, in the same order.
    assert [S.parts for S in complemented_subobjects(X)] == \
        oracles.hom_search_complemented_parts(X), X


CATALOG = ("point", "two-discrete", "sierpinski", "graph", "refgraph")


@pytest.mark.parametrize("base", CATALOG)
def test_maps_to_two_match_the_hom_search_on_the_corpus(base):
    # The same parts in the same order, on every bound-3 corpus object.
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
        # No components: one part, the empty one.
        assert [S.parts for S in complemented_subobjects(initial(C))] == \
            [{c: frozenset() for c in C.objects}]
        _same_maps_to_two(initial(C))
        _same_maps_to_two(terminal(C))
    assert len(complemented_subobjects(terminal(RG))) == 2
    assert len(complemented_subobjects(terminal(TD))) == 4


def test_maps_to_two_cap_counts_the_maps_before_building_them():
    with pytest.raises(SizeCapError,
                       match=r"Hom\(X,2\) has 4 elements \(cap 3\)"):
        complemented_subobjects(terminal(TD), 3)
    assert len(complemented_subobjects(terminal(TD), 4)) == 4


def test_p2_has_two_complemented_subobjects():
    assert len(complemented_subobjects(P2)) == 2


def _mask_tables(pc):
    """The stages, in order, and restriction tables of P_c(X) on masks,
    with each mask named."""
    C = pc.of.base
    sets = {c: tuple(pc.name(c, w) for w in pc.masks[c])
            for c in C.objects}
    actions = {}
    for m in C.morphism_names():
        b, c = C.morphisms[m]
        actions[m] = {
            pc.name(c, w): pc.name(b, oracles.pc_mask_restrict(pc, m, w))
            for w in pc.masks[c]}
    return sets, actions


def test_complemented_parts_match_the_filter_oracles():
    # Sub_c(X) from the maps X → 2 against the subfunctors S with
    # S ∨ ¬S = X; P_c(X) as a relation object built from them against
    # the elements of P(X) that force ∀x (x ∈ u ∨ ¬ x ∈ u); and P_c(X)
    # on component masks against that relation object: the same names
    # in the same order, and the same restrictions.
    checked = 0
    for C, corpus in oracles.bound_two_corpora():
        for X in oracles.sample_objects(C, corpus):
            got = complemented_subobjects(X)
            want = oracles.filtered_complemented_subobjects(X)
            assert [S.parts for S in got] == [S.parts for S in want], X
            pc, ref = oracles.pc_object(X), oracles.forced_pc_object(X)
            assert pc.carrier.sets == ref.carrier.sets, X
            assert pc.carrier.actions == ref.carrier.actions, X
            assert pc.relations == ref.relations, X
            masks = pc_masks(X)
            assert _mask_tables(masks) == \
                (pc.carrier.sets, pc.carrier.actions), X
            checked += 1
    assert checked == 180


def _product_arrows(corpus):
    """The arrows that `pneumo-product-closed` checks: f×g on X×X′ for
    the epis f: X ↠ Y, g: X′ ↠ Y′ between corpus objects with
    pneumoconnected fibers, each product of domains built once."""
    epis = [f for X in corpus for Y in corpus
            for f in nat_transformations(X, Y)
            if is_epi(f) and has_pneumoconnected_fibers(f)]
    domains, arrows = {}, []
    for f in epis:
        for g in epis:
            if (f.dom, g.dom) not in domains:
                domains[f.dom, g.dom] = product(f.dom, g.dom)
            _P, p1, p2 = domains[f.dom, g.dom]
            Q, _q1, _q2 = product(f.cod, g.cod)
            arrows.append(pairing(p1.then(f), p2.then(g), Q))
    return arrows


def _fiber_outcome(check, f, cap, pc=None):
    """check's countermodel of f, None, or its SizeCapError message."""
    try:
        cm = check(f, cap, pc)
    except SizeCapError as exc:
        return str(exc)
    return cm and (cm.stage, cm.bindings)


# The bound-3 corpora of the catalog bases (graph at V=2,E=2), and for
# each: (arrows, of which fail), then the outcomes at caps 2, 8 and 32
# of the first arrow out of each domain, as (capped, failing).
FIBER_CASES = {
    "point": (3, (76, 36), (6, 4)),
    "two-discrete": (3, (3856, 3024), (74, 24)),
    "sierpinski": (3, (3399, 2326), (71, 26)),
    "graph": ({"V": 2, "E": 2}, (723, 125), (320, 17)),
    "refgraph": (3, (222, 76), (24, 4)),
}


@pytest.mark.parametrize("base", sorted(FIBER_CASES))
def test_fiber_check_matches_the_table_oracle(base):
    # The mask check against the fiber condition on P_c(X)'s relation
    # tables: the same least countermodel, or None, on every arrow
    # between bound-3 corpus objects and every f×g that
    # pneumo-product-closed builds on the bound-2 corpus.  At small caps
    # the first arrow out of each domain raises the same SizeCapError
    # (the product cap at a stage comes before the 2^k cap there) or
    # has the same outcome.
    C = catalog(base)
    bound, arrow_counts, cap_counts = FIBER_CASES[base]
    corpus = list(enumerate_presheaves(C, bound))
    arrows = [f for X in corpus for Y in corpus
              for f in nat_transformations(X, Y)]
    arrows += _product_arrows(list(enumerate_presheaves(
        C, dict(oracles.BOUND_TWO)[base])))
    masks, tables = {}, {}
    failing = capped = capped_failing = 0
    for f in arrows:
        X = f.dom
        if X not in masks:
            masks[X], tables[X] = pc_masks(X), oracles.pc_object(X)
            for cap in (2, 8, 32):
                got = _fiber_outcome(pneumoconnected_countermodel, f, cap)
                assert got == _fiber_outcome(
                    oracles.table_pneumo_countermodel, f, cap), (X, cap)
                capped += isinstance(got, str)
                capped_failing += isinstance(got, tuple)
        got = _fiber_outcome(pneumoconnected_countermodel, f,
                             DEFAULT_SIZE_CAP, masks[X])
        assert got == _fiber_outcome(oracles.table_pneumo_countermodel,
                                     f, DEFAULT_SIZE_CAP, tables[X]), f
        failing += got is not None
    assert (len(arrows), failing) == arrow_counts
    assert (capped, capped_failing) == cap_counts


def test_nn_closure_is_a_closure_operator():
    subs = subobjects(P2)
    for S in subs:
        cl = nn_closure(S)
        assert leq(S, cl)
        assert nn_closure(cl) == cl
        for T in subs:
            if leq(S, T):
                assert leq(cl, nn_closure(T))


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
