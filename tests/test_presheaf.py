"""Presheaves: validation, hom-sets, limits/colimits, classifier."""

import pytest

from fptopos.builtins import builtin_object
from fptopos.errors import PresheafError, SizeCapError
from fptopos.fincat import catalog
from fptopos.presheaf import (coproduct, find_iso, global_elements,
                              initial, is_epi, is_isomorphic,
                              make_from_generators, make_presheaf,
                              nat_transformations, pairing, pel, product,
                              pullback,
                              quotient_by_pairs, sub_presheaf, subfunctors,
                              terminal, two, validate_presheaf, yoneda)

import oracles
from oracles import factor_through, identity_nat, yoneda_arrow

RG = catalog("refgraph")
P2 = builtin_object(RG, "P2")
D2 = builtin_object(RG, "D2")
L = builtin_object(RG, "L")


def test_validate_rejects_missing_action():
    with pytest.raises(PresheafError) as exc:
        validate_presheaf(RG, {"sets": {"V": ["v"], "E": ["e"]},
                               "actions": {}})
    assert exc.value.kind == "MissingAction"


def test_validate_rejects_dangling_element():
    with pytest.raises(PresheafError) as exc:
        make_from_generators(RG, {"V": ("v",), "E": ("e",)},
                             {"s": {"e": "nowhere"}, "t": {"e": "v"},
                              "sigma": {"v": "e"}})
    assert exc.value.kind in ("DanglingElement", "NotFunctorial")


def test_make_presheaf_rejects_duplicate_elements():
    PT = catalog("point")
    with pytest.raises(PresheafError) as exc:
        make_presheaf(PT, {"*": ("u", "u")}, {})
    assert exc.value.kind == "DanglingElement"
    # Pasted pair ids collide: ("a,b", "c") and ("a", "b,c") are both
    # "(a,b,c)", so the product would have 4 elements but 3 ids.
    X = make_presheaf(PT, {"*": ("a,b", "a")}, {})
    Y = make_presheaf(PT, {"*": ("c", "b,c")}, {})
    with pytest.raises(PresheafError) as exc:
        product(X, Y)
    assert "duplicate elements" in str(exc.value)


def test_validate_rejects_non_functorial():
    # two vertices, sigma sends a vertex to an edge with the wrong source
    with pytest.raises(PresheafError) as exc:
        make_from_generators(
            RG, {"V": ("0", "1"), "E": ("l0", "l1")},
            {"s": {"l0": "0", "l1": "1"},
             "t": {"l0": "0", "l1": "1"},
             "sigma": {"0": "l1", "1": "l0"}})
    assert exc.value.kind == "NotFunctorial"


def test_constructors_store_identity_tables():
    # Presheaf.act reads identities from the stored tables, and the
    # functoriality check skips pairs with an identity factor.
    built = make_presheaf(RG, P2.sets, P2.actions)
    raw = {"sets": P2.sets, "actions": {
        m: P2.actions[m] for m in RG.nonidentity_morphisms()}}
    checked = validate_presheaf(RG, raw)
    for X in (built, checked):
        for c in RG.objects:
            assert X.actions[RG.identity(c)] == {x: x for x in X.sets[c]}


def test_validate_rejects_non_functorial_composite():
    # Every generator table is fine on its own; only the composite
    # s∘sigma, a pair with no identity factor, contradicts them.
    one_loop = {"sets": {"V": ["v"], "E": ["l", "e"]},
                "actions": {"s": {"l": "v", "e": "v"},
                            "t": {"l": "v", "e": "v"},
                            "sigma": {"v": "l"},
                            "s∘sigma": {"l": "l", "e": "e"},
                            "t∘sigma": {"l": "l", "e": "l"}}}
    with pytest.raises(PresheafError) as exc:
        validate_presheaf(RG, one_loop)
    assert exc.value.kind == "NotFunctorial"
    one_loop["actions"]["s∘sigma"]["e"] = "l"
    assert validate_presheaf(RG, one_loop).size_vector() == (1, 2)


def test_terminal_and_initial():
    one = terminal(RG)
    zero = initial(RG)
    assert one.size_vector() == (1, 1)
    assert zero.size_vector() == (0, 0)
    for X in (P2, D2, L):
        assert len(nat_transformations(X, one)) == 1
        assert len(nat_transformations(zero, X)) == 1


def test_global_elements_are_vertices():
    # points of a reflexive graph pick a vertex with its degenerate loop
    assert len(global_elements(P2)) == 2
    assert len(global_elements(L)) == 1


def test_product_projections_and_pairing():
    P, p1, p2 = product(P2, D2)
    assert P.size_vector() == (4, 6)
    d = pairing(identity_nat(P2), identity_nat(P2),
                product(P2, P2)[0])
    assert oracles.is_mono(d)
    # universal property on a sample cone
    for f in nat_transformations(D2, P2):
        for g in nat_transformations(D2, D2):
            h = pairing(f, g, P)
            assert h.then(p1).same_components(f)
            assert h.then(p2).same_components(g)


def test_coproduct_injections_jointly_epic():
    S, i1, i2 = coproduct(P2, D2)
    assert S.size_vector() == (4, 5)
    assert oracles.is_mono(i1) and oracles.is_mono(i2)
    covered = {c: set(i1.components[c].values())
               | set(i2.components[c].values())
               for c in RG.objects}
    assert all(covered[c] == set(S.sets[c]) for c in RG.objects)


def test_two_is_one_plus_one():
    t2, i1, i2 = two(RG)
    assert t2.size_vector() == (2, 2)
    assert is_isomorphic(t2, D2)


def test_equalizer_of_swap():
    t2, _i1, _i2 = two(RG)
    swap = find_iso(t2, t2)
    assert swap is not None
    maps = nat_transformations(t2, t2)
    ident = identity_nat(t2)
    nonid = [f for f in maps
             if not f.same_components(ident) and is_epi(f)]
    assert len(nonid) == 1
    # the swap fixes no element, so its equalizer with the identity is empty
    fixed = {c: [x for x in t2.sets[c]
                 if ident.apply(c, x) == nonid[0].apply(c, x)]
             for c in RG.objects}
    assert fixed == {c: [] for c in RG.objects}


def test_pullback_of_point_is_fiber():
    one = terminal(RG)
    q = nat_transformations(P2, one)[0]
    for b in global_elements(one):
        Pb, pr1, pr2 = pullback(q, b)
        assert is_isomorphic(Pb, P2)


def test_quotient_by_pairs_collapses():
    pairs = {"V": [("0", "1")], "E": [("l0", "l1"), ("l0", "a")]}
    Q, q = quotient_by_pairs(P2, pairs)
    assert Q.size_vector() == (1, 1)
    assert is_epi(q)


def test_factor_through_quotient():
    pairs = {"V": [("0", "1")], "E": [("l0", "l1"), ("l0", "a")]}
    Q, q = quotient_by_pairs(P2, pairs)
    one = terminal(RG)
    h = nat_transformations(P2, one)[0]
    g = factor_through(q, h)
    assert g is not None
    assert q.then(g).same_components(h)
    # a map separating what q collapses cannot factor
    t2, _i1, _i2 = two(RG)
    sep = [f for f in nat_transformations(D2, t2) if is_epi(f)]
    assert all(factor_through(
        quotient_by_pairs(D2, {"V": [("0", "1")],
                               "E": [("l0", "l1")]})[1], f) is None
        for f in sep)


def test_yoneda_lemma_counts():
    for c in RG.objects:
        yc = yoneda(RG, c)
        for X in (P2, D2, L):
            assert len(nat_transformations(yc, X)) == len(X.sets[c])


def test_yoneda_arrow_classifies():
    yV = yoneda(RG, "V")
    a = yoneda_arrow(P2, "V", "0", yV)
    assert a.apply("V", "1_V") == "0"
    assert a.apply("E", "sigma") == "l0"


def test_omega_sizes():
    assert oracles.omega(catalog("point")).size_vector() == (2,)
    assert oracles.omega(catalog("sierpinski")).size_vector() == (2, 3)
    assert oracles.omega(RG).size_vector() == (2, 5)


def test_subobjects_biject_with_omega_maps():
    Om = oracles.omega(RG)
    for X in (P2, L, D2):
        assert len(subfunctors(X)) == len(nat_transformations(X, Om))


def test_subfunctors_of_p2_brute_force():
    # independent recount: every stage-wise subset pair, closure-checked
    found = []
    vs = [(), ("0",), ("1",), ("0", "1")]
    es = [(), ("l0",), ("l1",), ("a",), ("l0", "l1"), ("l0", "a"),
          ("l1", "a"), ("l0", "l1", "a")]
    for v in vs:
        for e in es:
            closed = all(P2.act(m, x) in (v if RG.dom(m) == "V" else e)
                         for m in RG.nonidentity_morphisms()
                         for x in (v if RG.cod(m) == "V" else e))
            if closed:
                found.append((v, e))
    assert len(found) == 5
    assert sorted(frozenset(p["V"]) for p in subfunctors(P2)) \
        == sorted(frozenset(v) for v, _e in found)


def test_subfunctors_cap_bounds_the_results():
    # At cap n an object with n subfunctors gets all of them, and one
    # with n + 1 raises rather than returning n + 1.
    for X in (P2, L, D2):
        n = len(subfunctors(X))
        assert len(subfunctors(X, n)) == n
        with pytest.raises(SizeCapError,
                           match=r"more than %d subfunctors" % (n - 1)):
            subfunctors(X, n - 1)


def test_exponential_evaluates_like_homs():
    E = oracles.exponential(P2, D2)
    assert len(global_elements(E)) == len(nat_transformations(P2, D2))
    one = terminal(RG)
    E1 = oracles.exponential(one, P2)
    assert is_isomorphic(E1, P2)


def test_power_object_stages_count_subobjects():
    po = oracles.power_object(D2)
    for c in RG.objects:
        yc = yoneda(RG, c)
        P, _p1, _p2 = product(D2, yc)
        assert len(po.carrier.sets[c]) == len(subfunctors(P))


def test_find_iso_and_is_isomorphic():
    assert is_isomorphic(P2, P2)
    assert not is_isomorphic(P2, D2)
    j = find_iso(D2, two(RG)[0])
    assert j is not None
    assert oracles.is_mono(j) and is_epi(j)


def test_pel_ids_are_parenthesized_pairs():
    assert pel("x", "y") == "(x,y)"


def test_sub_presheaf_closure_check():
    with pytest.raises(PresheafError):
        sub_presheaf(P2, {"V": frozenset(["0"]), "E": frozenset(["a"])})
