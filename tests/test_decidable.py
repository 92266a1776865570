"""Decidability, NS/DQO/DSO, the quotient reflection, separation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from fptopos.builtins import builtin_object
from fptopos.corpus import enumerate_presheaves
from fptopos.decidable import (_check_bounded, check_dqo,
                               check_dqo_bounded, check_dso,
                               check_dso_bounded, check_ns,
                               dec_is_topos_check,
                               exponential_is_decidable, is_connected,
                               is_decidable, pi, pi_product_failures,
                               pi_sizes, product_components,
                               separated_reflection)
from fptopos.errors import SizeCapError
from fptopos.files import resolve_base
from fptopos.fincat import catalog
from fptopos.presheaf import (connected_components, global_elements, homs,
                              initial, is_epi, is_isomorphic,
                              make_from_generators, make_presheaf,
                              product, sub_presheaf,
                              subfunctors, terminal, two)
from oracles import diagonal, quotient

PT = catalog("point")
TD = catalog("two-discrete")
RG = catalog("refgraph")
GR = catalog("graph")
P2 = builtin_object(RG, "P2")
L = builtin_object(RG, "L")
D2 = builtin_object(RG, "D2")
A1 = builtin_object(GR, "A1")


def test_decidable_examples():
    assert is_decidable(make_presheaf(PT, {"*": ("a", "b")}, {}))
    assert not is_decidable(P2)
    assert not is_decidable(L)
    for C in (PT, TD, RG, GR):
        assert is_decidable(two(C)[0])


CATALOG = ("point", "two-discrete", "sierpinski", "graph", "refgraph")


@pytest.mark.parametrize("base, bound, pairs, failing", [
    ("refgraph", 3, 32, 0), ("sierpinski", 3, 180, 0),
    ("two-discrete", 3, 256, 0), ("point", 3, 16, 0),
    ("graph", 2, 104, 34), ("graph", {"V": 3, "E": 2}, 390, 216)])
def test_exponential_rule_matches_the_built_exponential(base, bound, pairs,
                                                        failing):
    # Y^X decidable read off the components of each y(c)×X, against
    # building Y^X from the hom-sets Hom(y(c)×X, Y), for every corpus
    # object X and decidable corpus object Y.
    corpus = enumerate_presheaves(catalog(base), bound)
    verdicts = []
    for X in corpus:
        for Y in corpus.decidables():
            got = exponential_is_decidable(X, Y)
            assert got == is_decidable(oracles.exponential(X, Y)), (X, Y)
            verdicts.append(got)
    assert (len(verdicts), verdicts.count(False)) == (pairs, failing)


@pytest.mark.parametrize("base", CATALOG)
def test_injective_restrictions_iff_complemented_diagonal(base):
    # On the bound-3 corpus, the Π quotients, all pairwise products and
    # all sub-presheaves of its objects, leaving out any object whose
    # diagonal is past the size cap.
    corpus = list(enumerate_presheaves(catalog(base), 3))
    objects = corpus + [pi(X).quotient for X in corpus] + \
        [product(X, Y)[0] for X in corpus for Y in corpus] + \
        [sub_presheaf(X, parts) for X in corpus for parts in subfunctors(X)]
    verdicts = set()
    for X in objects:
        try:
            want = oracles.diagonal_is_complemented(X)
        except SizeCapError:
            continue
        assert is_decidable(X) == want, X
        verdicts.add(want)
    assert verdicts == ({True} if base in ("point", "two-discrete")
                        else {True, False})


def test_diagonal_is_a_subobject_of_the_square():
    _P, delta = diagonal(P2)
    assert oracles.part_sizes(delta) == (2, 3)


def test_ns_decisions():
    assert check_ns(PT).verdict == "holds"
    assert check_ns(RG).verdict == "holds"
    r = check_ns(GR)
    assert r.verdict == "fails"
    assert "y(E)" in r.witnesses[0]["all_failing"]
    assert check_ns(TD).verdict == "fails"
    assert check_ns(catalog("sierpinski")).verdict == "fails"


def test_ns_brute_force_agrees_with_exact_decision():
    for name in ("point", "two-discrete", "sierpinski", "graph",
                 "refgraph"):
        C = catalog(name)
        exact = check_ns(C).holds()
        bounded = oracles.ns_brute_force(enumerate_presheaves(C, 2)).holds()
        assert exact == bounded


def test_pi_of_terminal_and_two():
    one = terminal(RG)
    assert is_isomorphic(pi(one).quotient, one)
    t2 = two(RG)[0]
    assert is_isomorphic(pi(t2).quotient, t2)


def test_pi_of_p2_is_terminal():
    r = pi(P2)
    assert is_isomorphic(r.quotient, terminal(RG))
    assert is_epi(r.map)
    # every map to 2 factors through the quotient map
    for h in oracles.hom_search_maps_to_two(P2):
        assert oracles.factor_through(r.map, h) is not None


def test_pi_idempotent_on_corpus():
    for X in enumerate_presheaves(RG, 2):
        Q = pi(X).quotient
        assert is_isomorphic(pi(Q).quotient, Q)
        assert Q.is_empty() == X.is_empty()


def test_pi_verdicts_from_sizes_match_the_iso_search():
    # ΠX's stage sizes read off the components; ΠX ≅ 1 iff it has one
    # element at every stage; ΠQ ≅ Q iff they have the same sizes.
    for C, corpus in oracles.bound_two_corpora():
        one = terminal(C)
        for X in oracles.sample_objects(C, corpus):
            Q = pi(X).quotient
            assert pi_sizes(X) == Q.size_vector(), X
            assert (Q.size_vector() == one.size_vector()) == \
                is_isomorphic(Q, one), X
            assert (pi_sizes(Q) == Q.size_vector()) == \
                is_isomorphic(pi(Q).quotient, Q), X


@pytest.mark.parametrize("base, bound, failing", [
    ("point", 3, 0), ("two-discrete", 3, 0), ("sierpinski", 3, 0),
    ("refgraph", 3, 0), ("graph", 3, 3222), ("graph", {"V": 2, "E": 2}, 59),
    ("graph", {"V": 3, "E": 2}, 414)])
def test_pi_product_failures_match_the_iso_search(base, bound, failing):
    # Π(X×Y) ≇ ΠX × ΠY from the stage sizes against building Π(X×Y)
    # and searching for an iso to the product of the quotients: the same
    # pairs in the same order.  The cap is raised for the reference,
    # which lists the 2^18 maps into 2 of a product on two-discrete.
    corpus = enumerate_presheaves(catalog(base), bound, 10 ** 6)
    got = [(X.name, Y.name) for X, Y in pi_product_failures(corpus)]
    want = [(X.name, Y.name)
            for X, Y in oracles.iso_pi_product_failures(corpus)]
    assert got == want
    assert len(got) == failing


SAMPLE_BASES = tuple("samples/%s.cat" % n
                     for n in ("graph", "idem", "lz", "refgraph"))


@pytest.mark.parametrize("base", CATALOG + SAMPLE_BASES)
def test_product_components_match_the_built_product(base):
    # Π(X×Y)'s stage sizes and the component count of ∫(X×Y) from the
    # union-find over pairs, against building X×Y, on every pair.
    corpus = enumerate_presheaves(resolve_base(base), 3)
    for X in corpus:
        for Y in corpus:
            P = product(X, Y)[0]
            assert product_components(X, Y) == \
                (pi_sizes(P), connected_components(P)[1]), (X, Y)


def test_product_components_cap_message_is_the_products():
    with pytest.raises(SizeCapError) as built:
        product(D2, D2, 3)
    with pytest.raises(SizeCapError) as counted:
        product_components(D2, D2, 3)
    assert str(counted.value) == str(built.value)


@pytest.mark.parametrize("base, bound, arrows, not_epic", [
    ("refgraph", 3, 186, 92), ("point", 3, 60, 42),
    ("sierpinski", 3, 3203, 2409), ("two-discrete", 3, 3600, 3276),
    ("graph", {"V": 2, "E": 2}, 239, 136),
    ("graph", {"V": 3, "E": 2}, 1868, 1382)])
def test_pi_arrow_is_epic_iff_the_unit_after_the_arrow_is(base, bound,
                                                          arrows, not_epic):
    # Π(f) ∘ p_X = p_Y ∘ f and p_X is onto, so Π(f) is epic iff p_Y ∘ f
    # is, against building Π(f) by factoring p_Y ∘ f through p_X, on
    # every arrow between corpus objects and each inclusion f_*X ↪ X.
    corpus = enumerate_presheaves(catalog(base), bound)
    adj = oracles.AdjointString(corpus)
    incs = [adj.f_star(X)[1] for X in corpus
            if corpus.fact(check_dso, X).holds()]
    verdicts = []
    for f in [f for X in corpus for Y in corpus for f in homs(X, Y)] + incs:
        p_dom, p_cod = corpus.fact(pi, f.dom), corpus.fact(pi, f.cod)
        pf = oracles.pi_arrow(f, p_dom, p_cod)
        assert pf.dom is p_dom.quotient and pf.cod is p_cod.quotient
        got = is_epi(f.then(p_cod.map))
        assert got == is_epi(pf), f.components
        verdicts.append(got)
    assert len(verdicts) == arrows + len(incs)
    assert verdicts[:arrows].count(False) == not_epic


@st.composite
def reflexive_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    k = draw(st.integers(min_value=0, max_value=3))
    verts = tuple(str(i) for i in range(n))
    loops = tuple("l%d" % i for i in range(n))
    extra = tuple("e%d" % j for j in range(k))
    src = {e: str(draw(st.integers(0, n - 1))) for e in extra}
    tgt = {e: str(draw(st.integers(0, n - 1))) for e in extra}
    s = {**{"l%d" % i: str(i) for i in range(n)}, **src}
    t = {**{"l%d" % i: str(i) for i in range(n)}, **tgt}
    return make_from_generators(
        RG, {"V": verts, "E": loops + extra},
        {"s": s, "t": t, "sigma": {str(i): "l%d" % i for i in range(n)}})


@settings(max_examples=40, deadline=None)
@given(reflexive_graphs())
def test_pi_points_match_union_find_oracle(X):
    Q = pi(X).quotient
    assert len(global_elements(Q)) == oracles.component_count(X)
    # the quotient is a discrete graph: σ is a bijection onto the edges
    sigma_image = {Q.act("sigma", v) for v in Q.sets["V"]}
    assert len(sigma_image) == len(Q.sets["V"]) == len(Q.sets["E"])


# How many bound-3 corpus objects of each base have at most 4096
# subfunctors of X×X, so that the listing DQO oracle finishes.  The
# others were checked against it at a raised cap.
LISTED_DQO = {"point": 4, "two-discrete": 13, "sierpinski": 13,
              "graph": 35, "refgraph": 8}


@pytest.mark.parametrize("base", CATALOG)
def test_components_match_the_search_oracles(base):
    # Π, connectedness, DQO and DSO read off the components of ∫X,
    # against Π from the maps found by the hom search, Sub_c(X) by
    # filtering every subobject, and DQO and DSO by listing every
    # subfunctor of X×X or X, on every bound-3 corpus object.
    listed = 0
    rng = random.Random(7)
    for X in enumerate_presheaves(catalog(base), 3):
        # Π's ids follow element names, so also on a shuffled renaming.
        for Y in (X, oracles.renamed(X, rng)):
            r = pi(Y)
            Q, q = oracles.image_in_power_of_two(Y)
            assert (r.quotient.sets, r.quotient.actions) == \
                (Q.sets, Q.actions)
            assert r.map.components == q.components
        assert is_connected(X) == \
            (len(oracles.filtered_complemented_subobjects(X)) == 2)
        got, want = check_dso(X), oracles.listed_check_dso(X)
        assert (got.verdict, got.witnesses) == (want.verdict, want.witnesses)
        try:
            want = oracles.listed_check_dqo(X)
        except SizeCapError:
            continue
        got = check_dqo(X)
        assert (got.verdict, got.witnesses) == (want.verdict, want.witnesses)
        listed += 1
    assert listed == LISTED_DQO[base]


def test_components_of_the_empty_and_terminal_objects():
    for C in (RG, TD):
        empty, one = initial(C), terminal(C)
        assert connected_components(empty) == ({c: {} for c in C.objects}, 0)
        assert not is_connected(empty)
        assert pi(empty).quotient.sets == empty.sets
        assert check_dqo(empty).holds() and check_dso(empty).holds()
        # 1 is connected over the connected base refgraph only.
        assert connected_components(one)[1] == (1 if C is RG else 2)
        assert is_connected(one) == (C is RG)
        assert is_isomorphic(pi(one).quotient, one)


def test_connectedness():
    assert is_connected(P2)
    assert is_connected(L)
    assert not is_connected(two(RG)[0])
    assert not is_connected(terminal(TD))
    assert not is_connected(initial(RG))


def test_congruences_on_two_point_set():
    X = make_presheaf(PT, {"*": ("a", "b")}, {})
    rs = oracles.congruences(X)
    assert len(rs) == 2
    for R in rs:
        Q, q = quotient(X, R)
        assert is_epi(q)
    sizes = sorted(len(quotient(X, R)[0].sets["*"]) for R in rs)
    assert sizes == [1, 2]


def test_dqo_holds_on_point_and_two_discrete():
    assert check_dqo_bounded(enumerate_presheaves(PT, 3)).holds()
    assert check_dqo_bounded(enumerate_presheaves(TD, 2)).holds()


def test_dqo_fails_at_a1_with_diagonal_and_total():
    assert is_decidable(A1)
    r = check_dqo(A1)
    assert r.verdict == "fails"
    ws = r.witnesses[0]["factoring_congruences"]
    assert len(ws) == 2
    sizes = sorted((len(w["V"]), len(w["E"])) for w in ws)
    assert sizes == [(2, 1), (4, 1)]  # the diagonal and the total relation


def test_dqo_bounded_first_witness_is_a1():
    r = check_dqo_bounded(enumerate_presheaves(GR, {"V": 2, "E": 1}))
    assert r.verdict == "fails"
    w = r.witnesses[0]["object"]
    W = make_presheaf(GR, w["sets"], w["actions"])
    assert is_isomorphic(W, A1)


def test_bounded_check_names_the_objects_at_the_cap():
    # An object whose check passes the size cap does not abort the scan:
    # it is named, and the verdict is unknown at the cap unless another
    # object fails.  DQO at X×X passes a cap of 3 where X has 2 vertices.
    r = _check_bounded(enumerate_presheaves(GR, {"V": 2, "E": 1}, 3),
                       oracles.check_dqo_of_square)
    assert (r.verdict, r.witnesses) == ("unknown-at-cap", [])
    assert r.details == {"capped": ["X3", "X4", "X5"]}

    def capped_at_x1(X, cap):
        if X.name == "X1":
            raise SizeCapError("capped")
        return check_dqo(X, cap)

    r = _check_bounded(enumerate_presheaves(GR, {"V": 2, "E": 1}),
                       capped_at_x1)
    assert r.verdict == "fails" and r.details == {"capped": ["X1"]}
    w = r.witnesses[0]["object"]
    assert is_isomorphic(make_presheaf(GR, w["sets"], w["actions"]), A1)


def test_dso_examples():
    assert check_dso(P2).holds()
    assert check_dso(P2).witnesses[0]["subobject"] == {"V": ["0", "1"],
                                                  "E": ["l0", "l1"]}
    r = check_dso(make_presheaf(TD, {"a": ("x",), "b": ()}, {}))
    assert r.verdict == "fails"
    parts = r.witnesses[0]["decidable_subobjects"]
    assert parts == [{"a": [], "b": []}, {"a": ["x"], "b": []}]
    for X in enumerate_presheaves(PT, 3):
        assert check_dso(X).holds()
    assert not check_dso_bounded(enumerate_presheaves(TD, 1)).holds()


def test_separated_reflection():
    M, m = separated_reflection(L)
    assert is_isomorphic(M, terminal(RG))
    assert is_epi(m)
    M2, _m2 = separated_reflection(P2)
    assert is_isomorphic(M2, P2)
    # decidable objects are already separated
    M3, m3 = separated_reflection(D2)
    assert is_isomorphic(M3, D2)


def test_separated_reflection_builds_no_product():
    # ¬¬-equality is read off the restriction tables, so a cap below the
    # size of L×L does not stop it.
    M, m = separated_reflection(L, cap=2)
    assert M.size_vector() == (1, 1)
    assert is_epi(m)


def test_separated_reflection_matches_the_heyting_oracle():
    # The quotient by ¬¬-equality against the quotient by the
    # ¬¬-closure of the diagonal in Sub(X×X), checked separated in
    # Sub(M×M): the same tables, ids and map.
    checked = 0
    for X in oracles.lattice_objects():
        M, m = separated_reflection(X)
        want, q = oracles.heyting_separated_reflection(X)
        assert (M.name, M.sets, M.actions) == \
            (want.name, want.sets, want.actions), X
        assert m.components == q.components, X
        checked += 1
    assert checked == 324


@pytest.mark.parametrize("base", CATALOG + ("samples/refgraph.cat",))
def test_pi_of_terminal_is_one_at_every_stage(base):
    # ∫1 ≅ C, and each stage of 1 has one element, so Π(1) ≅ 1.
    C = resolve_base(base)
    assert pi_sizes(terminal(C)) == (1,) * len(C.objects)


def test_dec_topos_two_sided_agreement():
    cases = [("point", 2), ("two-discrete", 2), ("sierpinski", 2),
             ("graph", {"V": 2, "E": 1}), ("refgraph", {"V": 1, "E": 2})]
    for name, bound in cases:
        r = dec_is_topos_check(enumerate_presheaves(catalog(name), bound))
        assert r.holds(), name
