"""Property battery, fiber-condition equivalences, counterexample search."""

import json
from functools import partial

import pytest

import oracles

from fptopos.builtins import builtin_object
from fptopos.cli import main
from fptopos.corpus import enumerate_presheaves
from fptopos.decidable import _domain_maps, _factors_all, is_decidable, pi
from fptopos.errors import SizeCapError, UnknownName
from fptopos.fincat import catalog
from fptopos.harness import (PROPERTIES, SEARCHES, _corpus_epis,
                             _first_witness, _inverts_two, epi_conditions,
                             fiber, lemma_report, props_report,
                             search_counterexample)
from fptopos.presheaf import (NatTrans, connected_components,
                              global_elements, is_epi, is_isomorphic,
                              make_presheaf, nat_transformations, pairing,
                              product, pullback, terminal)
from fptopos.sublattice import has_pneumoconnected_fibers

PT = catalog("point")
TD = catalog("two-discrete")
RG = catalog("refgraph")
GR = catalog("graph")
P2 = builtin_object(RG, "P2")


def test_fiber_of_collapse():
    X = make_presheaf(PT, {"*": ("a", "b")}, {}, "X")
    one = terminal(PT)
    q = nat_transformations(X, one)[0]
    pt = global_elements(one)[0]
    F = fiber(q, pt)
    assert len(F.sets["*"]) == 2


def test_epi_conditions_for_pi_quotient():
    decs = [X for X in enumerate_presheaves(RG, {"V": 2, "E": 2})
            if is_decidable(X)]
    q = pi(P2).map
    i, ii, iii = epi_conditions(q, decs)
    assert i and ii and iii


@pytest.mark.parametrize("base, bound, inverting, not_inverting", [
    ("two-discrete", 3, 100, 224), ("sierpinski", 3, 96, 178),
    ("graph", {"V": 3, "E": 2}, 103, 75), ("refgraph", 3, 24, 10)])
def test_two_inverting_epis_match_the_hom_search(base, bound, inverting,
                                                 not_inverting):
    # Every X → 2 factors through the epi q: X ↠ Y iff X and Y have
    # equally many components, against factoring each map X → 2 that
    # the hom search finds, on every epi of the lemma corpora.
    corpus = enumerate_presheaves(catalog(base), bound)
    verdicts = [_inverts_two(q) for q in _corpus_epis(corpus)]
    assert verdicts == [oracles.two_inverting_by_hom_search(q)
                        for q in _corpus_epis(corpus)]
    assert (verdicts.count(True), verdicts.count(False)) == \
        (inverting, not_inverting)


@pytest.mark.parametrize("base, bound, arrows, factoring", [
    ("refgraph", 3, 186, 24), ("sierpinski", 3, 3203, 96),
    ("two-discrete", 3, 3600, 100), ("point", 3, 60, 10),
    ("graph", {"V": 2, "E": 2}, 239, 28),
    ("graph", {"V": 3, "E": 2}, 1868, 70)])
def test_maps_into_decidables_by_component_match_the_hom_sets(
        base, bound, arrows, factoring):
    # Condition (iii), every map from X to a decidable factors through
    # q, read off the maps into each decidable from each component of
    # ∫X, against factoring every map of Hom(X, D) that the hom search
    # lists, on every arrow between corpus objects, epi or not.
    corpus = enumerate_presheaves(catalog(base), bound)
    decs = corpus.decidables()
    verdicts = []
    for X in corpus:
        maps = _domain_maps(X, decs)
        listed = [h.components for D in decs
                  for h in nat_transformations(X, D)]
        for Y in corpus:
            for q in nat_transformations(X, Y):
                got = _factors_all(q, maps)
                assert got == oracles.factor_all(q, listed), q.components
                verdicts.append(got)
    assert (len(verdicts), verdicts.count(True)) == (arrows, factoring)


@pytest.mark.parametrize("base, bound, empty", [
    ("refgraph", 3, 132), ("sierpinski", 2, 28),
    ("graph", {"V": 2, "E": 2}, 44), ("two-discrete", 2, 49)])
def test_fiber_components_match_the_maps_to_two(base, bound, empty):
    # A fiber over a global point with k components has 2^k
    # complemented parts, as many as its maps into 2 of the hom search,
    # so it has a nontrivial one iff k > 1; k is 0 on empty fibers.
    corpus = enumerate_presheaves(catalog(base), bound)
    counts = []
    for X in corpus:
        for Y in corpus:
            points = global_elements(Y)
            for f in nat_transformations(X, Y):
                for b in points:
                    F = fiber(f, b)
                    k = connected_components(F)[1]
                    assert 2 ** k == len(oracles.hom_search_maps_to_two(F))
                    counts.append(k)
    assert counts.count(0) == empty and max(counts) > 1


def test_lemma_report_refgraph_small():
    r = lemma_report(enumerate_presheaves(RG, {"V": 1, "E": 2}))
    assert r.holds() and r.witnesses == []
    assert r.details["pairs_checked"] == \
        len(enumerate_presheaves(RG, {"V": 1, "E": 2})) ** 2


def test_props_report_runs_all_and_holds():
    r = props_report(enumerate_presheaves(RG, {"V": 1, "E": 2}))
    assert list(r.details["properties"]) == sorted(PROPERTIES)
    for name, holds in r.details["properties"].items():
        assert holds is True, (name, r.witnesses)


@pytest.mark.parametrize("base", [
    "point", "two-discrete", "sierpinski", "graph", "refgraph"])
def test_properties_that_hold_by_construction(base):
    # `decidable-closure` and `pi-structure` hold on every corpus; the
    # listing check that `decidable-closure` was finds no witness.
    corpus = enumerate_presheaves(catalog(base), 3)
    assert oracles.decidable_closure_failure(corpus) is None
    r = props_report(corpus, ["decidable-closure", "pi-structure"])
    assert r.details["properties"] == {"decidable-closure": True,
                                       "pi-structure": True}


def test_props_report_unknown_name():
    with pytest.raises(UnknownName):
        props_report(enumerate_presheaves(RG, 1),
                     names=["no-such-property"])


def test_search_dqo_finds_a1_on_graph_base():
    w = search_counterexample("dqo-uniqueness",
                              enumerate_presheaves(GR, {"V": 2, "E": 1}))
    assert w is not None
    assert len(w["factoring_congruences"]) == 2
    from fptopos.presheaf import make_presheaf as mk
    W = mk(GR, w["object"]["sets"], w["object"]["actions"])
    assert is_isomorphic(W, builtin_object(GR, "A1"))


def test_search_names_the_objects_at_the_cap(monkeypatch):
    # Given a list, a search over a per-object check goes on past an
    # object whose check passes the size cap and names it; without one,
    # the cap hit raises.  DQO at X×X passes a cap of 3 where X has 2
    # vertices.
    monkeypatch.setitem(SEARCHES, "dqo-uniqueness",
                        partial(_first_witness, oracles.check_dqo_of_square))
    corpus = enumerate_presheaves(GR, {"V": 2, "E": 1}, 3)
    capped = []
    assert search_counterexample("dqo-uniqueness", corpus, capped) is None
    assert [X.name for X in capped] == ["X3", "X4", "X5"]
    with pytest.raises(SizeCapError):
        search_counterexample("dqo-uniqueness", corpus)


def test_search_dso_finds_lopsided_pair_on_two_discrete():
    w = search_counterexample("dso-uniqueness", enumerate_presheaves(TD, 1))
    assert w is not None
    assert w["object"]["sets"] in ({"a": [], "b": ["b0"]},
                                   {"a": ["a0"], "b": []})


def test_searches_come_up_empty_where_properties_hold():
    for prop in ("dqo-uniqueness", "dso-uniqueness", "pneumo-pi-quotients",
                 "pi-product-preservation", "lemma-equivalences"):
        corpus = enumerate_presheaves(RG, {"V": 1, "E": 2})
        assert search_counterexample(prop, corpus) is None


def test_search_unknown_property():
    with pytest.raises(UnknownName):
        search_counterexample("nope", enumerate_presheaves(RG, 1))
    assert set(SEARCHES) >= {"dqo-uniqueness", "dso-uniqueness",
                             "pneumo-two-inverting-epis",
                             "pneumo-separated-reflections"}


def _rebuilt(snippet):
    """The refgraph presheaf of a witness's JSON snippet."""
    return make_presheaf(RG, snippet["sets"], snippet["actions"],
                         snippet["name"])


def _rebuilt_arrow(X, Y, components):
    """The arrow X → Y with a witness's components, which must be
    natural."""
    f = NatTrans(X, Y, components)
    assert any(f.same_components(h) for h in nat_transformations(X, Y))
    return f


@pytest.mark.parametrize("argv, failing", [
    (("--bound", "3"), {"pneumo-fibers-connected", "pneumo-pullback-closed"}),
    (("--bound", "V=2,E=3", "--props",
      "pneumo-pullback-closed,pneumo-product-closed"),
     {"pneumo-pullback-closed"})])
def test_pneumo_witnesses_recheck_from_their_json(capsys, argv, failing):
    # Each arrow-property witness names its arrows' components, so the
    # failure is found again from the JSON alone.
    assert main(["verify", "props", *argv, "--format", "json"]) == 1
    witnesses = json.loads(capsys.readouterr().out)["witnesses"]
    pneumo = [w for w in witnesses if w["property"] in failing]
    assert {w["property"] for w in pneumo} == failing
    for w in pneumo:
        if w["property"] == "pneumo-fibers-connected":
            Y = _rebuilt(w["cod"])
            f = _rebuilt_arrow(_rebuilt(w["dom"]), Y, w["map"])
            b = _rebuilt_arrow(terminal(RG), Y, {c: {"*": v} for c, v
                                                 in w["point"].items()})
            assert has_pneumoconnected_fibers(f)
            assert connected_components(fiber(f, b))[1] > 1
        else:
            Y = _rebuilt(w["cod"])
            f = _rebuilt_arrow(_rebuilt(w["arrow_dom"]), Y, w["arrow"])
            g = _rebuilt_arrow(_rebuilt(w["along_dom"]), Y, w["along"])
            assert is_epi(f) and has_pneumoconnected_fibers(f)
            _P, pr1, _pr2 = pullback(g, f)
            assert not has_pneumoconnected_fibers(pr1)


def test_pneumo_product_witness_names_both_arrows(capsys, monkeypatch):
    # No corpus tried has a product of pneumo epis that fails, so the
    # fiber check is made to reject the first product it is given; the
    # witness must rebuild both epis and, from them, that product.
    import fptopos.harness as harness
    real, rejected = harness.has_pneumoconnected_fibers, []

    def reject_first_product(f, *args):
        if "×" in f.dom.name and not rejected:
            rejected.append(f)
            return False
        return real(f, *args)

    monkeypatch.setattr(harness, "has_pneumoconnected_fibers",
                        reject_first_product)
    assert main(["verify", "props", "--bound", "2", "--props",
                 "pneumo-product-closed", "--format", "json"]) == 1
    (w,) = json.loads(capsys.readouterr().out)["witnesses"]
    f = _rebuilt_arrow(_rebuilt(w["left_dom"]), _rebuilt(w["left_cod"]),
                       w["left"])
    g = _rebuilt_arrow(_rebuilt(w["right_dom"]), _rebuilt(w["right_cod"]),
                       w["right"])
    assert all(is_epi(h) and real(h) for h in (f, g))
    _P, p1, p2 = product(f.dom, g.dom)
    Q, _q1, _q2 = product(f.cod, g.cod)
    assert pairing(p1.then(f), p2.then(g), Q).same_components(rejected[0])
