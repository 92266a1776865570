"""The precohesion checks, and the adjoint string over decidables that
they no longer build (kept in tests/oracles.py as the reference)."""

import json
import pathlib
import tracemalloc
from functools import partial

import pytest

import oracles
from oracles import require_axioms
from fptopos.builtins import builtin_object
from fptopos.cli import main
from fptopos.corpus import enumerate_presheaves
from fptopos.decidable import (_constant_on_fibers, _domain_maps,
                               _factors_all, check_dqo, check_dso, check_ns,
                               is_decidable, pi)
from fptopos.errors import AxiomPrereqFailed
from fptopos.fincat import catalog
from fptopos.files import parse_category_file
from fptopos.precohesion import (check_precohesive, theorem_ab_harness,
                                 theorem_c_harness)
from fptopos.presheaf import (NatTrans, global_elements, is_isomorphic,
                              nat_transformations, terminal)

PT = catalog("point")
RG = catalog("refgraph")
GR = catalog("graph")
D2 = builtin_object(RG, "D2")

BOUND2 = {"V": 2, "E": 2}

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"


def _base(name):
    """A catalog base, or a .cat file of samples/."""
    if name.endswith(".cat"):
        return parse_category_file(str(SAMPLES / name))
    return catalog(name)


@pytest.fixture(scope="module")
def adj():
    return oracles.adjoint_string(enumerate_presheaves(RG, BOUND2))


def test_build_rejects_ns_failure():
    with pytest.raises(AxiomPrereqFailed, match="NS fails"):
        require_axioms(enumerate_presheaves(GR, {"V": 1, "E": 1}))


def hom_cache():
    """nat_transformations, listing each hom-set once."""
    cache = {}

    def homs(X, Y):
        key = (id(X), id(Y))
        if key not in cache:
            cache[key] = nat_transformations(X, Y)
        return cache[key]
    return homs


def hom_bijection_failures(adj) -> list[str]:
    """The hom-set bijections of all three adjunctions over the corpus."""
    bad = []
    decs = adj.decidables()
    homs = hom_cache()
    for X in adj.corpus:
        r = adj.f_shriek(X)
        D, i = adj.f_star(X)
        for S in decs:
            # Π ⊣ inclusion: precomposition with the unit X → ΠX.
            if not oracles.bijective(r.map.then, homs(r.quotient, S),
                                     homs(X, S)):
                bad.append("pi-adjunction@%s,%s" % (X.name, S.name))
            # inclusion ⊣ f_*: postcomposition with f_*X ↪ X.
            if not oracles.bijective(lambda g: g.then(i), homs(S, D),
                                     homs(S, X)):
                bad.append("dso-adjunction@%s,%s" % (S.name, X.name))
            # f_* ⊣ f^!: the transpose phi.
            if not oracles.bijective(partial(adj.phi, X, S), homs(D, S),
                                     homs(X, adj.f_upper_shriek(S))):
                bad.append("fs-adjunction@%s,%s" % (X.name, S.name))
    return bad


def naturality_failures(adj) -> list[str]:
    """Naturality of the f_* ⊣ f^! transpose in both variables over
    all corpus arrows."""
    bad = []
    decs = adj.decidables()
    homs = hom_cache()
    for X in adj.corpus:
        DX, _ = adj.f_star(X)
        for S in decs:
            for g in homs(DX, S):
                hg = adj.phi(X, S, g)
                for X2 in adj.corpus:
                    for k in homs(X2, X):
                        lhs = adj.phi(X2, S,
                                       adj.f_star_arrow(k).then(g))
                        if not lhs.same_components(k.then(hg)):
                            bad.append("phi-natural-dom@%s,%s,%s"
                                       % (X.name, S.name, X2.name))
                            break
                for S2 in decs:
                    for m in homs(S, S2):
                        lhs = adj.phi(X, S2, g.then(m))
                        rhs = hg.then(adj.f_upper_shriek_arrow(m))
                        if not lhs.same_components(rhs):
                            bad.append("phi-natural-cod@%s,%s,%s"
                                       % (X.name, S.name, S2.name))
                            break
    return bad


def test_triangles_hom_bijections_naturality(adj):
    assert adj.verify_triangles() == []
    assert oracles.triangle_failures(adj) == []
    assert hom_bijection_failures(adj) == []
    assert naturality_failures(adj) == []


@pytest.mark.parametrize("base, bound", [
    ("refgraph", 3), ("refgraph", 4), ("point", 3)])
def test_triangles_that_hold_by_construction(base, bound):
    # Once NS, DQO and DSO hold, the Π ⊣ inclusion and inclusion ⊣ f_*
    # triangle identities hold too, so the adjoint string checks only
    # those of f_* ⊣ f^!; the deleted checks still find nothing.
    adj = oracles.adjoint_string(enumerate_presheaves(catalog(base), bound))
    assert oracles.triangle_failures(adj) == []


def test_f_star_of_representable_edge_is_discrete(adj):
    yE, D, inc = adj.f_star_rep("E")
    assert is_isomorphic(D, D2)
    assert is_decidable(D)


def test_f_upper_shriek_sizes(adj):
    # f^! S at stage E lists maps out of f_*(y(E)) ≅ D2, and a map from
    # the discrete two-vertex graph into S is a pair of points of S(V)
    for S in adj.decidables():
        T = adj.f_upper_shriek(S)
        assert len(T.sets["E"]) == len(S.sets["V"]) ** 2
        assert len(T.sets["V"]) == len(S.sets["V"])


def test_transposes_are_mutually_inverse(adj):
    S = adj.decidables()[-1]
    for X in adj.corpus[:4]:
        for g in nat_transformations(adj.f_star(X)[0], S):
            h = adj.phi(X, S, g)
            assert adj.phi_inv(X, S, h).same_components(g)


def _one_value_changed(h):
    """Each copy of h with one value replaced by the next element of its
    stage of the codomain."""
    for c in h.dom.base.objects:
        ids = h.cod.sets[c]
        for x in h.dom.sets[c] if len(ids) > 1 else ():
            comps = {b: dict(h.components[b]) for b in h.components}
            comps[c][x] = ids[(ids.index(h.apply(c, x)) + 1) % len(ids)]
            yield NatTrans(h.dom, h.cod, comps)


def _inverse_or_failure(phi_inv, *args):
    try:
        return phi_inv(*args).key()
    except oracles.TriangleIdentityFailed:
        return "no preimage"


@pytest.mark.parametrize("base, bound, inverses, failures", [
    ("refgraph", 2, 21, 42), ("refgraph", {"V": 2, "E": 3}, 43, 130),
    ("point", 3, 318, 0)])
def test_phi_inv_matches_the_search(base, bound, inverses, failures):
    # The inverse transpose read off h against the search over
    # Hom(f_*X, S), for every h: X → f^!S and h with one value changed,
    # with X in the corpus and S a decidable or f_*X.  On the point every
    # map of sets is natural, so each changed h has a preimage too.
    adj = oracles.adjoint_string(enumerate_presheaves(catalog(base), bound))
    outcomes = []
    for X in adj.corpus:
        for S in [*adj.decidables(), adj.f_star(X)[0]]:
            for h in nat_transformations(X, adj.f_upper_shriek(S)):
                for h2 in (h, *_one_value_changed(h)):
                    got = _inverse_or_failure(adj.phi_inv, X, S, h2)
                    assert got == _inverse_or_failure(
                        partial(oracles.listed_phi_inv, adj), X, S, h2)
                    outcomes.append(got)
    assert (len(outcomes) - outcomes.count("no preimage"),
            outcomes.count("no preimage")) == (inverses, failures)


def test_adjoint_string_lists_no_hom_sets():
    # Precohesion on the point at bound 6 builds no f^!S and lists no
    # hom-set; finding each f_* ⊣ f^! preimage by a search over
    # Hom(f_*X, S) traced over 50 MB.
    corpus = enumerate_presheaves(PT, 6)
    tracemalloc.start()
    try:
        r = check_precohesive(corpus)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(corpus) == 7
    assert r.verdict == "precohesive"
    assert peak < 5 * 10 ** 6


@pytest.mark.parametrize("base, bound", [
    ("point", 2), ("point", 3), ("point", 4), ("point", 5), ("point", 6),
    ("refgraph", 2), ("refgraph", 3), ("refgraph", 4), ("idem.cat", 2),
    ("idem.cat", 3), ("idem.cat", 4), ("lz.cat", 2), ("lz.cat", 3),
    ("lz.cat", 4)])
def test_triangles_hold_wherever_the_axioms_do(base, bound):
    # Precohesion checks NS and no triangle identity; where the axioms
    # hold, the adjoint string built on f^!S = Hom(f_*y(−), S) finds both
    # f_* ⊣ f^! triangles at every object.
    corpus = enumerate_presheaves(_base(base), bound)
    require_axioms(corpus)
    assert oracles.AdjointString(corpus).verify_triangles() == []


@pytest.mark.parametrize("base, bound", [
    ("point", 4), ("refgraph", 3), ("refgraph", {"V": 2, "E": 3}),
    ("idem.cat", 3), ("lz.cat", 3)])
def test_values_of_points_of_a_representable_act_as_identities(base,
                                                                bound):
    # The fact the f_* ⊣ f^! triangles rest on: each k ∈ f_*y(b)(b) is
    # idempotent, so S(k) is the identity for decidable S, at the corpus
    # decidables and at each f_*X.
    corpus = enumerate_presheaves(_base(base), bound)
    adj = oracles.AdjointString(corpus)
    C = corpus.base
    ks = {b: adj.f_star_rep(b)[1].sets[b] for b in C.objects}
    targets = [*corpus.decidables(), *(adj.f_star(X)[0] for X in corpus)]
    for b, k in ((b, k) for b in C.objects for k in ks[b]):
        assert C.compose(k, k) == k
        for S in targets:
            assert is_decidable(S)
            assert all(S.act(k, s) == s for s in S.sets[b]), (S.name, k)
    assert all(ks.values())


def test_point_base_string_is_degenerate():
    a = oracles.adjoint_string(enumerate_presheaves(PT, 2))
    for X in a.corpus:
        D, i = a.f_star(X)
        assert is_isomorphic(D, X)  # every presheaf on the point is decidable
    assert a.verify_triangles() == []


def test_refgraph_is_precohesive_at_bound():
    r = check_precohesive(enumerate_presheaves(RG, BOUND2))
    assert r.verdict != "not-applicable"
    assert r.holds()
    assert r.witnesses == []


def test_graph_base_not_applicable():
    r = check_precohesive(enumerate_presheaves(GR, {"V": 1, "E": 1}))
    assert r.verdict == "not-applicable"
    assert "NS" in r.details["failed_prereq"]
    assert not r.holds()


def test_theorem_c_harness_agrees(adj):
    h = theorem_c_harness(enumerate_presheaves(RG, BOUND2))
    assert h.holds() and h.details["axioms_hold"] and \
        h.details["precohesive"]
    assert h.details["checks"]["dso_part_nn_dense"]
    assert h.details["checks"]["pi_of_dense_mono_epic"]


def test_theorem_c_mutation_of_the_products_side(monkeypatch, capsys):
    """If Π is made to miss one product, precohesion turns false while
    the axioms, forced by NS, still hold, so theorem C fails; the
    harness reads the one side it computes."""
    import fptopos.precohesion as pre

    def one_failure(corpus):
        yield corpus[0], corpus[0]

    monkeypatch.setattr(pre, "pi_product_failures", one_failure)
    pre_r = check_precohesive(enumerate_presheaves(RG, {"V": 1, "E": 1}))
    assert pre_r.verdict == "fails"
    assert not pre_r.details["products_preserved"]
    h = theorem_c_harness(enumerate_presheaves(RG, {"V": 1, "E": 1}))
    assert h.details["axioms_hold"] and not h.details["precohesive"]
    assert not h.holds()
    assert main(["verify", "C", "--bound", "V=1,E=1", "--format",
                 "json"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "fails"
    assert rep["details"]["axioms_hold"] is True
    assert rep["details"]["precohesive"] is False


@pytest.mark.parametrize("base, bound", [
    (base, bound) for base in ("point", "refgraph", "idem.cat", "lz.cat")
    for bound in (2, 3, 4)])
def test_ns_forces_dqo_dso_and_the_reflection(base, bound):
    # `require_ns`: once NS holds, DQO and DSO hold at every corpus object
    # (the per-object reference passes), and every map into a corpus
    # decidable is constant on the components of ∫X at each stage, so
    # Π ⊣ inclusion holds; `precohesion` and theorems A and C check none
    # of them.
    corpus = enumerate_presheaves(_base(base), bound)
    require_axioms(corpus)
    decs = corpus.decidables()
    for X in corpus:
        maps = _domain_maps(X, decs)
        assert _constant_on_fibers(maps[0], maps), X.name


@pytest.mark.parametrize("base, axioms", [
    ("rz.cat", (False, True, True)), ("z2.cat", (False, False, False)),
    ("cospan.cat", (False, True, False)), ("span.cat", (False, True, False)),
    ("arrowidem.cat", (False, True, False))])
def test_dqo_and_dso_fail_without_ns(base, axioms):
    # The gate above is not vacuous: without NS, DQO and DSO fail at some
    # corpus object at bound 3 on z2 and DSO on cospan, span and
    # arrowidem; and NS is not necessary, as both hold on rz.
    C = _base(base)
    corpus = enumerate_presheaves(C, 3)
    assert (check_ns(C).holds(),
            all(corpus.fact(check_dqo, X).holds() for X in corpus),
            all(corpus.fact(check_dso, X).holds() for X in corpus)) == axioms
    with pytest.raises(AxiomPrereqFailed, match="NS fails"):
        require_axioms(corpus)


@pytest.mark.parametrize("base, bound", [
    ("refgraph", "3"), ("point", "6"), ("idem.cat", "4"), ("lz.cat", "4")])
def test_precohesion_and_theorems_run_no_axiom_pass(monkeypatch, capsys,
                                                    base, bound):
    # With every per-object DQO, DSO and reflection check made to raise,
    # `precohesion` and `verify A|B|C` give the verdicts they gave when
    # they ran those checks.
    import fptopos.decidable as dec
    import fptopos.harness as harness
    import fptopos.precohesion as pre

    def raises(*args, **kwargs):
        raise AssertionError("an axiom check ran")

    for name in ("check_dqo", "check_dso", "_domain_maps",
                 "_constant_on_fibers"):
        assert not hasattr(pre, name)
        monkeypatch.setattr(dec, name, raises)
        monkeypatch.setattr(harness, name, raises, raising=False)
    ref = str(SAMPLES / base) if base.endswith(".cat") else base
    for argv, verdict in ((("precohesion",), "precohesive"),
                          (("verify", "A"), "holds"),
                          (("verify", "B"), "holds"),
                          (("verify", "C"), "holds")):
        code = main([*argv, "--base", ref, "--bound", bound, "--format",
                     "json"])
        assert json.loads(capsys.readouterr().out)["verdict"] == verdict
        assert code == 0


@pytest.mark.parametrize("base, bound, objects, not_reflective", [
    ("refgraph", 3, 8, 0), ("point", 3, 4, 0), ("sierpinski", 3, 18, 0),
    ("two-discrete", 3, 16, 0), ("graph", {"V": 2, "E": 2}, 13, 3),
    ("graph", {"V": 3, "E": 2}, 26, 10)])
def test_pi_left_adjoint_by_component_matches_the_hom_bijection(
        base, bound, objects, not_reflective):
    # Precomposition with p_X: X ↠ ΠX is onto Hom(X, S) iff every map
    # from X to a decidable factors through p_X (read per component of
    # ∫X), against listing Hom(ΠX, S) and Hom(X, S) and checking that
    # precomposition is a bijection, for every decidable S.
    corpus = enumerate_presheaves(catalog(base), bound)
    decs = corpus.decidables()
    verdicts = []
    for X in corpus:
        r = corpus.fact(pi, X)
        got = _factors_all(r.map, _domain_maps(X, decs))
        assert got == all(oracles.bijective(
            r.map.then, nat_transformations(r.quotient, S),
            nat_transformations(X, S)) for S in decs), X.name
        verdicts.append(got)
    assert (len(verdicts), verdicts.count(False)) == (objects,
                                                      not_reflective)


def test_theorem_a_lists_no_hom_sets():
    # Theorem A on the point at bound 6 reads maps into decidables per
    # component; listing Hom(ΠX, S) and Hom(X, S) (6⁶ maps between two
    # 6-element sets) would trace over 100 MB.
    corpus = enumerate_presheaves(PT, 6)
    tracemalloc.start()
    try:
        h = theorem_ab_harness(corpus)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h.holds()
    assert peak < 5 * 10 ** 6


def test_theorem_ab_harness():
    h = theorem_ab_harness(enumerate_presheaves(RG, {"V": 1, "E": 2}))
    assert h.holds()  # theorems A and B both hold
    assert h.details["checks"]["pi_left_adjoint"]
    assert h.details["checks"]["pi_preserves_products"]
    assert h.details["checks"]["exponential_ideal"]
    assert h.details["checks"]["reflective_implies_dqo"]


@pytest.mark.parametrize("base, bound", [
    ("refgraph", 2), ("refgraph", 3), ("refgraph", 4), ("point", 3),
    ("point", 4), ("point", 5), ("point", 6), ("idem.cat", 3),
    ("idem.cat", 4), ("lz.cat", 3), ("lz.cat", 4)])
def test_nullstellensatz_and_theorem_c_checks_hold_by_construction(
        base, bound):
    # Once NS, DQO and DSO hold, θ_X is epic, and f_*X is ¬¬-dense in X
    # with Π(ι) epic, at every corpus object: the reports state it, and
    # the checks built from Π, as they ran before, agree.
    corpus = enumerate_presheaves(_base(base), bound)
    adj = oracles.AdjointString(corpus)
    pre = check_precohesive(corpus)
    assert pre.verdict == "precohesive"
    assert [oracles.theta_is_epic(adj, X) for X in corpus] == \
        [pre.details["nullstellensatz"]] * len(corpus)
    checks = theorem_c_harness(corpus).details["checks"]
    assert [oracles.dso_part_checks(adj, X) for X in corpus] == \
        [(checks["dso_part_nn_dense"],
          checks["pi_of_dense_mono_epic"])] * len(corpus)


@pytest.mark.parametrize("base, bound, objects, failing", [
    ("refgraph", 3, 8, 0), ("graph", {"V": 3, "E": 2}, 26, 10),
    ("two-discrete", 3, 16, 0), ("sierpinski", 3, 18, 0),
    ("point", 4, 5, 0)])
def test_reflective_iff_dqo_at_each_object(base, bound, objects, failing):
    # X/R₀ is a decidable quotient within the bound, so reflectivity at X
    # gives DQO at X, and theorem B's check holds by construction.  The
    # reflection read off the fiber table of p_X (the components of ∫X)
    # agrees with factoring through the unit p_X built, and with DQO.
    corpus = enumerate_presheaves(catalog(base), bound)
    decs = corpus.decidables()
    by_table = [_constant_on_fibers(maps[0], maps)
                for maps in (_domain_maps(X, decs) for X in corpus)]
    assert oracles.reflective_and_dqo(corpus) == [(r, r) for r in by_table]
    assert (len(by_table), by_table.count(False)) == (objects, failing)
