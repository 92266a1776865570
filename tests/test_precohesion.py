"""The adjoint string over decidables and the precohesion checks."""

from functools import partial

import pytest

from fptopos.builtins import builtin_object
from fptopos.corpus import enumerate_presheaves
from fptopos.decidable import is_decidable
from fptopos.errors import AxiomPrereqFailed
from fptopos.fincat import catalog
from fptopos.precohesion import (AdjointString, _bijective, _hom,
                                 build_adjoint_string, check_precohesive,
                                 theorem_ab_harness, theorem_c_harness)
from fptopos.presheaf import (global_elements, is_isomorphic,
                              nat_transformations, terminal)

PT = catalog("point")
RG = catalog("refgraph")
GR = catalog("graph")
D2 = builtin_object(RG, "D2")

BOUND2 = {"V": 2, "E": 2}


@pytest.fixture(scope="module")
def adj():
    return build_adjoint_string(enumerate_presheaves(RG, BOUND2))


def test_build_rejects_ns_failure():
    with pytest.raises(AxiomPrereqFailed):
        build_adjoint_string(enumerate_presheaves(GR, {"V": 1, "E": 1}))


def hom_bijection_failures(adj) -> list[str]:
    """The hom-set bijections of all three adjunctions over the corpus."""
    bad = []
    decs = adj.decidables()
    homs = partial(_hom, adj._homs)
    for X in adj.corpus:
        r = adj.f_shriek(X)
        D, i = adj.f_star(X)
        for S in decs:
            # Π ⊣ inclusion: precomposition with the unit X → ΠX.
            if not _bijective(r.map.then, homs(r.quotient, S),
                              homs(X, S)):
                bad.append("pi-adjunction@%s,%s" % (X.name, S.name))
            # inclusion ⊣ f_*: postcomposition with f_*X ↪ X.
            if not _bijective(lambda g: g.then(i), homs(S, D),
                              homs(S, X)):
                bad.append("dso-adjunction@%s,%s" % (S.name, X.name))
            # f_* ⊣ f^!: the transpose phi.
            if not _bijective(partial(adj.phi, X, S), homs(D, S),
                              homs(X, adj.f_upper_shriek(S))):
                bad.append("fs-adjunction@%s,%s" % (X.name, S.name))
    return bad

def naturality_failures(adj) -> list[str]:
    """Naturality of the f_* ⊣ f^! transpose in both variables over
    all corpus arrows."""
    bad = []
    decs = adj.decidables()
    for X in adj.corpus:
        DX, _ = adj.f_star(X)
        for S in decs:
            for g in _hom(adj._homs, DX, S):
                hg = adj.phi(X, S, g)
                for X2 in adj.corpus:
                    for k in _hom(adj._homs, X2, X):
                        lhs = adj.phi(X2, S,
                                       adj.f_star_arrow(k).then(g))
                        if not lhs.same_components(k.then(hg)):
                            bad.append("phi-natural-dom@%s,%s,%s"
                                       % (X.name, S.name, X2.name))
                            break
                for S2 in decs:
                    for m in _hom(adj._homs, S, S2):
                        lhs = adj.phi(X, S2, g.then(m))
                        rhs = hg.then(adj.f_upper_shriek_arrow(m))
                        if not lhs.same_components(rhs):
                            bad.append("phi-natural-cod@%s,%s,%s"
                                       % (X.name, S.name, S2.name))
                            break
    return bad


def test_triangles_hom_bijections_naturality(adj):
    assert adj.verify_triangles() == []
    assert hom_bijection_failures(adj) == []
    assert naturality_failures(adj) == []


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


def test_point_base_string_is_degenerate():
    a = build_adjoint_string(enumerate_presheaves(PT, 2))
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


def test_theorem_c_mutation_flips_both_sides(monkeypatch):
    """If DSO is made to fail, the axiom side and the precohesion side
    must both turn false together; the harness is not hard-wired."""
    import fptopos.decidable as dec
    import fptopos.precohesion as pre
    from fptopos.report import Result

    def always_fails(X, cap=None):
        return Result("fails", [{"object": X.name}])

    monkeypatch.setattr(dec, "check_dso", always_fails)
    monkeypatch.setattr(pre, "check_dso", always_fails)
    h = theorem_c_harness(enumerate_presheaves(RG, {"V": 1, "E": 1}))
    assert not h.details["axioms_hold"] and \
        not h.details["precohesive"] and h.holds()


def test_theorem_ab_harness():
    h = theorem_ab_harness(enumerate_presheaves(RG, {"V": 1, "E": 2}))
    assert h.holds()  # theorems A and B both hold
    assert h.details["checks"]["pi_left_adjoint"]
    assert h.details["checks"]["pi_preserves_products"]
    assert h.details["checks"]["exponential_ideal"]
    assert h.details["checks"]["reflective_implies_dqo"]
