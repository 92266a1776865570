"""Finite base categories: validation, generator closure, catalog."""

import pytest

from fptopos.errors import CategoryError, UnknownName
from fptopos.fincat import (FinCategory, catalog, catalog_entries,
                            close_generators, validate_category)


def test_catalog_names():
    names = sorted(catalog_entries())
    assert names == ["graph", "point", "refgraph", "sierpinski",
                     "two-discrete"]


def test_point_category():
    C = catalog("point")
    assert C.objects == ("*",)
    assert C.morphism_names() == ("1_*",)
    assert C.is_identity("1_*")


def test_refgraph_closure_has_seven_morphisms():
    C = catalog("refgraph")
    assert len(C.morphism_names()) == 7
    # hom-set sizes frozen from the hand computation
    assert len(C.hom("V", "V")) == 1
    assert len(C.hom("V", "E")) == 2
    assert len(C.hom("E", "V")) == 1
    assert len(C.hom("E", "E")) == 3


def test_refgraph_reflexivity_relations():
    C = catalog("refgraph")
    # source and target of a degenerate loop are the vertex itself
    assert C.compose("sigma", "s") == "1_V"
    assert C.compose("sigma", "t") == "1_V"
    # the two non-identity endomorphisms of E are the composites
    assert sorted(C.hom("E", "E")) == ["1_E", "s∘sigma", "t∘sigma"]


def test_composition_is_associative_everywhere():
    for name in catalog_entries():
        C = catalog(name)
        for f in C.morphism_names():
            for g in C.morphism_names():
                if C.cod(f) != C.dom(g):
                    continue
                for h in C.morphism_names():
                    if C.cod(g) != C.dom(h):
                        continue
                    assert C.compose(h, C.compose(g, f)) == \
                        C.compose(C.compose(h, g), f)


def test_identity_laws_everywhere():
    for name in catalog_entries():
        C = catalog(name)
        for f in C.morphism_names():
            assert C.compose(f, C.identity(C.dom(f))) == f
            assert C.compose(C.identity(C.cod(f)), f) == f


def test_roundtrip_through_raw():
    for name in catalog_entries():
        C = catalog(name)
        C2 = validate_category(C.to_raw())
        assert C2.to_raw() == C.to_raw()


def test_validate_rejects_missing_identity():
    raw = catalog("point").to_raw()
    raw["identities"] = {}
    with pytest.raises(CategoryError) as exc:
        validate_category(raw)
    assert exc.value.kind == "MissingIdentity"


def test_validate_rejects_incomplete_composition():
    raw = catalog("refgraph").to_raw()
    raw["composition"] = raw["composition"][:-1]
    with pytest.raises(CategoryError) as exc:
        validate_category(raw)
    assert exc.value.kind == "IncompleteComposition"


def test_validate_rejects_dangling_reference():
    raw = catalog("graph").to_raw()
    raw["morphisms"].append({"name": "bad", "dom": "V", "cod": "nowhere"})
    with pytest.raises(CategoryError) as exc:
        validate_category(raw)
    assert exc.value.kind == "DanglingReference"


def test_validate_rejects_non_associative_table():
    # two-object category with two composable arrows and a bad table
    raw = {
        "name": "bad", "objects": ["a"],
        "identities": {"a": "1"},
        "morphisms": [["1", "a", "a"], ["f", "a", "a"], ["g", "a", "a"],
                      ["h", "a", "a"]],
        "composition": [["1", "1", "1"], ["1", "f", "f"], ["f", "1", "f"],
                        ["1", "g", "g"], ["g", "1", "g"],
                        ["1", "h", "h"], ["h", "1", "h"],
                        ["f", "f", "g"], ["f", "g", "h"], ["g", "f", "h"],
                        ["f", "h", "1"], ["h", "f", "g"],
                        ["g", "g", "1"], ["g", "h", "f"], ["h", "g", "f"],
                        ["h", "h", "g"]],
    }
    with pytest.raises(CategoryError) as exc:
        validate_category(raw)
    assert exc.value.kind == "NonAssociative"


def test_close_generators_respects_relations():
    C = close_generators(
        "mono", ("x",),
        [("e", "x", "x")],
        relations=[(("e", "e"), ("e",))])
    assert sorted(C.morphism_names()) == ["1_x", "e"]
    assert C.compose("e", "e") == "e"


def test_close_generators_caps_free_monoid():
    with pytest.raises(CategoryError):
        close_generators("free", ("x",), [("f", "x", "x")])


def test_unknown_catalog_name():
    with pytest.raises(UnknownName):
        catalog("cube")
