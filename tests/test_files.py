"""Round-tripping categories and presheaves through the text formats."""

import pytest

from fptopos.builtins import builtin_object
from fptopos.corpus import enumerate_presheaves
from fptopos.decidable import check_dqo, pi
from fptopos.errors import ParseError
from fptopos.fincat import catalog, catalog_entries
from fptopos.files import (category_to_text, parse_category_file,
                           parse_category_text, parse_presheaf_file,
                           parse_presheaf_text, presheaf_to_text,
                           resolve_base)
from fptopos.presheaf import coproduct, find_iso, product

RG = catalog("refgraph")
P2 = builtin_object(RG, "P2")


def test_category_roundtrip_all_catalog():
    for name in catalog_entries():
        C = catalog(name)
        D = parse_category_text(category_to_text(C))
        assert D.to_raw() == C.to_raw()


def test_sample_category_file_matches_catalog():
    C = parse_category_file("samples/refgraph.cat")
    assert C.to_raw() == RG.to_raw()
    G = parse_category_file("samples/graph.cat")
    assert G.to_raw() == catalog("graph").to_raw()


def test_sample_presheaf_files():
    X = parse_presheaf_file("samples/p2.psh")
    assert X.base.to_raw() == RG.to_raw()
    assert X.sets == P2.sets and X.actions == P2.actions
    A = parse_presheaf_file("samples/a1.psh")
    assert A.base.to_raw() == catalog("graph").to_raw()


def test_presheaf_roundtrip():
    text = presheaf_to_text(P2)
    Y = parse_presheaf_text(text)
    assert Y.sets == P2.sets and Y.actions == P2.actions


def test_constructed_presheaves_roundtrip_up_to_iso():
    # Constructed ids such as "(inl(*)|inr(*))" are reserved in .psh
    # input, so the writer renames every element to <stage><index>.
    X, Y = enumerate_presheaves(RG, 2)[2:4]
    for Z in (pi(Y).quotient, product(X, Y)[0], coproduct(X, Y)[0]):
        text = presheaf_to_text(Z)
        assert "(" in "".join(Z.sets["V"])
        W = parse_presheaf_text(text)
        assert W.sets["V"] == tuple("V%d" % i for i in range(
            len(Z.sets["V"])))
        assert find_iso(W, Z) is not None


def test_generator_only_presheaf_text():
    text = "\n".join([
        "presheaf L",
        "base refgraph",
        "stage V v",
        "stage E l e",
        "action s l v",
        "action s e v",
        "action t l v",
        "action t e v",
        "action sigma v l",
    ])
    L = parse_presheaf_text(text)
    assert L.actions["s∘sigma"] == {"l": "l", "e": "l"}
    from fptopos.presheaf import is_isomorphic
    assert is_isomorphic(L, builtin_object(RG, "L"))


def test_inconsistent_composite_rejected():
    text = "\n".join([
        "presheaf X",
        "base refgraph",
        "stage V v",
        "stage E l",
        "action s l v",
        "action t l v",
        "action sigma v l",
        "action s∘sigma l v",  # wrong codomain element
    ])
    with pytest.raises(ParseError):
        parse_presheaf_text(text)


def test_unknown_morphism_reports_position():
    text = "presheaf X\nbase refgraph\nstage V v\nstage E l\naction zap l v"
    with pytest.raises(ParseError) as exc:
        parse_presheaf_text(text)
    assert exc.value.line == 5


def _discrete_three(vertices, loops):
    lines = ["presheaf D3", "base refgraph",
             "stage V %s" % " ".join(vertices),
             "stage E %s" % " ".join(loops)]
    for v, l in zip(vertices, loops):
        lines += ["action s %s %s" % (l, v), "action t %s %s" % (l, v),
                  "action sigma %s %s" % (v, l)]
    return "\n".join(lines)


def test_reserved_characters_in_element_ids_are_rejected():
    # The discrete three-vertex reflexive graph: DQO holds at it, but with
    # ids that contain ',' the pair ids built by the engine collided and
    # the check died with a misleading NotFunctorial error.
    X = parse_presheaf_text(_discrete_three(["p", "q", "r"],
                                            ["lp", "lq", "lr"]))
    assert check_dqo(X).verdict == "holds"
    text = _discrete_three(["v,v", "v,v,v", "v"], ["lv,v", "lv,v,v", "lv"])
    with pytest.raises(ParseError) as exc:
        parse_presheaf_text(text)
    assert (exc.value.line, exc.value.col) == (3, 9)


def test_resolve_base_accepts_names_and_paths():
    assert resolve_base("refgraph").to_raw() == RG.to_raw()
    assert resolve_base("samples/refgraph.cat").to_raw() == RG.to_raw()
    with pytest.raises(Exception):
        resolve_base("no-such-base")
