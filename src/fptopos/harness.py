"""Corpus-level verification harnesses and counterexample search.

Everything here quantifies a property over a bounded enumeration of
presheaves (and arrows between them) and reports either "no exception
found" or the first witness in deterministic corpus order — which is
stage-size-lexicographically minimal by construction.
"""

from __future__ import annotations

from functools import partial

from .corpus import Corpus
from .decidable import (_domain_maps, _factors_all, check_dqo, check_dso,
                        exponential_is_decidable, first_failure, is_connected,
                        pi, pi_product_failures, pi_sizes, presheaf_snippet,
                        product_components, separated_reflection)
from .errors import SizeCapError, UnknownName, DEFAULT_SIZE_CAP
from .presheaf import (NatTrans, Presheaf, connected_components,
                       global_elements, homs, inclusion_of, pairing,
                       product, pullback, terminal)
from .report import Result, unknown_at_cap
from .sublattice import has_pneumoconnected_fibers, pc_masks


# ---------------------------------------------------------------------------
# fibers

def fiber(f: NatTrans, point: NatTrans) -> Presheaf:
    """The fiber of f: X→Y over a global point b: 1→Y, as the
    subpresheaf of X of elements mapped onto the restriction of b."""
    X = f.dom
    parts = {c: frozenset(x for x in X.sets[c]
                          if f.apply(c, x) == point.apply(c, "*"))
             for c in X.base.objects}
    F, _inc = inclusion_of(X, parts)
    return F


# ---------------------------------------------------------------------------
# the three equivalent fiber conditions

# What the fiber conditions searched, kept on Corpus.stats: epis whose
# conditions were checked, (stage, y, w) triples decided by the fiber
# check, and hom-sets Hom(X, D) computed out of a domain X.
FIBER_COUNTS = ("epis_checked", "fiber_checks", "domain_hom_sets")


def _fiber_stats(corpus: Corpus) -> dict:
    """corpus.stats, with the fiber-condition counts started at 0."""
    for key in FIBER_COUNTS:
        corpus.stats.setdefault(key, 0)
    return corpus.stats


def _component_count(X: Presheaf, cap: int = DEFAULT_SIZE_CAP) -> int:
    """The number of components of ∫X; the cap is unused."""
    return connected_components(X)[1]


def _inverts_two(q: NatTrans) -> bool:
    """Whether every map X → 2 factors through the epi q: X ↠ Y.  As 2
    is constant and π₀ ⊣ Δ, a map X → 2 is a side per component, so
    this holds iff π₀(q), which is onto, is injective: X and Y have
    equally many components."""
    return connected_components(q.dom)[1] == connected_components(q.cod)[1]


def _corpus_inverts_two(corpus: Corpus, q: NatTrans) -> bool:
    """`_inverts_two` for an epi between corpus objects, with each
    object's components counted once per corpus."""
    return (corpus.fact(_component_count, q.dom)
            == corpus.fact(_component_count, q.cod))


def _conditions(inverts_two: bool, q: NatTrans, maps: tuple, cap: int, pc,
                stats: dict | None = None) -> tuple[bool, bool, bool]:
    """The three fiber conditions of the epi q, given whether it inverts
    every map to 2 and its domain's maps."""
    return (inverts_two,
            has_pneumoconnected_fibers(q, cap, pc, stats),
            _factors_all(q, maps))


def epi_conditions(q: NatTrans, decidables: list[Presheaf],
                   cap: int = DEFAULT_SIZE_CAP,
                   pc=None) -> tuple[bool, bool, bool]:
    """For an epi q: X↠Y — (i) every X→2 factors through q,
    (ii) q has pneumoconnected fibers, (iii) every map from X to a
    decidable object factors through q."""
    return _conditions(_inverts_two(q), q, _domain_maps(q.dom, decidables),
                       cap, pc)


def _corpus_epis(corpus: Corpus):
    """The epis q: X ↠ Y between corpus objects, in corpus order of
    domain, then codomain, then hom-search order, each counted in
    `epis_checked`."""
    stats = _fiber_stats(corpus)
    for X in corpus:
        for Y in corpus:
            for q in homs(X, Y, epi=True):
                stats["epis_checked"] += 1
                yield q


def _components(f: NatTrans) -> dict:
    """Serializable witness form of an arrow: stage → {element: value}."""
    return {c: dict(f.components[c]) for c in f.dom.base.objects}


def _epi_witness(q: NatTrans) -> dict:
    return {"dom": presheaf_snippet(q.dom), "cod": presheaf_snippet(q.cod),
            "epi": _components(q)}


def _search_lemma(corpus: Corpus) -> dict | None:
    """The first epi between corpus objects at which the three fiber
    conditions disagree.  The epis come grouped by domain, and each
    domain's maps are found at its first and dropped after its last."""
    decidables, dom, maps = corpus.decidables(), None, None
    for q in _corpus_epis(corpus):
        if q.dom is not dom:
            dom, maps = q.dom, _domain_maps(q.dom, decidables, corpus.stats)
        conditions = _conditions(_corpus_inverts_two(corpus, q), q, maps,
                                 corpus.cap,
                                 corpus.fact(pc_masks, q.dom),
                                 corpus.stats)
        if len(set(conditions)) > 1:
            return {**_epi_witness(q), "conditions": list(conditions)}
    return None


@unknown_at_cap
def lemma_report(corpus: Corpus) -> Result:
    """Check that the three fiber conditions agree for every epi between
    corpus objects."""
    witness = _search_lemma(corpus)
    return Result("holds" if witness is None else "fails",
                  [] if witness is None else [witness],
                  {"pairs_checked": len(corpus) ** 2})


# ---------------------------------------------------------------------------
# the standard property battery

def _by_construction(corpus: Corpus):
    """A property that holds on every corpus: no witness."""
    return None


def _prop_connected_iff_pi_one(corpus: Corpus):
    one = terminal(corpus.base).size_vector()
    for X in corpus:
        comp, k = connected_components(X)
        lhs = k == 1
        rhs = pi_sizes(X, comp) == one
        if lhs != rhs:
            return {"object": presheaf_snippet(X),
                    "connected": lhs, "pi_terminal": rhs}
    return None


def _prop_connected_products(corpus: Corpus):
    cap = corpus.cap
    connected = [X for X in corpus if is_connected(X)]
    for X in connected:
        for Y in connected:
            if product_components(X, Y, cap)[1] != 1:
                return {"left": presheaf_snippet(X),
                        "right": presheaf_snippet(Y)}
    return None


def _prop_pi_products(corpus: Corpus):
    for X, Y in pi_product_failures(corpus):
        return {"left": presheaf_snippet(X), "right": presheaf_snippet(Y)}
    return None


def _prop_pneumo_fibers_connected(corpus: Corpus):
    """If f has pneumoconnected fibers then no fiber over a global point
    has a nontrivial complemented subobject: more than one component."""
    cap, stats = corpus.cap, _fiber_stats(corpus)
    for X in corpus:
        for Y in corpus:
            points = None  # found at the first arrow X → Y
            for f in homs(X, Y):
                if points is None:
                    points = global_elements(Y)
                if not has_pneumoconnected_fibers(
                        f, cap, corpus.fact(pc_masks, X), stats):
                    continue
                for b in points:
                    F = fiber(f, b)
                    if connected_components(F)[1] > 1:
                        return {"dom": presheaf_snippet(X),
                                "cod": presheaf_snippet(Y),
                                "map": _components(f),
                                "point": {c: b.apply(c, "*")
                                          for c in corpus.base.objects}}
    return None


def _pneumo_epis(corpus: Corpus):
    """The epis between corpus objects with pneumoconnected fibers, in
    the order of `_corpus_epis`."""
    for f in _corpus_epis(corpus):
        if has_pneumoconnected_fibers(f, corpus.cap,
                                      corpus.fact(pc_masks, f.dom),
                                      corpus.stats):
            yield f


def _prop_pneumo_product_closed(corpus: Corpus):
    """f, g with pneumoconnected fibers ⇒ f×g has pneumoconnected
    fibers (epis only, to keep the arrow space small)."""
    cap, stats = corpus.cap, _fiber_stats(corpus)
    epis = list(_pneumo_epis(corpus))
    # Each product of two domains, with its P_c, is built once.
    dom_products = {}
    for f in epis:
        for g in epis:
            key = (f.dom, g.dom)
            if key not in dom_products:
                P, p1, p2 = product(f.dom, g.dom, cap)
                dom_products[key] = (p1, p2, pc_masks(P, cap))
            p1, p2, pcp = dom_products[key]
            Q, _q1, _q2 = product(f.cod, g.cod, cap)
            fg = pairing(p1.then(f), p2.then(g), Q)
            if not has_pneumoconnected_fibers(fg, cap, pcp, stats):
                return {"left_dom": presheaf_snippet(f.dom),
                        "left_cod": presheaf_snippet(f.cod),
                        "left": _components(f),
                        "right_dom": presheaf_snippet(g.dom),
                        "right_cod": presheaf_snippet(g.cod),
                        "right": _components(g)}
    return None


def _prop_pneumo_pullback_closed(corpus: Corpus):
    """Any pullback of an epi with pneumoconnected fibers again has
    pneumoconnected fibers."""
    cap, stats = corpus.cap, _fiber_stats(corpus)
    for f in _pneumo_epis(corpus):
        for Z in corpus:
            for g in homs(Z, f.cod):
                _P, pr1, _pr2 = pullback(g, f)
                if not has_pneumoconnected_fibers(pr1, cap, stats=stats):
                    return {"arrow_dom": presheaf_snippet(f.dom),
                            "along_dom": presheaf_snippet(Z),
                            "cod": presheaf_snippet(f.cod),
                            "arrow": _components(f),
                            "along": _components(g)}
    return None


def _prop_separated_reflection_pneumo(corpus: Corpus):
    stats = _fiber_stats(corpus)
    for X in corpus:
        _M, m = separated_reflection(X, corpus.cap)
        if not has_pneumoconnected_fibers(
                m, corpus.cap, corpus.fact(pc_masks, X), stats):
            return {"object": presheaf_snippet(X)}
    return None


def _prop_exponential_ideal(corpus: Corpus):
    cap = corpus.cap
    decidables = corpus.decidables()
    for X in corpus:
        for Y in decidables:
            if not exponential_is_decidable(X, Y, cap):
                return {"exponent": presheaf_snippet(X),
                        "base_object": presheaf_snippet(Y)}
    return None


PROPERTIES = {
    # Π restricts identically, so ΠQ ≅ Q for Q = ΠX, and ΠX(c) holds
    # the components meeting X(c), so ΠX ≅ 0 iff X ≅ 0.
    "pi-structure": _by_construction,
    "connected-iff-pi-one": _prop_connected_iff_pi_one,
    "connected-products": _prop_connected_products,
    "pi-products": _prop_pi_products,
    "pneumo-fibers-connected": _prop_pneumo_fibers_connected,
    "pneumo-product-closed": _prop_pneumo_product_closed,
    "pneumo-pullback-closed": _prop_pneumo_pullback_closed,
    "separated-reflection-pneumo": _prop_separated_reflection_pneumo,
    "exponential-ideal": _prop_exponential_ideal,
    # Decidable means injective restrictions, and restricting to a
    # subobject or pairing keeps injective maps injective.
    "decidable-closure": _by_construction,
}


def props_report(corpus: Corpus, names: list[str] | None = None) -> Result:
    """Run the named property checks (all by default) over the corpus.

    Each property is true, false (with a witness naming the property) or
    "unknown-at-cap" when its check hits the size cap; the battery
    fails if any property is false, and is unknown at the cap if none is
    false but one hit the cap."""
    selected = names if names is not None else sorted(PROPERTIES)
    for n in selected:
        if n not in PROPERTIES:
            raise UnknownName("unknown property %r (have: %s)"
                              % (n, ", ".join(sorted(PROPERTIES))))
    _fiber_stats(corpus)
    properties, witnesses = {}, []
    for n in selected:
        try:
            witness = PROPERTIES[n](corpus)
        except SizeCapError:
            properties[n] = "unknown-at-cap"
            continue
        properties[n] = witness is None
        if witness is not None:
            witnesses.append({"property": n, **witness})
    values = list(properties.values())
    verdict = ("fails" if False in values else
               "unknown-at-cap" if "unknown-at-cap" in values else "holds")
    return Result(verdict, witnesses, {"properties": properties})


# ---------------------------------------------------------------------------
# counterexample search

def _first_witness(check, corpus: Corpus, capped: list | None = None):
    """The witness of the first corpus object at which the per-object
    check fails, or None; `capped` as in `first_failure`."""
    failure = first_failure(corpus, check, capped)
    return None if failure is None else failure.witnesses[0]


def _search_pneumo_pi(corpus: Corpus):
    stats = _fiber_stats(corpus)
    for X in corpus:
        r = corpus.fact(pi, X)
        if not has_pneumoconnected_fibers(
                r.map, corpus.cap, corpus.fact(pc_masks, X), stats):
            return {"object": presheaf_snippet(X), "family": "pi-quotient"}
    return None


def _search_pneumo_epis(corpus: Corpus):
    """The first epi inverting every map to 2 (so every X→2 factors
    through it) without pneumoconnected fibers."""
    for q in _corpus_epis(corpus):
        if not _corpus_inverts_two(corpus, q):
            continue  # family: epis inverting all maps to 2
        if not has_pneumoconnected_fibers(
                q, corpus.cap, corpus.fact(pc_masks, q.dom), corpus.stats):
            return _epi_witness(q)
    return None


# The searches for the first corpus object at which a per-object check
# fails, which can go on past an object at the size cap.
OBJECT_CHECKS = {"dqo-uniqueness": check_dqo, "dso-uniqueness": check_dso}

SEARCHES = {
    **{prop: partial(_first_witness, check)
       for prop, check in OBJECT_CHECKS.items()},
    "pneumo-pi-quotients": _search_pneumo_pi,
    "pneumo-separated-reflections": _prop_separated_reflection_pneumo,
    "pneumo-two-inverting-epis": _search_pneumo_epis,
    "pi-product-preservation": _prop_pi_products,
    "lemma-equivalences": _search_lemma,
}


def search_counterexample(prop: str, corpus: Corpus,
                          capped: list | None = None) -> dict | None:
    """First witness violating the registered property, in deterministic
    corpus order (hence stage-size minimal); None if the bound is
    exhausted without one.  Given a list `capped`, a search over a
    per-object check (`OBJECT_CHECKS`) appends each object whose check
    hits the size cap to it and goes on; otherwise a cap hit raises
    SizeCapError."""
    if prop not in SEARCHES:
        raise UnknownName("unknown property %r (have: %s)"
                          % (prop, ", ".join(sorted(SEARCHES))))
    _fiber_stats(corpus)
    if prop in OBJECT_CHECKS:
        return SEARCHES[prop](corpus, capped)
    return SEARCHES[prop](corpus)
