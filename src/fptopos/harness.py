"""Corpus-level verification harnesses and counterexample search.

Everything here quantifies a property over a bounded enumeration of
presheaves (and arrows between them) and reports either "no exception
found" or the first witness in deterministic corpus order — which is
stage-size-lexicographically minimal by construction.
"""

from __future__ import annotations

from .corpus import Corpus
from .decidable import (_domain_maps, _factors_all, check_bounded,
                        check_dqo, check_dso, exponential_is_decidable,
                        is_connected, pi, pi_product_failures, pi_sizes,
                        product_components, separated_reflection)
from .errors import SizeCapError, UnknownName, DEFAULT_SIZE_CAP
from .precohesion import BY_CONSTRUCTION, forced_properties
from .presheaf import (NatTrans, Presheaf, arrow_snippet,
                       connected_components, global_elements, homs,
                       inclusion_of, pairing, presheaf_snippet, product,
                       pullback, terminal)
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


def _pneumo(corpus: Corpus, f: NatTrans, pc=None) -> bool:
    """Whether f has pneumoconnected fibers, counted in the corpus stats,
    with P_c of f's domain from `pc` or else from the corpus (memoized
    for a corpus object, computed afresh for any other)."""
    if pc is None:
        pc = corpus.fact(pc_masks, f.dom)
    return has_pneumoconnected_fibers(f, corpus.cap, pc, corpus.stats)


def epi_conditions(q: NatTrans, decidables: list[Presheaf],
                   cap: int = DEFAULT_SIZE_CAP,
                   pc=None) -> tuple[bool, bool, bool]:
    """For an epi q: X↠Y — (i) every X→2 factors through q,
    (ii) q has pneumoconnected fibers, (iii) every map from X to a
    decidable object factors through q."""
    return (_inverts_two(q), has_pneumoconnected_fibers(q, cap, pc),
            _factors_all(q, _domain_maps(q.dom, decidables)))


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


def _epi_witness(q: NatTrans) -> dict:
    return {"dom": presheaf_snippet(q.dom), "cod": presheaf_snippet(q.cod),
            "epi": arrow_snippet(q)}


def _search_lemma(corpus: Corpus) -> dict | None:
    """The first epi between corpus objects at which the three fiber
    conditions disagree.  The epis come grouped by domain, and each
    domain's maps are found at its first and dropped after its last."""
    decidables, dom, maps = corpus.decidables(), None, None
    for q in _corpus_epis(corpus):
        if q.dom is not dom:
            dom, maps = q.dom, _domain_maps(q.dom, decidables, corpus.stats)
        conditions = (_corpus_inverts_two(corpus, q), _pneumo(corpus, q),
                      _factors_all(q, maps))
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
    for X in corpus:
        for Y in corpus:
            points = None  # found at the first arrow X → Y
            for f in homs(X, Y):
                if points is None:
                    points = global_elements(Y)
                if not _pneumo(corpus, f):
                    continue
                for b in points:
                    F = fiber(f, b)
                    if connected_components(F)[1] > 1:
                        return {"dom": presheaf_snippet(X),
                                "cod": presheaf_snippet(Y),
                                "map": arrow_snippet(f),
                                "point": {c: b.apply(c, "*")
                                          for c in corpus.base.objects}}
    return None


def _pneumo_epis(corpus: Corpus):
    """The epis between corpus objects with pneumoconnected fibers, in
    the order of `_corpus_epis`."""
    for f in _corpus_epis(corpus):
        if _pneumo(corpus, f):
            yield f


def _prop_pneumo_product_closed(corpus: Corpus):
    """f, g with pneumoconnected fibers ⇒ f×g has pneumoconnected
    fibers (epis only, to keep the arrow space small)."""
    cap = corpus.cap
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
            if not _pneumo(corpus, fg, pcp):
                return {"left_dom": presheaf_snippet(f.dom),
                        "left_cod": presheaf_snippet(f.cod),
                        "left": arrow_snippet(f),
                        "right_dom": presheaf_snippet(g.dom),
                        "right_cod": presheaf_snippet(g.cod),
                        "right": arrow_snippet(g)}
    return None


def _prop_pneumo_pullback_closed(corpus: Corpus):
    """Any pullback of an epi with pneumoconnected fibers again has
    pneumoconnected fibers."""
    for f in _pneumo_epis(corpus):
        for Z in corpus:
            for g in homs(Z, f.cod):
                _P, pr1, _pr2 = pullback(g, f)
                if not _pneumo(corpus, pr1):
                    return {"arrow_dom": presheaf_snippet(f.dom),
                            "along_dom": presheaf_snippet(Z),
                            "cod": presheaf_snippet(f.cod),
                            "arrow": arrow_snippet(f),
                            "along": arrow_snippet(g)}
    return None


def _prop_separated_reflection_pneumo(corpus: Corpus):
    for X in corpus:
        _M, m = separated_reflection(X, corpus.cap)
        if not _pneumo(corpus, m):
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


# Property name → the corpus walk that decides it, returning the first
# witness or None; None where the property holds by construction.
PROPERTIES = {
    **dict.fromkeys(sorted(BY_CONSTRUCTION)),
    "connected-iff-pi-one": _prop_connected_iff_pi_one,
    "connected-products": _prop_connected_products,
    "pi-products": _prop_pi_products,
    "pneumo-fibers-connected": _prop_pneumo_fibers_connected,
    "pneumo-product-closed": _prop_pneumo_product_closed,
    "pneumo-pullback-closed": _prop_pneumo_pullback_closed,
    "separated-reflection-pneumo": _prop_separated_reflection_pneumo,
    "exponential-ideal": _prop_exponential_ideal,
}


def require_known(names, registry: dict) -> None:
    """Raise UnknownName, listing the registered names, for the first
    name not in the registry."""
    for n in names:
        if n not in registry:
            raise UnknownName("unknown property %r (have: %s)"
                              % (n, ", ".join(sorted(registry))))


def props_report(corpus: Corpus, names: list[str] | None = None,
                 forced=None) -> Result:
    """Run the named property checks (all by default) over the corpus.

    A property that holds by construction, or is in `forced` (by default
    `forced_properties` of the corpus's base), is true without a walk.
    Each other property is true, false (with a witness naming the
    property) or "unknown-at-cap" when its walk hits the size cap; the
    battery fails if any property is false, and is unknown at the cap if
    none is false but one hit the cap."""
    if forced is None:
        forced = forced_properties(corpus.base)
    selected = sorted(PROPERTIES) if names is None else names
    require_known(selected, PROPERTIES)
    _fiber_stats(corpus)
    properties, witnesses = {}, []
    for n in selected:
        if PROPERTIES[n] is None or n in forced:
            properties[n] = True
            continue
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

def _search_pneumo_pi(corpus: Corpus):
    for X in corpus:
        if not _pneumo(corpus, corpus.fact(pi, X).map):
            return {"object": presheaf_snippet(X), "family": "pi-quotient"}
    return None


def _search_pneumo_epis(corpus: Corpus):
    """The first epi inverting every map to 2 (so every X→2 factors
    through it) without pneumoconnected fibers."""
    for q in _corpus_epis(corpus):
        if not _corpus_inverts_two(corpus, q):
            continue  # family: epis inverting all maps to 2
        if not _pneumo(corpus, q):
            return _epi_witness(q)
    return None


# The searches for the first corpus object at which a per-object check
# fails, which are the bounded scan `check_bounded`.
OBJECT_CHECKS = {"dqo-uniqueness": check_dqo, "dso-uniqueness": check_dso}

# Search name → the per-object check, or the corpus walk that returns the
# first witness or None.
SEARCHES = {
    **OBJECT_CHECKS,
    "pneumo-pi-quotients": _search_pneumo_pi,
    "pneumo-separated-reflections": _prop_separated_reflection_pneumo,
    "pneumo-two-inverting-epis": _search_pneumo_epis,
    "pi-product-preservation": _prop_pi_products,
    "lemma-equivalences": _search_lemma,
}


@unknown_at_cap
def search_counterexample(prop: str, corpus: Corpus) -> Result:
    """The first witness violating the registered property, in
    deterministic corpus order (hence stage-size minimal), or "none" if
    the bound is exhausted without one.  A search over a per-object
    check (`OBJECT_CHECKS`) goes on past an object whose check hits the
    size cap, and is unknown at the cap, naming those objects, if it
    finds no witness; a cap hit in any other search makes the whole
    search unknown at the cap."""
    require_known([prop], SEARCHES)
    _fiber_stats(corpus)
    if prop in OBJECT_CHECKS:
        r = check_bounded(corpus, OBJECT_CHECKS[prop])
        if r.verdict == "unknown-at-cap":
            return r
        witness = r.witnesses[0] if r.witnesses else None
    else:
        witness = SEARCHES[prop](corpus)
    return Result("none") if witness is None else Result("witness", [witness])
