"""Everything about dec(E) inside one finite presheaf topos.

Decidability tests, the maps into a decidable object one component at
a time, whether they factor through a map, and the exponential ideal
read from them, the decidable-quotient reflection and the DQO checker,
connectedness, the DSO checker, congruence closure, and the
¬¬-separated reflection.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .errors import SizeCapError, DEFAULT_SIZE_CAP
from .presheaf import (NatTrans, Presheaf, _UnionFind, _cap, arrow_snippet,
                       connected_components, global_elements, homs, is_epi,
                       make_presheaf, pel, presheaf_snippet, product,
                       quotient_by_pairs, sub_presheaf, subfunctors, yoneda)
from .report import Result, unknown_at_cap
from .sublattice import (SIDES, Subobject, is_complemented,
                         is_nn_dense_arrow, two_components)

if TYPE_CHECKING:
    from .corpus import Corpus


# ---------------------------------------------------------------------------
# decidability

def is_decidable(X: Presheaf, cap: int = DEFAULT_SIZE_CAP) -> bool:
    """X is decidable (its diagonal is complemented in Sub(X×X)) iff
    every restriction map of X is injective: the complement of Δ is
    then the pairs of distinct elements, which restriction keeps
    distinct.  The cap is unused, as no object is built."""
    return all(len(set(table.values())) == len(table)
               for m, table in X.actions.items()
               if not X.base.is_identity(m))


def component_maps(X: Presheaf, D: Presheaf, comp) -> list[list[dict]]:
    """The maps into the decidable D from each component of ∫X, numbered
    as in `comp` (from `connected_components`), each as stage → {element:
    value} over its component; Hom(X, D) is their product.  D(m) is
    injective, so a map is fixed by its value at the component's first
    element, propagated forwards along D(m) and back along D(m)⁻¹."""
    C = X.base
    near = {c: {x: [] for x in X.sets[c]} for c in C.objects}
    for m in C.nonidentity_morphisms():
        d, c = C.morphisms[m]
        back = {v: u for u, v in D.actions[m].items()}
        for x, u in X.actions[m].items():
            near[c][x].append((d, u, D.actions[m].get))
            near[d][u].append((c, x, back.get))
    roots = {}
    for c, x in X.elements():
        roots.setdefault(comp[c][x], (c, x))
    factors = []
    for c0, x0 in roots.values():
        maps = []
        for y0 in D.sets[c0]:
            f = {c: {} for c in C.objects}
            f[c0][x0] = y0
            stack, ok = [(c0, x0, y0)], True
            while stack and ok:
                c, x, v = stack.pop()
                for d, u, step in near[c][x]:
                    w, old = step(v), f[d].get(u)
                    if w is None or old not in (None, w):
                        ok = False
                        break
                    if old is None:
                        f[d][u] = w
                        stack.append((d, u, w))
            if ok:
                maps.append(f)
        factors.append(maps)
    return factors


def _domain_maps(X: Presheaf, decidables: list[Presheaf],
                 stats: dict | None = None) -> tuple:
    """The components of ∫X, and for each decidable D with a map X → D
    the maps into D from each component (`component_maps`): Hom(X, D)
    is their product, and empty if one of them is."""
    if stats is not None:
        stats["domain_hom_sets"] += len(decidables)
    comp, _k = connected_components(X)
    factors = (component_maps(X, D, comp) for D in decidables)
    return comp, [maps for maps in factors if all(maps)]


def _constant_on_fibers(fibers: dict, domain_maps: tuple) -> bool:
    """Whether every map from X to a decidable is constant on each fiber
    of the table `fibers` (stage → {element of X: fiber}), given X's maps
    (`_domain_maps`).  A map is a choice per component, so on a fiber
    pair (x, x0) in one component every choice must agree, and across
    two components both value sets must be one and the same value."""
    comp, factors = domain_maps
    for c, table in fibers.items():
        first = {}
        for x, y in table.items():
            x0 = first.setdefault(y, x)
            i, j = comp[c][x], comp[c][x0]
            for maps in factors:
                if i == j:
                    if any(f[c][x] != f[c][x0] for f in maps[i]):
                        return False
                    continue
                values = {f[c][x] for f in maps[i]}
                if len(values) > 1 or values != {f[c][x0] for f in maps[j]}:
                    return False
    return True


def _factors_all(q: NatTrans, domain_maps: tuple) -> bool:
    """Whether every map from q's domain to a decidable factors through
    q, given the domain's maps: q is epi and each map is constant on q's
    fibers; true when there are no maps."""
    return not domain_maps[1] or (
        is_epi(q) and _constant_on_fibers(q.components, domain_maps))


def exponential_is_decidable(X: Presheaf, Y: Presheaf,
                             cap: int = DEFAULT_SIZE_CAP) -> bool:
    """Whether Y^X is decidable, for decidable Y, without building it.
    Y^X(c) = Hom(y(c)×X, Y) is the product over the components of
    ∫(y(c)×X) of their maps into Y, and Y^X(m) for m: b → c restricts
    along y(m)×X, which fixes a map on each component meeting its image
    (the elements (m∘g, x)).  So Y^X(m) is injective iff Hom(y(c)×X, Y)
    is empty or each component missing the image has at most one map."""
    C = X.base
    # c -> (components of y(c)×X, those with 2+ maps into Y; none if a
    # component has no map, as Hom(y(c)×X, Y) is then empty)
    stages = {}
    for c in C.objects:
        B, _p1, _p2 = product(yoneda(C, c), X, cap)
        comp, _k = connected_components(B)
        counts = [len(maps) for maps in component_maps(B, Y, comp)]
        free = {i for i, n in enumerate(counts) if n > 1}
        stages[c] = comp, free if all(counts) else set()
    for m in C.nonidentity_morphisms():
        b, c = C.morphisms[m]
        comp, free = stages[c]
        hit = {comp[d][pel(C.compose(m, g), x)] for d in C.objects
               for g in C.hom(d, b) for x in X.sets[d]}
        if free - hit:
            return False
    return True


# ---------------------------------------------------------------------------
# the decidable-quotient reflection Π

class PiResult:
    def __init__(self, source: Presheaf, quotient: Presheaf, map: NatTrans):
        self.source = source
        self.quotient = quotient
        self.map = map


def pi(X: Presheaf, cap: int = DEFAULT_SIZE_CAP) -> PiResult:
    """The decidable quotient Π(X), the image of X → 2^Hom(X,2): stage c
    holds the components of ∫X meeting X(c), restricted identically.  An
    id lists the component's sides under the maps X → 2 sorted by key,
    components ranked in element-name order, as Sub_c lists its parts."""
    C = X.base
    comp, k = two_components(X, cap)
    rank = {}
    for c in C.objects:
        for x in sorted(X.sets[c]):
            rank.setdefault(comp[c][x], len(rank))
    ids = {i: "(%s)" % "|".join(SIDES[(j >> (k - 1 - r)) & 1]
                                for j in range(2 ** k))
           for i, r in rank.items()}
    tuples = {c: {x: ids[i] for x, i in comp[c].items()} for c in C.objects}
    sets = {c: tuple(dict.fromkeys(tuples[c].values())) for c in C.objects}
    actions = {m: {t: t for t in sets[C.cod(m)]}
               for m in C.nonidentity_morphisms()}
    Q = make_presheaf(C, sets, actions, "Π(%s)" % (X.name or "X"))
    return PiResult(X, Q, NatTrans(X, Q, tuples, "p"))


def pi_sizes(X: Presheaf, comp: dict | None = None) -> tuple[int, ...]:
    """The stage sizes of ΠX, without building it: the number of
    components of ∫X meeting each X(c), read off X's component table
    (`connected_components`) if one is given."""
    if comp is None:
        comp, _k = connected_components(X)
    return tuple(len(set(comp[c].values())) for c in X.base.objects)


def product_components(X: Presheaf, Y: Presheaf, cap: int = DEFAULT_SIZE_CAP
                       ) -> tuple[tuple[int, ...], int]:
    """The stage sizes of Π(X×Y) and the number of components of
    ∫(X×Y), without building X×Y: a union-find over the triples
    (c, x, y), joined along (x, y) ~ (x·m, y·m)."""
    C = X.base
    for c in C.objects:
        _cap(len(X.sets[c]) * len(Y.sets[c]), cap, "product")
    uf = _UnionFind([(c, x, y) for c in C.objects
                     for x in X.sets[c] for y in Y.sets[c]])
    for m in C.nonidentity_morphisms():
        d, c = C.morphisms[m]
        xm, ym = X.actions[m], Y.actions[m]
        for x in X.sets[c]:
            for y in Y.sets[c]:
                uf.union((c, x, y), (d, xm[x], ym[y]))
    roots = [{uf.find((c, x, y)) for x in X.sets[c] for y in Y.sets[c]}
             for c in C.objects]
    return tuple(map(len, roots)), len(set().union(*roots))


def pi_product_failures(corpus: Corpus) -> Iterator[tuple]:
    """The pairs (X, Y) of corpus objects at which Π does not preserve
    the product, Π(X×Y) ≇ ΠX × ΠY, in corpus order.  The comparison map
    is onto at every stage, so it is an iso iff the stage sizes agree."""
    cap = corpus.cap
    sizes = [pi_sizes(X) for X in corpus]
    for X, a in zip(corpus, sizes):
        for Y, b in zip(corpus, sizes):
            if product_components(X, Y, cap)[0] != \
                    tuple(i * j for i, j in zip(a, b)):
                yield X, Y


def is_connected(X: Presheaf) -> bool:
    """Exactly two complemented subobjects (0 and X), that is, ∫X has
    exactly one component."""
    return connected_components(X)[1] == 1


# ---------------------------------------------------------------------------
# congruences and quotients


def _is_equivalence(X: Presheaf, parts) -> bool:
    for c in X.base.objects:
        rel = {(x, y) for x in X.sets[c] for y in X.sets[c]
               if pel(x, y) in parts[c]}
        for x in X.sets[c]:
            if (x, x) not in rel:
                return False
        for (x, y) in rel:
            if (y, x) not in rel:
                return False
        for (x, y) in rel:
            for (y2, z) in rel:
                if y2 == y and (x, z) not in rel:
                    return False
    return True


# ---------------------------------------------------------------------------
# DQO

def _congruence_closure(X: Presheaf) -> _UnionFind:
    """R₀, the least equivalence closed under x R x′ ⇒ x·m R x′·m and its
    converse, by congruence closure (Downey, Sethi & Tarjan 1980)."""
    C = X.base
    uf = _UnionFind(list(X.elements()))
    changed = True
    while changed:
        changed = False
        for m in C.nonidentity_morphisms():
            d, c = C.morphisms[m]
            # The first element of each class, at either end of m.
            up, down = {}, {}
            for x, y in X.actions[m].items():
                a, b = (c, x), (d, y)
                changed |= uf.union(up.setdefault(uf.find(a), b), b)
                changed |= uf.union(down.setdefault(uf.find(b), a), a)
    return uf


def _reflects(X: Presheaf, parts) -> bool:
    """Whether the congruence R ↣ X×X with these parts reflects,
    x·m R y·m ⇒ x R y: the restrictions of X/R, [x] ↦ [x·m], are then
    injective, so X/R is decidable."""
    C = X.base
    for m in C.nonidentity_morphisms():
        d, c = C.morphisms[m]
        for x in X.sets[c]:
            for y in X.sets[c]:
                if (pel(X.act(m, x), X.act(m, y)) in parts[d]
                        and pel(x, y) not in parts[c]):
                    return False
    return True


def check_dqo(X: Presheaf, cap: int = DEFAULT_SIZE_CAP) -> Result:
    """DQO at X: one congruence R has a decidable quotient (R reflects)
    factoring every X → 2 (R ⊆ K, "same component of ∫X").  These are
    the closed R between R₀ and K, so DQO holds iff R₀ = K; a failing
    report lists them from the subfunctors of X×X between the two."""
    C = X.base
    comp, _k = connected_components(X)
    least = _congruence_closure(X)
    if all(len({least.find((c, x)) for x in X.sets[c]})
           == len(set(comp[c].values())) for c in C.objects):
        return Result("holds")
    P, _p1, _p2 = product(X, X, cap)
    pair = {(c, pel(x, y)): (c, x, y) for c in C.objects
            for x in X.sets[c] for y in X.sets[c]}
    r0 = frozenset(e for e, (c, x, y) in pair.items()
                   if least.find((c, x)) == least.find((c, y)))

    def in_k(R):
        return all(comp[c][x] == comp[c][y] for c, x, y in map(pair.get, R))
    found = [R for R in subfunctors(P, cap, r0, in_k)
             if _is_equivalence(X, R) and _reflects(X, R)]
    return Result("fails", [{
        "object": presheaf_snippet(X),
        "factoring_congruences": [{c: sorted(R[c]) for c in C.objects}
                                  for R in found]}])


def first_failure(corpus: Corpus, check,
                  capped: list | None = None) -> Result | None:
    """The result of the first corpus object at which the per-object
    axiom check fails, or None if it holds throughout.  Given a list
    `capped`, an object whose check hits the size cap is appended to it
    and the scan goes on; otherwise the SizeCapError propagates."""
    for X in corpus:
        try:
            result = corpus.fact(check, X)
        except SizeCapError:
            if capped is None:
                raise
            capped.append(X)
            continue
        if not result.holds():
            return result
    return None


def _check_bounded(corpus: Corpus, check) -> Result:
    """Fails at the first failing object; otherwise unknown at the cap
    if the check hit the size cap at some object, else holds at the
    bound.  The objects at the cap are named in `details["capped"]`."""
    capped = []
    failure = first_failure(corpus, check, capped)
    r = (Result("fails", failure.witnesses) if failure is not None else
         Result("unknown-at-cap") if capped else Result("holds-at-bound"))
    if capped:
        r.details["capped"] = [X.name for X in capped]
    return r


def check_dqo_bounded(corpus: Corpus) -> Result:
    """DQO over all presheaves up to iso within the bounds."""
    return _check_bounded(corpus, check_dqo)


# ---------------------------------------------------------------------------
# DSO

def check_dso(X: Presheaf, cap: int = DEFAULT_SIZE_CAP) -> Result:
    """DSO at X: a unique decidable subobject through which every global
    point of X factors.

    Such a subobject contains G, the union of the points' values, and
    the subfunctors of a decidable object are decidable.  So DSO holds
    iff G is decidable and no x ∉ G leaves G ∪ ⟨x⟩ decidable, and the
    subobject is then G.  The subfunctor search above G drops each part
    that is not decidable, so it tries each x ∉ G once when DSO holds."""
    def decidable(part):  # of (stage, element) pairs
        return is_decidable(sub_presheaf(X, {c: {x for b, x in part if b == c}
                                             for c in X.base.objects}))
    G = frozenset((c, p.apply(c, "*")) for p in global_elements(X)
                  for c in X.base.objects)
    candidates = subfunctors(X, cap, G, decidable) if decidable(G) else []
    if len(candidates) == 1:
        return Result("holds", [{
            "object": presheaf_snippet(X),
            "subobject": {c: sorted(candidates[0][c])
                          for c in X.base.objects}}])
    return Result("fails", [{
        "object": presheaf_snippet(X),
        "decidable_subobjects": [{c: sorted(p[c]) for c in X.base.objects}
                                 for p in candidates]}])


def check_dso_bounded(corpus: Corpus) -> Result:
    """DSO over all presheaves up to iso within the bounds."""
    return _check_bounded(corpus, check_dso)


# ---------------------------------------------------------------------------
# ¬¬-separated reflection

def _nn_equal(X: Presheaf) -> dict[str, list[tuple[str, str]]]:
    """The pairs (x, y) of each stage c that are ¬¬-equal, the
    ¬¬-closure of the diagonal: every m into c has an n into dom m with
    x·(m∘n) = y·(m∘n).  Pairs come x-major in stage order."""
    C = X.base
    pairs = {}
    for c in C.objects:
        # One group of composites m∘n per m into c, found once per stage.
        groups = {frozenset(C.compose(m, n) for n in C.arrows_into(C.dom(m)))
                  for m in C.arrows_into(c)}
        pairs[c] = [(x, y) for x in X.sets[c] for y in X.sets[c]
                    if all(any(X.act(k, x) == X.act(k, y) for k in g)
                           for g in groups)]
    return pairs


def separated_reflection(X: Presheaf, cap: int = DEFAULT_SIZE_CAP):
    """Quotient of X by ¬¬-equality; the map is the separated
    reflection.  The cap is unused, as no product is built."""
    M, m = quotient_by_pairs(X, _nn_equal(X))
    # Separated: ¬¬-equality is ¬¬-closed, so ¬¬-equal classes are equal.
    M.name = "M(%s)" % (X.name or "X")
    return M, m


# ---------------------------------------------------------------------------
# dec(E) is a topos (both sides of the criterion)

@unknown_at_cap
def dec_is_topos_check(corpus: Corpus) -> Result:
    """Compare, over the corpus: (left) every mono between decidable
    objects is complemented; (right) Π(f) is epic for every ¬¬-dense
    corpus arrow f: X → Y.  Π(f) ∘ p_X = p_Y ∘ f and p_X is onto, so
    Π(f) is epic iff p_Y ∘ f is.  The verdict is whether the two sides
    agree."""
    C, cap = corpus.base, corpus.cap
    left = True
    left_witness = None
    for X in corpus.decidables():
        for parts in subfunctors(X, cap):
            if not is_complemented(Subobject(X, parts)):
                left = False
                left_witness = {"object": presheaf_snippet(X),
                                "subobject": {c: sorted(parts[c])
                                              for c in C.objects}}
                break
        if not left:
            break

    right = True
    right_witness = None
    for X in corpus:
        for Y in corpus:
            for f in homs(X, Y):
                if not is_nn_dense_arrow(f):
                    continue
                if not is_epi(f.then(corpus.fact(pi, Y).map)):
                    right = False
                    right_witness = {"dom": presheaf_snippet(X),
                                     "cod": presheaf_snippet(Y),
                                     "arrow": arrow_snippet(f)}
                    break
            if not right:
                break
        if not right:
            break

    witnesses = []
    if left_witness:
        witnesses.append({"non_complemented_mono": left_witness})
    if right_witness:
        witnesses.append({"dense_arrow_with_nonepic_pi": right_witness})
    return Result("agree" if left == right else "disagree", witnesses,
                  {"monos_complemented": left, "pi_epic_on_dense": right})
