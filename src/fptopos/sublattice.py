"""Complemented and ¬¬-dense parts of a presheaf, and pneumoconnected
fibers.

Subobjects are canonicalized as subfunctors (stage-wise part sets), so
equality inside one ambient presheaf is structural.  ¬¬ is the dense
topology of a presheaf topos: ¬S holds the elements none of whose
restrictions lie in S, so whether S is complemented or ¬¬-dense is read
off the restriction tables, with no Heyting operation built.
Complemented parts are read off the components of the category of
elements, and so is the object of complemented parts P_c(X) that the
fiber condition of an arrow quantifies over.
"""

from __future__ import annotations

from .errors import SizeCapError, DEFAULT_SIZE_CAP
from .presheaf import (NatTrans, Presheaf, _UnionFind, _cap,
                       connected_components)
from .report import Countermodel


class Subobject:
    """A subfunctor of an ambient presheaf."""

    def __init__(self, ambient: Presheaf, parts: dict[str, frozenset]):
        self.ambient = ambient
        self.parts = parts

    def __eq__(self, other):
        return (isinstance(other, Subobject)
                and self.ambient is other.ambient
                and self.parts == other.parts)

    def __hash__(self):
        return hash(tuple((c, tuple(sorted(self.parts[c])))
                          for c in self.ambient.base.objects))

    def contains(self, c: str, x: str) -> bool:
        return x in self.parts[c]

    def __repr__(self):
        body = "; ".join("%s:{%s}" % (c, ",".join(sorted(self.parts[c])))
                         for c in self.ambient.base.objects)
        return "<Sub %s>" % body


def _meets(S: Subobject, c: str, x: str) -> bool:
    """Whether some restriction x·m of x ∈ X(c) lies in S."""
    X = S.ambient
    dom = X.base.dom
    return any(X.act(m, x) in S.parts[dom(m)]
               for m in X.base.arrows_into(c))


def is_complemented(S: Subobject) -> bool:
    """S ∨ ¬S = X.  ¬S holds the elements with no restriction in S, and
    S is closed under restriction, so this holds iff no element outside
    S has a restriction in S."""
    X = S.ambient
    return not any(_meets(S, c, x) for c in X.base.objects
                   for x in X.sets[c] if x not in S.parts[c])


def is_nn_dense(S: Subobject) -> bool:
    """¬¬S = X iff ¬S = 0: every element has a restriction in S."""
    X = S.ambient
    return all(_meets(S, c, x) for c in X.base.objects for x in X.sets[c])


def is_nn_dense_arrow(f: NatTrans) -> bool:
    """An arrow is ¬¬-dense iff the ¬¬-closure of its image is the whole
    codomain."""
    img = Subobject(f.cod, {c: frozenset(f.components[c].values())
                            for c in f.cod.base.objects})
    return is_nn_dense(img)


# The elements of 2 = 1+1 at every stage, as `two` names them.
SIDES = ("inl(*)", "inr(*)")


def two_components(X: Presheaf, cap: int = DEFAULT_SIZE_CAP):
    """`connected_components(X)` if the 2^k maps X → 2 are within the cap:
    2 is constant and π₀ ⊣ Δ, so such a map is a side per component."""
    comp, k = connected_components(X)
    _two_cap(k, cap)
    return comp, k


def _two_cap(k: int, cap: int):
    if 2 ** k > cap:
        raise SizeCapError("Hom(X,2) has %d elements (cap %d)"
                           % (2 ** k, cap))


def complemented_subobjects(X: Presheaf,
                            cap: int = DEFAULT_SIZE_CAP) -> list[Subobject]:
    """Sub_c(X): the preimages of inl(*) under the 2^k maps X → 2 = 1+1,
    one per set of components of ∫X, ordered by their sorted stage
    parts; raises SizeCapError above cap.  The j-th part holds component
    i iff bit k-1-i of j is 0."""
    C = X.base
    comp, k = two_components(X, cap)
    subs = [Subobject(X, {c: frozenset(x for x, i in comp[c].items()
                                       if not j >> (k - 1 - i) & 1)
                          for c in C.objects})
            for j in range(2 ** k)]
    subs.sort(key=lambda S: tuple(tuple(sorted(S.parts[c]))
                                  for c in C.objects))
    return subs


# ---------------------------------------------------------------------------
# the complemented-parts object P_c(X) on component masks

class PcMasks:
    """P_c(X): stage c holds the maps X×y(c) → 2, one side per component
    of X×y(c), each a mask w with bit i set when component i lies in the
    complemented part.  `comp[c]` numbers the component of each element
    (x, g) of X×y(c), g: d→c, listed stage by stage and each stage
    sorted, which is the order the part's name lists them in; `masks[c]`
    lists the masks in the order of their names."""

    def __init__(self, of: Presheaf,
                 comp: dict[str, dict[tuple[str, str], int]],
                 masks: dict[str, list[int]]):
        self.of = of
        self.comp = comp
        self.masks = masks

    def name(self, c: str, w: int) -> str:
        """The id of w, as P(X) names a relation: "{d:x:g;…}" over the
        elements (x, g) of w's part in the order of `comp[c]`."""
        dom = self.of.base.dom
        return "{%s}" % ";".join("%s:%s:%s" % (dom(g), x, g)
                                 for (x, g), i in self.comp[c].items()
                                 if w >> i & 1)


def pc_masks(X: Presheaf, cap: int = DEFAULT_SIZE_CAP) -> PcMasks:
    """P_c(X) from the components of each X×y(c), joined along every
    restriction (x, g) ↦ (x·n, g∘n).  Raises SizeCapError, stage by
    stage, where X×y(c) has more than `cap` elements at one stage or
    more than `cap` maps to 2."""
    C = X.base
    pc = PcMasks(X, {}, {})
    for c in C.objects:
        for d in C.objects:
            _cap(len(X.sets[d]) * len(C.hom(d, c)), cap, "product")
        elems = [(x, g) for d in C.objects
                 for x, g in sorted((x, g) for x in X.sets[d]
                                    for g in C.hom(d, c))]
        uf = _UnionFind(elems)
        for n in C.nonidentity_morphisms():
            d = C.cod(n)
            for g in C.hom(d, c):
                gn = C.compose(g, n)
                for x in X.sets[d]:
                    uf.union((x, g), (X.act(n, x), gn))
        number = {}
        pc.comp[c] = {p: number.setdefault(uf.find(p), len(number))
                      for p in elems}
        _two_cap(len(number), cap)
        pc.masks[c] = sorted(range(2 ** len(number)),
                             key=lambda w: pc.name(c, w))
    return pc


# ---------------------------------------------------------------------------
# pneumoconnected fibers

def pneumoconnected_countermodel(f: NatTrans,
                                 cap: int = DEFAULT_SIZE_CAP,
                                 pc: PcMasks | None = None,
                                 stats: dict | None = None):
    """None if f: X→Y forces the defining fiber formula
    ¬¬(f⁻¹(y)∩w = ∅ ∨ f⁻¹(y)∩w^c = ∅), with y ∈ Y and w ∈ P_c(X), at
    every stage; else its least countermodel (stages in base order, then
    y, then w by name), as forcing the formula gives it.

    The fiber of y ∈ Y(e) is the set of (x, k) with k: d→e and
    f(x) = Y(k)(y).  Since w is complemented, (e, y, w) is decided (one
    disjunct holds) iff the fiber lies wholly inside or wholly outside
    w's part, and ¬¬ψ holds at c iff every m into c has some n into
    dom m at which the restriction of (y, w) is decided.  Restriction
    composes, (w·m)·n = w·(m∘n), and w·h holds (x, k) iff w holds
    (x, h∘k).  So with T(h) the components of X×y(c) met by the
    (x, h∘k) for (x, k) in the fiber of Y(h)(y), (dom h, Y(h)(y), w·h)
    is decided iff w is constant on T(h): w & T(h) is 0 or T(h).  Each
    (c, y) computes T(h) once per h into c, and each w costs a few AND
    operations.  `stats`, if given, counts the (c, y, w) triples tested
    under "fiber_checks"."""
    X, Y = f.dom, f.cod
    C = X.base
    if pc is None:
        pc = pc_masks(X, cap)
    tested = 0

    def first_failure():
        nonlocal tested
        for c in C.objects:
            into = C.arrows_into(c)
            # The arrows into c through h: h∘k for k into dom h.
            sieve = {h: {C.compose(h, k) for k in C.arrows_into(C.dom(h))}
                     for h in into}
            # parts[g][v]: the components of the (x, g) with f(x) = v.
            parts = {}
            for g in into:
                parts[g] = by_value = {}
                for x, v in f.components[C.dom(g)].items():
                    by_value[v] = by_value.get(v, 0) | 1 << pc.comp[c][x, g]
            masks = pc.masks[c]
            for y in Y.sets[c]:
                met = {g: parts[g].get(Y.act(g, y), 0) for g in into}
                T = {}
                for h in into:
                    T[h] = 0
                    for g in sieve[h]:
                        T[h] |= met[g]
                # Each m into c needs one T in its group that w is
                # constant on; a group holding a T of at most one bit
                # always has one.
                groups = {frozenset(T[h] for h in sieve[m]) for m in into}
                groups = [G for G in groups if all(t & (t - 1) for t in G)]
                if not groups:
                    tested += len(masks)
                    continue
                for w in masks:
                    tested += 1
                    if any(all(0 != w & t != t for t in G) for G in groups):
                        return Countermodel(c, {"y": y,
                                                "w": pc.name(c, w)})
        return None

    cm = first_failure()
    if stats is not None:
        stats["fiber_checks"] = stats.get("fiber_checks", 0) + tested
    return cm


def has_pneumoconnected_fibers(f: NatTrans,
                               cap: int = DEFAULT_SIZE_CAP,
                               pc: PcMasks | None = None,
                               stats: dict | None = None) -> bool:
    return pneumoconnected_countermodel(f, cap, pc, stats) is None
