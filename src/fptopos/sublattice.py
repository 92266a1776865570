"""The Heyting algebra of subobjects of a presheaf.

Subobjects are canonicalized as subfunctors (stage-wise part sets), so
equality inside one ambient presheaf is structural.  Negation is computed
by the stage-wise quantifier formula; the forcing module cross-validates
it against the internal-logic reading.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AmbientMismatch, SizeCapError, DEFAULT_SIZE_CAP
from .presheaf import (NatTrans, Presheaf, connected_components,
                       subfunctors, two)


@dataclass(eq=False)
class Subobject:
    """A subfunctor of an ambient presheaf."""

    ambient: Presheaf
    parts: dict[str, frozenset]

    def __eq__(self, other):
        return (isinstance(other, Subobject)
                and self.ambient is other.ambient
                and self.parts == other.parts)

    def __hash__(self):
        return hash(tuple((c, tuple(sorted(self.parts[c])))
                          for c in self.ambient.base.objects))

    def contains(self, c: str, x: str) -> bool:
        return x in self.parts[c]

    def size_vector(self):
        return tuple(len(self.parts[c])
                     for c in self.ambient.base.objects)

    def is_full(self) -> bool:
        return all(self.parts[c] == frozenset(self.ambient.sets[c])
                   for c in self.ambient.base.objects)

    def is_empty(self) -> bool:
        return all(not self.parts[c] for c in self.ambient.base.objects)

    def leq(self, other: "Subobject") -> bool:
        _same_ambient(self, other)
        return all(self.parts[c] <= other.parts[c]
                   for c in self.ambient.base.objects)

    def __repr__(self):
        body = "; ".join("%s:{%s}" % (c, ",".join(sorted(self.parts[c])))
                         for c in self.ambient.base.objects)
        return "<Sub %s>" % body


def _same_ambient(S: Subobject, T: Subobject):
    if S.ambient is not T.ambient:
        raise AmbientMismatch("subobjects of different ambient presheaves")


def full_subobject(X: Presheaf) -> Subobject:
    return Subobject(X, {c: frozenset(X.sets[c]) for c in X.base.objects})


def empty_subobject(X: Presheaf) -> Subobject:
    return Subobject(X, {c: frozenset() for c in X.base.objects})


def subobjects(X: Presheaf, cap: int = DEFAULT_SIZE_CAP) -> list[Subobject]:
    """All subobjects of X, duplicate-free, deterministic order."""
    return [Subobject(X, parts) for parts in subfunctors(X, cap)]


def meet(S: Subobject, T: Subobject) -> Subobject:
    _same_ambient(S, T)
    return Subobject(S.ambient, {c: S.parts[c] & T.parts[c]
                                 for c in S.ambient.base.objects})


def join(S: Subobject, T: Subobject) -> Subobject:
    _same_ambient(S, T)
    return Subobject(S.ambient, {c: S.parts[c] | T.parts[c]
                                 for c in S.ambient.base.objects})


def implication(S: Subobject, T: Subobject) -> Subobject:
    """Heyting implication: x at stage c is in (S ⇒ T) iff every
    restriction of x landing in S also lands in T."""
    _same_ambient(S, T)
    X = S.ambient
    C = X.base
    parts = {}
    for c in C.objects:
        keep = set()
        for x in X.sets[c]:
            ok = True
            for m in C.arrows_into(c):
                y = X.act(m, x)
                if y in S.parts[C.dom(m)] and y not in T.parts[C.dom(m)]:
                    ok = False
                    break
            if ok:
                keep.add(x)
        parts[c] = frozenset(keep)
    return Subobject(X, parts)


def negation(S: Subobject) -> Subobject:
    return implication(S, empty_subobject(S.ambient))


def is_complemented(S: Subobject) -> bool:
    return join(S, negation(S)).is_full()


# The elements of 2 = 1+1 at every stage, as `two` names them.
SIDES = ("inl(*)", "inr(*)")


def two_components(X: Presheaf, cap: int = DEFAULT_SIZE_CAP):
    """`connected_components(X)` if the 2^k maps X → 2 are within the cap:
    2 is constant and π₀ ⊣ Δ, so such a map is a side per component."""
    comp, k = connected_components(X)
    if 2 ** k > cap:
        raise SizeCapError("Hom(X,2) has %d elements (cap %d)"
                           % (2 ** k, cap))
    return comp, k


def maps_to_two(X: Presheaf, cap: int = DEFAULT_SIZE_CAP) -> list[NatTrans]:
    """Hom(X, 2) in hom-search order: the j-th map sends component i to
    inr(*) if bit k-1-i of j is set; raises SizeCapError above cap."""
    comp, k = two_components(X, cap)
    t2 = two(X.base)[0]
    return [NatTrans(X, t2, {c: {x: SIDES[(j >> (k - 1 - i)) & 1]
                                 for x, i in comp[c].items()}
                             for c in X.base.objects})
            for j in range(2 ** k)]


def complemented_subobjects(X: Presheaf,
                            cap: int = DEFAULT_SIZE_CAP) -> list[Subobject]:
    """Sub_c(X): the preimages of inl(*) under the maps X → 2 = 1+1,
    ordered by their sorted stage parts."""
    C = X.base
    subs = [Subobject(X, {c: frozenset(x for x in X.sets[c]
                                       if h.apply(c, x) == "inl(*)")
                          for c in C.objects})
            for h in maps_to_two(X, cap)]
    subs.sort(key=lambda S: tuple(tuple(sorted(S.parts[c]))
                                  for c in C.objects))
    return subs


def nn_closure(S: Subobject) -> Subobject:
    return negation(negation(S))


def is_nn_dense(S: Subobject) -> bool:
    return nn_closure(S).is_full()


def is_nn_dense_arrow(f: NatTrans) -> bool:
    """An arrow is ¬¬-dense iff the ¬¬-closure of its image is the whole
    codomain."""
    img = Subobject(f.cod, {c: frozenset(f.components[c].values())
                            for c in f.cod.base.objects})
    return is_nn_dense(img)
