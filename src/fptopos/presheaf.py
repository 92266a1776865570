"""Objects and morphisms of the finite presheaf topos Set^(C^op).

Presheaves of finite sets, natural transformations (listed or
streamed), finite limits and colimits, and the Yoneda embedding.
Everything is computed pointwise and deterministically: constructed
element ids are canonical strings, so repeated runs are bit-identical.
"""

from __future__ import annotations

import functools

from .errors import (BaseMismatch, PresheafError, ShapeMismatch,
                     SizeCapError, UnknownName, DEFAULT_SIZE_CAP)
from .fincat import FinCategory


class Presheaf:
    """A presheaf X: one finite set per base object, one restriction
    function per base morphism (contravariant: f: b→c acts X(c)→X(b))."""

    def __init__(self, base: FinCategory, sets: dict[str, tuple[str, ...]],
                 actions: dict[str, dict[str, str]], name: str = ""):
        self.base = base
        self.sets = sets
        self.actions = actions
        self.name = name

    def act(self, m: str, x: str) -> str:
        return self.actions[m][x]

    def elements(self):
        """All (stage, point) pairs in deterministic order."""
        for c in self.base.objects:
            for x in self.sets[c]:
                yield (c, x)

    def size_vector(self) -> tuple[int, ...]:
        return tuple(len(self.sets[c]) for c in self.base.objects)

    def total_size(self) -> int:
        return sum(self.size_vector())

    def is_empty(self) -> bool:
        return self.total_size() == 0

    def __repr__(self):
        label = self.name or "X"
        sizes = ", ".join("%s:%d" % (c, len(self.sets[c]))
                          for c in self.base.objects)
        return "<Presheaf %s [%s]>" % (label, sizes)


class NatTrans:
    """A natural transformation between presheaves on the same base."""

    def __init__(self, dom: Presheaf, cod: Presheaf,
                 components: dict[str, dict[str, str]], name: str = ""):
        self.dom = dom
        self.cod = cod
        self.components = components
        self.name = name

    def apply(self, c: str, x: str) -> str:
        return self.components[c][x]

    def then(self, other: "NatTrans") -> "NatTrans":
        """other ∘ self."""
        comps = {c: {x: other.apply(c, self.apply(c, x))
                     for x in self.dom.sets[c]}
                 for c in self.dom.base.objects}
        return NatTrans(self.dom, other.cod, comps)

    def same_components(self, other: "NatTrans") -> bool:
        return self.components == other.components

    def key(self) -> tuple:
        return tuple(
            (c, tuple(sorted(self.components[c].items())))
            for c in self.dom.base.objects)

    def __repr__(self):
        return "<NatTrans %s>" % (self.name or "f")


def _same_base(X: Presheaf, Y: Presheaf):
    if X.base is not Y.base:
        raise BaseMismatch("presheaves live over different base categories")


def _cap(n: int, cap: int, what: str):
    if n > cap:
        raise SizeCapError("%s needs %d elements at one stage (cap %d)"
                           % (what, n, cap))


# The characters constructed element ids are built from: pel, coproduct,
# quotient_by_pairs, pi, PcMasks.name and the arrow ids of the tests'
# reference objects.  Ids read from input may not contain them, so a
# constructed id cannot collide.
RESERVED_ID_CHARS = "(),|[]{};:>"


def pel(x: str, y: str) -> str:
    """Canonical element id for a pair; never parsed back, only compared."""
    return "(%s,%s)" % (x, y)


def validate_presheaf(C: FinCategory, raw: dict) -> Presheaf:
    """Validate a raw presheaf description against its base category.

    raw gives per-object element lists and per-(non-identity-)morphism
    action tables.  Raises PresheafError with kind MissingAction,
    DanglingElement or NotFunctorial.
    """
    sets = {}
    for c in C.objects:
        if c not in raw["sets"]:
            raise PresheafError("DanglingElement",
                                "no element list for object %r" % c)
        elems = tuple(raw["sets"][c])
        if len(set(elems)) != len(elems):
            raise PresheafError("DanglingElement",
                                "duplicate elements at %r" % c)
        sets[c] = elems
    for c in raw["sets"]:
        if c not in C.objects:
            raise PresheafError("DanglingElement",
                                "elements for unknown object %r" % c)

    actions = {}
    given = raw.get("actions", {})
    for m in given:
        if m not in C.morphisms:
            raise PresheafError("DanglingElement",
                                "action for unknown morphism %r" % m)
    for m in C.morphism_names():
        d, c = C.morphisms[m]
        if C.is_identity(m):
            table = given.get(m)
            if table is not None and \
                    any(table.get(x) != x for x in sets[c]):
                raise PresheafError("NotFunctorial",
                                    "identity action at %r is not id" % c)
            actions[m] = {x: x for x in sets[c]}
            continue
        if m not in given:
            raise PresheafError("MissingAction",
                                "no action table for morphism %r" % m)
        table = dict(given[m])
        for x in sets[c]:
            if x not in table:
                raise PresheafError("MissingAction",
                                    "action %r undefined on %r" % (m, x))
            if table[x] not in sets[d]:
                raise PresheafError(
                    "DanglingElement",
                    "action %r sends %r outside X(%r)" % (m, x, d))
        for x in table:
            if x not in sets[c]:
                raise PresheafError("DanglingElement",
                                    "action %r defined on unknown %r" % (m, x))
        actions[m] = table

    X = Presheaf(C, sets, actions, raw.get("name", ""))
    _check_functorial(X)
    return X


def _check_functorial(X: Presheaf):
    # X(g∘f) = X(f) ∘ X(g); the stored identity tables make every pair
    # with an identity factor hold.
    for g, f, gf, c in X.base.nonidentity_pairs():
        xg, xf, xgf = X.actions[g], X.actions[f], X.actions[gf]
        for x in X.sets[c]:
            if xf[xg[x]] != xgf[x]:
                raise PresheafError(
                    "NotFunctorial",
                    "X(%r)∘X(%r) != X(%r) at %r" % (f, g, gf, x))


def make_from_generators(C: FinCategory, sets, gen_actions,
                         name="") -> Presheaf:
    """Build a presheaf from actions on the category's generating
    morphisms, deriving composite actions from the closure words.

    X(g∘f) = X(f)∘X(g), so a word (g1,…,gn) in applicative order acts by
    applying the generator actions in reverse word order.
    """
    for g, table in gen_actions.items():
        d, c = C.morphisms[g]
        for x in sets[c]:
            if x not in table:
                raise PresheafError("MissingAction",
                                    "no image for %r under %r" % (x, g))
            if table[x] not in sets[d]:
                raise PresheafError(
                    "DanglingElement",
                    "image %r of %r under %r is not an element at %r"
                    % (table[x], x, g, d))
    actions = {}
    for m in C.nonidentity_morphisms():
        word = C.words.get(m, (m,))
        _d, c = C.morphisms[m]
        table = {}
        for x in sets[c]:
            v = x
            for g in reversed(word):
                v = gen_actions[g][v]
            table[x] = v
        actions[m] = table
    return make_presheaf(C, sets, actions, name)


def make_presheaf(C: FinCategory, sets, actions, name="") -> Presheaf:
    """Build and functoriality-check a presheaf from full tables
    (identities are filled in automatically); a stage may not list an
    element twice."""
    full = {}
    for m in C.morphism_names():
        _d, c = C.morphisms[m]
        if C.is_identity(m):
            full[m] = {x: x for x in sets[c]}
            if len(full[m]) != len(sets[c]):
                raise PresheafError("DanglingElement",
                                    "duplicate elements at %r" % c)
        else:
            full[m] = dict(actions[m])
    X = Presheaf(C, {c: tuple(sets[c]) for c in C.objects}, full, name)
    _check_functorial(X)
    return X


# ---------------------------------------------------------------------------
# hom-sets

def _hom_search(X: Presheaf, Y: Presheaf, epi: bool, values=None):
    """Components of the natural transformations X → Y, or of the
    pointwise onto ones if `epi` (where the stage sizes agree, these are
    the isos), as a generator: each is found only when the consumer asks
    for it.

    Elements of X are assigned one at a time in stage-major order, each
    trying the values of Y at its stage in order, or only values[c][x]
    for x ∈ X(c) when `values` is given: a restriction that every wanted
    map meets, which forced values are not checked against.  A choice
    x ↦ y at once forces X(m)(x) ↦ Y(m)(y) for every non-identity m into
    x's stage, which covers every restriction of x, so the search fails
    on the first clash and an assigned element never needs checking
    again.  If `epi`, each stage keeps how often each value of Y is hit
    and a slack: its unassigned elements less its values not yet hit.
    A value hit again spends one unit of slack, and the search fails
    where the slack would go negative, as too few elements are left to
    hit the rest (forward checking, Haralick & Elliott 1980).  Forced
    values depend only on earlier choices, so solutions come out in
    lexicographic order of their value tuples, and the epis in the order
    of the hom-set.
    """
    _same_base(X, Y)
    C = X.base
    slack = {c: len(X.sets[c]) - len(Y.sets[c]) for c in C.objects}
    if epi and any(s < 0 for s in slack.values()):
        return iter(())
    into = {c: [(C.dom(m), X.actions[m], Y.actions[m])
                for m in C.nonidentity_morphisms() if C.cod(m) == c]
            for c in C.objects}
    elems = [(c, x) for c in C.objects for x in X.sets[c]]
    comps = {c: {} for c in C.objects}
    hits = ({c: dict.fromkeys(Y.sets[c], 0) for c in C.objects}
            if epi else None)
    trail = []

    def put(c, x, y) -> bool:
        # x ↦ y at stage c; False on a clash or, if epi, no slack left.
        if x in comps[c]:
            return comps[c][x] == y
        if epi:
            if hits[c][y]:
                if not slack[c]:
                    return False
                slack[c] -= 1
            hits[c][y] += 1
        comps[c][x] = y
        trail.append((c, x))
        return True

    def search(i):
        # Every extension of the assignment from element i on.
        while i < len(elems) and elems[i][1] in comps[elems[i][0]]:
            i += 1
        if i == len(elems):
            yield {c: {x: comps[c][x] for x in X.sets[c]}
                   for c in C.objects}
            return
        c, x = elems[i]
        for y in Y.sets[c] if values is None else values[c][x]:
            mark = len(trail)
            if put(c, x, y) and all(put(d, xm[x], ym[y])
                                    for d, xm, ym in into[c]):
                yield from search(i + 1)
            while len(trail) > mark:
                d, u = trail.pop()
                v = comps[d].pop(u)
                if epi:
                    hits[d][v] -= 1
                    if hits[d][v]:
                        slack[d] += 1

    return search(0)


def homs(X: Presheaf, Y: Presheaf, epi: bool = False):
    """The natural transformations X → Y, or only the epis if `epi`, in
    the order of `nat_transformations`, one at a time."""
    return (NatTrans(X, Y, comps) for comps in _hom_search(X, Y, epi))


def nat_transformations(X: Presheaf, Y: Presheaf) -> list[NatTrans]:
    """All natural transformations X → Y, by the propagating search of
    `_hom_search`; duplicate-free, deterministic order."""
    return list(homs(X, Y))


def is_epi(f: NatTrans) -> bool:
    """Pointwise surjectivity (valid in a presheaf topos)."""
    return all(set(f.components[c].values()) == set(f.cod.sets[c])
               for c in f.dom.base.objects)


def global_elements(X: Presheaf) -> list[NatTrans]:
    return nat_transformations(terminal(X.base), X)


# ---------------------------------------------------------------------------
# finite limits and colimits

def terminal(C: FinCategory) -> Presheaf:
    sets = {c: ("*",) for c in C.objects}
    actions = {m: {"*": "*"} for m in C.nonidentity_morphisms()}
    return make_presheaf(C, sets, actions, "1")


def initial(C: FinCategory) -> Presheaf:
    sets = {c: () for c in C.objects}
    actions = {m: {} for m in C.nonidentity_morphisms()}
    return make_presheaf(C, sets, actions, "0")


def product(X: Presheaf, Y: Presheaf,
            cap: int = DEFAULT_SIZE_CAP):
    """Pointwise product with its two projections."""
    _same_base(X, Y)
    C = X.base
    sets = {}
    for c in C.objects:
        _cap(len(X.sets[c]) * len(Y.sets[c]), cap, "product")
        sets[c] = tuple(pel(x, y)
                        for x in X.sets[c] for y in Y.sets[c])
    actions = {}
    for m in C.nonidentity_morphisms():
        _d, c = C.morphisms[m]
        actions[m] = {pel(x, y): pel(X.act(m, x), Y.act(m, y))
                      for x in X.sets[c] for y in Y.sets[c]}
    P = make_presheaf(C, sets, actions, "%s×%s" % (X.name or "X",
                                                   Y.name or "Y"))
    p1 = NatTrans(P, X, {c: {pel(x, y): x for x in X.sets[c]
                             for y in Y.sets[c]} for c in C.objects}, "p1")
    p2 = NatTrans(P, Y, {c: {pel(x, y): y for x in X.sets[c]
                             for y in Y.sets[c]} for c in C.objects}, "p2")
    return P, p1, p2


def pairing(f: NatTrans, g: NatTrans, P: Presheaf) -> NatTrans:
    """⟨f, g⟩ : Z → X×Y into a product built by product()."""
    comps = {c: {z: pel(f.apply(c, z), g.apply(c, z))
                 for z in f.dom.sets[c]} for c in f.dom.base.objects}
    return NatTrans(f.dom, P, comps)


def coproduct(X: Presheaf, Y: Presheaf):
    """Pointwise coproduct with its two injections."""
    _same_base(X, Y)
    C = X.base
    sets = {c: tuple("inl(%s)" % x for x in X.sets[c]) +
            tuple("inr(%s)" % y for y in Y.sets[c]) for c in C.objects}
    actions = {}
    for m in C.nonidentity_morphisms():
        _d, c = C.morphisms[m]
        table = {"inl(%s)" % x: "inl(%s)" % X.act(m, x)
                 for x in X.sets[c]}
        table.update({"inr(%s)" % y: "inr(%s)" % Y.act(m, y)
                      for y in Y.sets[c]})
        actions[m] = table
    S = make_presheaf(C, sets, actions, "%s+%s" % (X.name or "X",
                                                   Y.name or "Y"))
    i1 = NatTrans(X, S, {c: {x: "inl(%s)" % x for x in X.sets[c]}
                         for c in C.objects}, "inl")
    i2 = NatTrans(Y, S, {c: {y: "inr(%s)" % y for y in Y.sets[c]}
                         for c in C.objects}, "inr")
    return S, i1, i2


@functools.cache
def two(C: FinCategory):
    """The boolean object 2 = 1+1 with its injections, built once per
    base."""
    T = terminal(C)
    return coproduct(T, T)


def sub_presheaf(X: Presheaf, parts: dict, name="") -> Presheaf:
    """Standalone presheaf carried by a subfunctor (same element ids)."""
    C = X.base
    sets = {c: tuple(x for x in X.sets[c] if x in parts[c])
            for c in C.objects}
    for m in C.nonidentity_morphisms():
        d, c = C.morphisms[m]
        for x in sets[c]:
            if X.act(m, x) not in parts[d]:
                raise PresheafError(
                    "NotFunctorial",
                    "parts not closed: %r leaves the subset along %r"
                    % (x, m))
    actions = {m: {x: X.act(m, x) for x in sets[C.morphisms[m][1]]}
               for m in C.nonidentity_morphisms()}
    return make_presheaf(C, sets, actions, name)


def inclusion_of(X: Presheaf, parts: dict) -> tuple[Presheaf, NatTrans]:
    S = sub_presheaf(X, parts)
    inc = NatTrans(S, X, {c: {x: x for x in S.sets[c]}
                          for c in X.base.objects}, "inc")
    return S, inc


def pullback(f: NatTrans, g: NatTrans, cap: int = DEFAULT_SIZE_CAP):
    """Pullback of a cospan f: X→Z ← Y :g with its two projections."""
    if f.cod is not g.cod:
        raise ShapeMismatch("pullback needs a cospan")
    P, p1, p2 = product(f.dom, g.dom, cap)
    parts = {c: frozenset(
        pel(x, y) for x in f.dom.sets[c] for y in g.dom.sets[c]
        if f.apply(c, x) == g.apply(c, y)) for c in f.dom.base.objects}
    S, inc = inclusion_of(P, parts)
    return S, inc.then(p1), inc.then(p2)


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b) -> bool:  # whether a and b were apart
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Keep the smaller id as representative: deterministic classes.
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra
        return ra != rb


def connected_components(X: Presheaf) -> tuple[dict[str, dict[str, int]],
                                                int]:
    """The components of the category of elements ∫X, joined along every
    restriction: each element's component, numbered by its first element
    in stage-major order, and the number k of components."""
    C = X.base
    uf = _UnionFind(list(X.elements()))
    for m in C.nonidentity_morphisms():
        d, c = C.morphisms[m]
        for x, y in X.actions[m].items():
            uf.union((c, x), (d, y))
    number = {}
    comp = {c: {x: number.setdefault(uf.find((c, x)), len(number))
                for x in X.sets[c]} for c in C.objects}
    return comp, len(number)


def quotient_by_pairs(Y: Presheaf, pairs: dict) -> tuple[Presheaf, NatTrans]:
    """Pointwise quotient of Y by the stage-wise equivalence generated by
    the given pairs; class ids are "[rep]" with rep the least member."""
    C = Y.base
    reps = {}
    for c in C.objects:
        uf = _UnionFind(Y.sets[c])
        for a, b in pairs.get(c, ()):
            uf.union(a, b)
        reps[c] = {y: uf.find(y) for y in Y.sets[c]}
    sets = {c: tuple("[%s]" % r for r in
                     sorted(set(reps[c].values()),
                            key=list(Y.sets[c]).index))
            for c in C.objects}
    actions = {}
    for m in C.nonidentity_morphisms():
        d, c = C.morphisms[m]
        table = {}
        for y in Y.sets[c]:
            key = "[%s]" % reps[c][y]
            val = "[%s]" % reps[d][Y.act(m, y)]
            if table.get(key, val) != val:
                raise PresheafError("NotFunctorial",
                                    "quotient action ill-defined at %r" % m)
            table[key] = val
        actions[m] = table
    Q = make_presheaf(C, sets, actions, "%s/~" % (Y.name or "Y"))
    q = NatTrans(Y, Q, {c: {y: "[%s]" % reps[c][y] for y in Y.sets[c]}
                        for c in C.objects}, "q")
    return Q, q


# ---------------------------------------------------------------------------
# Yoneda

def yoneda(C: FinCategory, c: str) -> Presheaf:
    """The representable y(c): stage b is Hom(b, c), action by
    precomposition."""
    if c not in C.objects:
        raise UnknownName("unknown object %r" % c)
    sets = {b: C.hom(b, c) for b in C.objects}
    actions = {}
    for m in C.nonidentity_morphisms():
        _d, b = C.morphisms[m]
        actions[m] = {h: C.compose(h, m) for h in sets[b]}
    return make_presheaf(C, sets, actions, "y(%s)" % c)


def subfunctors(X: Presheaf, cap: int = DEFAULT_SIZE_CAP,
                inside: frozenset = frozenset(),
                admissible=None) -> list[dict]:
    """All subfunctors of X as stage → frozenset part maps, enumerated as
    restriction-closed element sets; deterministic order.  Only those
    containing `inside` (such a set), and on which `admissible` holds if
    given: it must hold at `inside` and fail above wherever it fails."""
    C = X.base
    elems = list(X.elements())
    index = {e: i for i, e in enumerate(elems)}
    closure = {}
    for e in elems:
        seen = {e}
        stack = [e]
        while stack:
            c, x = stack.pop()
            for m in C.nonidentity_morphisms():
                if C.cod(m) != c:
                    continue
                nxt = (C.dom(m), X.act(m, x))
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        closure[e] = frozenset(seen)
    above = {e: frozenset(d for d in elems if e in closure[d])
             for e in elems}

    results = []

    def rec(i, inside, outside):
        while i < len(elems) and (elems[i] in inside or elems[i] in outside):
            i += 1
        if i == len(elems):
            results.append(frozenset(inside))
            if len(results) > cap:
                raise SizeCapError("more than %d subfunctors (cap)" % cap)
            return
        e = elems[i]
        cl = closure[e]
        if not (cl & outside) and (admissible is None
                                   or admissible(inside | cl)):
            rec(i + 1, inside | cl, outside)
        rec(i + 1, inside, outside | above[e])

    rec(0, inside, frozenset())
    parts_list = []
    for chosen in results:
        parts_list.append({c: frozenset(x for x in X.sets[c]
                                        if (c, x) in chosen)
                           for c in C.objects})
    parts_list.sort(key=lambda p: tuple(
        tuple(sorted(p[c])) for c in C.objects))
    return parts_list


# ---------------------------------------------------------------------------
# isomorphism testing

def find_iso(X: Presheaf, Y: Presheaf):
    """A natural family of bijections X → Y, or None: the first epi,
    once the stage sizes agree, as an onto map of finite sets of the
    same size is a bijection."""
    _same_base(X, Y)
    if X.size_vector() != Y.size_vector():
        return None
    found = next(_hom_search(X, Y, True), None)
    return None if found is None else NatTrans(X, Y, found, "iso")


def is_isomorphic(X: Presheaf, Y: Presheaf) -> bool:
    return find_iso(X, Y) is not None
