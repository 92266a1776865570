"""Finite categories: validation, generator closure, and the built-in catalog.

A finite category is stored with an explicit total composition table, so
validation is a direct O(n^3) check of the identity and associativity laws.
Catalog entries are produced once by closing a generator/relation
presentation and are then re-validated like any other input.
"""

from __future__ import annotations

from .errors import CategoryError, UnknownName

# Hard cap for the generator-closure routine.
MAX_MORPHISMS = 64


class FinCategory:
    """A finite category: the base C of the presheaf topos Set^(C^op).

    Immutable after validation; object and morphism ids are opaque strings.
    """

    def __init__(self, name: str, objects: tuple[str, ...],
                 morphisms: dict[str, tuple[str, str]],
                 identities: dict[str, str],
                 composition: dict[tuple[str, str], str],
                 generators: tuple[str, ...] = (),
                 words: dict[str, tuple[str, ...]] | None = None):
        self.name = name
        self.objects = objects
        self.morphisms = morphisms      # name -> (dom, cod)
        self.identities = identities    # object -> identity morphism name
        self.composition = composition  # (g, f) -> g∘f, cod f = dom g
        self.generators = generators
        self.words = {} if words is None else words
        # The morphism lists below, computed once in sorted name order.
        names = tuple(sorted(self.morphisms))
        self._identity_names = frozenset(self.identities.values())
        self._names = names
        self._nonidentity = tuple(m for m in names
                                  if m not in self._identity_names)
        self._into = {c: tuple(m for m in names if self.cod(m) == c)
                      for c in self.objects}
        self._from = {b: tuple(m for m in names if self.dom(m) == b)
                      for b in self.objects}
        self._hom = {(b, c): tuple(m for m in self._from[b]
                                   if self.cod(m) == c)
                     for b in self.objects for c in self.objects}
        self._pairs = tuple((g, f, gf, self.cod(g))
                            for (g, f), gf in self.composition.items()
                            if not (self.is_identity(g)
                                    or self.is_identity(f)))

    def dom(self, m: str) -> str:
        return self.morphisms[m][0]

    def cod(self, m: str) -> str:
        return self.morphisms[m][1]

    def identity(self, c: str) -> str:
        return self.identities[c]

    def is_identity(self, m: str) -> bool:
        return m in self._identity_names

    def compose(self, g: str, f: str) -> str:
        """g∘f for cod(f) = dom(g)."""
        return self.composition[(g, f)]

    def morphism_names(self) -> tuple[str, ...]:
        return self._names

    def nonidentity_morphisms(self) -> tuple[str, ...]:
        return self._nonidentity

    def arrows_into(self, c: str) -> tuple[str, ...]:
        return self._into[c]

    def hom(self, b: str, c: str) -> tuple[str, ...]:
        return self._hom[(b, c)]

    def nonidentity_pairs(self) -> tuple[tuple[str, str, str, str], ...]:
        return self._pairs  # (g, f, g∘f, cod g)

    def generating_morphisms(self) -> tuple[str, ...]:
        """A set of morphisms whose words generate every non-identity
        morphism; falls back to all non-identity morphisms."""
        return self.generators or self.nonidentity_morphisms()

    def to_raw(self) -> dict:
        """Serializable plain-data description, re-validatable."""
        return {
            "name": self.name,
            "objects": list(self.objects),
            "morphisms": [
                {"name": m, "dom": d, "cod": c}
                for m, (d, c) in sorted(self.morphisms.items())
            ],
            "identities": dict(sorted(self.identities.items())),
            "composition": [
                [g, f, gf] for (g, f), gf in sorted(self.composition.items())
            ],
        }


def validate_category(raw: dict) -> FinCategory:
    """Check a raw category description and return a validated FinCategory.

    Raises CategoryError with kind one of MissingIdentity, NonAssociative,
    IncompleteComposition, DanglingReference.
    """
    objects = tuple(raw["objects"])
    if len(set(objects)) != len(objects):
        raise CategoryError("DanglingReference", "duplicate object ids")
    morphisms: dict[str, tuple[str, str]] = {}
    for entry in raw["morphisms"]:
        if isinstance(entry, dict):
            m, d, c = entry["name"], entry["dom"], entry["cod"]
        else:
            m, d, c = entry
        if m in morphisms:
            raise CategoryError("DanglingReference",
                                "duplicate morphism id %r" % m)
        if d not in objects or c not in objects:
            raise CategoryError(
                "DanglingReference",
                "morphism %r references unknown object" % m)
        morphisms[m] = (d, c)

    identities = dict(raw["identities"])
    for o in objects:
        i = identities.get(o)
        if i is None or i not in morphisms or morphisms[i] != (o, o):
            raise CategoryError("MissingIdentity",
                                "object %r has no valid identity" % o)
    for o in identities:
        if o not in objects:
            raise CategoryError("DanglingReference",
                                "identity for unknown object %r" % o)

    composition: dict[tuple[str, str], str] = {}
    for g, f, gf in raw["composition"]:
        for m in (g, f, gf):
            if m not in morphisms:
                raise CategoryError("DanglingReference",
                                    "composition references unknown %r" % m)
        if morphisms[f][1] != morphisms[g][0]:
            raise CategoryError(
                "IncompleteComposition",
                "pair (%r, %r) is not composable" % (g, f))
        if morphisms[gf] != (morphisms[f][0], morphisms[g][1]):
            raise CategoryError(
                "IncompleteComposition",
                "composite %r of (%r, %r) has wrong endpoints" % (gf, g, f))
        composition[(g, f)] = gf

    # Totality on composable pairs.
    for g, (gd, _gc) in morphisms.items():
        for f, (_fd, fc) in morphisms.items():
            if fc == gd and (g, f) not in composition:
                raise CategoryError(
                    "IncompleteComposition",
                    "no composite declared for (%r, %r)" % (g, f))

    cat = FinCategory(raw.get("name", ""), objects, morphisms, identities,
                      composition)
    # Identity laws.
    for f, (d, c) in morphisms.items():
        if cat.compose(f, identities[d]) != f or \
                cat.compose(identities[c], f) != f:
            raise CategoryError("MissingIdentity",
                                "identity law fails at %r" % f)
    # Associativity.
    for f, (_fd, fc) in morphisms.items():
        for g, (gd, gc) in morphisms.items():
            if fc != gd:
                continue
            for h, (hd, _hc) in morphisms.items():
                if gc != hd:
                    continue
                if cat.compose(h, cat.compose(g, f)) != \
                        cat.compose(cat.compose(h, g), f):
                    raise CategoryError(
                        "NonAssociative",
                        "h∘(g∘f) != (h∘g)∘f for (%r, %r, %r)" % (h, g, f))
    return cat


def _normalize(word: tuple[str, ...], rules) -> tuple[str, ...]:
    # Words are in applicative order: word (f, g) means g∘f.
    changed = True
    while changed:
        changed = False
        for lhs, rhs in rules:
            n = len(lhs)
            for i in range(len(word) - n + 1):
                if word[i:i + n] == lhs:
                    word = word[:i] + rhs + word[i + n:]
                    changed = True
                    break
            if changed:
                break
    return word


def close_generators(name, objects, generators, relations=()) -> FinCategory:
    """Close a generator/relation presentation into a full FinCategory.

    generators: list of (name, dom, cod); relations: pairs of words in
    applicative order rewritten left to right (left side must not be
    shorter than the right).  Aborts above MAX_MORPHISMS morphisms.
    """
    gen_ends = {g: (d, c) for g, d, c in generators}
    rules = [(tuple(lhs), tuple(rhs)) for lhs, rhs in relations]

    def ends(dom, word):
        cur = dom
        for g in word:
            d, c = gen_ends[g]
            if d != cur:
                raise CategoryError("IncompleteComposition",
                                    "ill-typed word %r" % (word,))
            cur = c
        return cur

    def morph_name(dom, word):
        if not word:
            return "1_%s" % dom
        if len(word) == 1:
            return word[0]
        return "∘".join(reversed(word))

    known: dict[tuple[str, tuple[str, ...]], str] = {}
    for o in objects:
        known[(o, ())] = morph_name(o, ())
    for g, d, _c in generators:
        known[(d, _normalize((g,), rules))] = None  # filled below
    for key in list(known):
        known[key] = morph_name(*key)

    frontier = list(known)
    while frontier:
        new = []
        for d1, w1 in list(known):
            c1 = ends(d1, w1)
            for d2, w2 in list(known):
                if d2 != c1:
                    continue
                word = _normalize(w1 + w2, rules)
                key = (d1, word)
                if key not in known:
                    known[key] = morph_name(d1, word)
                    new.append(key)
        if len(known) > MAX_MORPHISMS:
            raise CategoryError(
                "IncompleteComposition",
                "generator closure exceeded %d morphisms" % MAX_MORPHISMS)
        frontier = new

    morphisms = {}
    words = {}
    for (d, w), m in known.items():
        morphisms[m] = (d, ends(d, w))
        words[m] = w
    identities = {o: known[(o, ())] for o in objects}
    composition = {}
    for (d1, w1), f in known.items():
        c1 = ends(d1, w1)
        for (d2, w2), g in known.items():
            if d2 != c1:
                continue
            composition[(g, f)] = known[(d1, _normalize(w1 + w2, rules))]

    cat = validate_category({
        "name": name,
        "objects": list(objects),
        "morphisms": [{"name": m, "dom": d, "cod": c}
                      for m, (d, c) in morphisms.items()],
        "identities": identities,
        "composition": [[g, f, gf] for (g, f), gf in composition.items()],
    })
    cat.generators = tuple(g for g, _d, _c in generators)
    cat.words = words
    return cat


class CatalogEntry:
    def __init__(self, name: str, category: FinCategory,
                 notes: dict[str, str]):
        self.name = name
        self.category = category
        # Expected axiom profile, re-verified by the harness, never trusted.
        self.notes = notes


def _build_catalog() -> dict[str, CatalogEntry]:
    entries = {}

    point = close_generators("point", ("*",), [])
    entries["point"] = CatalogEntry(
        "point", point, {"NS": "holds", "DQO": "holds", "DSO": "holds"})

    twodisc = close_generators("two-discrete", ("a", "b"), [])
    entries["two-discrete"] = CatalogEntry(
        "two-discrete", twodisc,
        {"NS": "fails", "DQO": "holds", "DSO": "fails"})

    sierpinski = close_generators("sierpinski", ("0", "1"),
                                  [("u", "0", "1")])
    entries["sierpinski"] = CatalogEntry(
        "sierpinski", sierpinski,
        {"NS": "fails", "DQO": "unknown", "DSO": "unknown"})

    graph = close_generators("graph", ("V", "E"),
                             [("s", "V", "E"), ("t", "V", "E")])
    entries["graph"] = CatalogEntry(
        "graph", graph, {"NS": "fails", "DQO": "fails", "DSO": "unknown"})

    # Reflexive graphs: sigma picks the degenerate loop, sigma∘s = sigma∘t
    # = id_V; applicative words (s, sigma) and (t, sigma) rewrite to empty.
    refgraph = close_generators(
        "refgraph", ("V", "E"),
        [("s", "V", "E"), ("t", "V", "E"), ("sigma", "E", "V")],
        relations=[(("s", "sigma"), ()), (("t", "sigma"), ())])
    entries["refgraph"] = CatalogEntry(
        "refgraph", refgraph,
        {"NS": "holds", "DQO": "holds", "DSO": "holds"})

    return entries


_CATALOG = None


def catalog_entries() -> dict[str, CatalogEntry]:
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _build_catalog()
    return _CATALOG


def catalog(name: str) -> FinCategory:
    """Return a named base category from the built-in catalog."""
    entries = catalog_entries()
    if name not in entries:
        raise UnknownName("unknown catalog category %r (have: %s)"
                          % (name, ", ".join(sorted(entries))))
    return entries[name].category
