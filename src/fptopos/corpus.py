"""Bounded enumeration of presheaves up to isomorphism.

Presheaves are generated per stage-size vector by assigning actions to the
base category's generating morphisms and discarding assignments that break
functoriality.  Isomorphism pruning is by canonical form: the minimum of
the relabeled action tables over all stage-wise permutations, after a
first cut on the stage cardinality vector.  The enumeration order is fully
deterministic, so regeneration is bit-identical.  The result is a
`Corpus` session that every corpus-quantified check of one command shares.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .decidable import is_decidable
from .errors import SizeCapError, UnknownName, DEFAULT_SIZE_CAP
from .fincat import FinCategory
from .presheaf import Presheaf, PresheafError, make_from_generators


def canonical_key(X: Presheaf):
    """Canonical form of a presheaf: minimal relabeled action table over
    all per-stage permutations."""
    C = X.base
    objs = list(C.objects)
    index = {c: {x: i for i, x in enumerate(X.sets[c])} for c in objs}
    morphs = C.nonidentity_morphisms()
    best = None
    perm_spaces = [list(itertools.permutations(range(len(X.sets[c]))))
                   for c in objs]
    for perms in itertools.product(*perm_spaces):
        relabel = {c: perms[i] for i, c in enumerate(objs)}
        # relabel[c][i] is the new label of old element i at stage c
        table = []
        for m in morphs:
            d, c = C.morphisms[m]
            row = [0] * len(X.sets[c])
            for x in X.sets[c]:
                row[relabel[c][index[c][x]]] = \
                    relabel[d][index[d][X.act(m, x)]]
            table.append(tuple(row))
        key = tuple(table)
        if best is None or key < best:
            best = key
    return (X.size_vector(), best)


class Corpus:
    """One session over all presheaves on a base up to isomorphism within
    stage bounds.

    Per-object facts (Π, decidability, the DQO and DSO reports) are
    memoized by corpus index, so each is computed once per session
    however many checks ask for it.  The memo is plain shared state: a
    session is used from one thread.
    """

    def __init__(self, base: FinCategory, presheaves: list[Presheaf],
                 cap: int = DEFAULT_SIZE_CAP):
        self.base = base
        self.cap = cap
        self.presheaves = presheaves
        self.counts = Counter(X.size_vector() for X in presheaves)
        self._index = {X: i for i, X in enumerate(presheaves)}
        self._facts: dict[tuple, object] = {}

    def __iter__(self):
        return iter(self.presheaves)

    def __len__(self):
        return len(self.presheaves)

    def __getitem__(self, i):
        return self.presheaves[i]

    def fact(self, check, X: Presheaf):
        """check(X, cap), memoized by corpus index when X is a corpus
        object (keyed by the check too, so a replaced check is re-run);
        computed afresh for any other presheaf."""
        i = self._index.get(X)
        if i is None:
            return check(X, self.cap)
        key = (check, i)
        if key not in self._facts:
            self._facts[key] = check(X, self.cap)
        return self._facts[key]

    def decidables(self) -> list[Presheaf]:
        """The decidable corpus objects, in corpus order."""
        return [X for X in self if self.fact(is_decidable, X)]


def _norm_bounds(C: FinCategory, bounds) -> dict[str, int]:
    """Per-stage bounds from one bound for every stage or a dict of
    stage bounds (a stage it leaves out is bounded by 0)."""
    if isinstance(bounds, int):
        bounds = {c: bounds for c in C.objects}
    for c in bounds:
        if c not in C.objects:
            raise UnknownName("bound for %r, which is not an object of %s "
                              "(objects: %s)"
                              % (c, C.name, ", ".join(C.objects)))
    b = {c: bounds.get(c, 0) for c in C.objects}
    for c in C.objects:
        if b[c] < 0:
            raise SizeCapError("negative bound for %r" % c)
    return b


def bound_label(C: FinCategory, bounds) -> str:
    """The bounds as reports show them, e.g. 'V<=2,E<=1'; rejects a
    stage that is not an object of C."""
    b = _norm_bounds(C, bounds)
    return ",".join("%s<=%d" % (c, b[c]) for c in C.objects)


def _candidates(C: FinCategory, sizes: dict[str, int]):
    """All functorial presheaves with the given stage sizes (with
    duplicates across isomorphism)."""
    sets = {c: tuple("%s%d" % (c, i) for i in range(sizes[c]))
            for c in C.objects}
    gens = C.generating_morphisms()
    spaces = []
    for m in gens:
        d, c = C.morphisms[m]
        if sets[c] and not sets[d]:
            return  # no function into an empty set
        spaces.append(list(itertools.product(sets[d],
                                             repeat=len(sets[c]))))
    for combo in itertools.product(*spaces):
        gen_actions = {}
        for m, values in zip(gens, combo):
            _d, c = C.morphisms[m]
            gen_actions[m] = dict(zip(sets[c], values))
        try:
            yield make_from_generators(C, sets, gen_actions)
        except PresheafError:
            continue


def enumerate_presheaves(C: FinCategory, bounds,
                         cap: int = DEFAULT_SIZE_CAP) -> Corpus:
    """The session over all presheaves with stage sizes within the
    bounds, one canonical representative per isomorphism class, in
    deterministic order."""
    b = _norm_bounds(C, bounds)
    for c in C.objects:
        if b[c] > cap:
            raise SizeCapError("bound %d at %r exceeds cap" % (b[c], c))
    seen: dict[tuple, Presheaf] = {}
    ranges = [range(b[c] + 1) for c in C.objects]
    for vector in itertools.product(*ranges):
        sizes = dict(zip(C.objects, vector))
        for X in _candidates(C, sizes):
            key = canonical_key(X)
            if key not in seen:
                seen[key] = X
    ordered = [X for _key, X in sorted(seen.items(), key=lambda kv: kv[0])]
    for i, X in enumerate(ordered):
        X.name = "X%d" % i
    return Corpus(C, ordered, cap)
