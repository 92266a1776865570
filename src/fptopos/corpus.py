"""Bounded enumeration of presheaves up to isomorphism.

For each stage-size vector, a backtracking search fills in the tables of
the base category's generating morphisms entry by entry and checks each
functoriality equation as soon as every entry it reads is set, so only
functorial tables reach a leaf.  The search is orderly (Read 1978;
McKay 1998): a partial table that a swap of two elements of one stage
makes lexicographically smaller is dropped with everything under it,
since none of its leaves is the least, and so the first, table of its
class.  Each leaf that is left is built and validated by
`make_from_generators`.  Leaves are bucketed by an invariant: the
elements are colour-refined until the colours are stable, and the key is
the history of the refinement.  A leaf starts a new class unless the hom
search finds an isomorphism to a representative in its bucket, each
element trying only the representative's elements of its colour.  The
first leaf of each class represents it.  Leaves come
in lexicographic order of their tables, so the representatives are
already in canonical order: by size vector, then by least generator
tables.  The enumeration order is fully deterministic, so regeneration
is bit-identical.  The result is a `Corpus` session that every
corpus-quantified check of one command shares.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .errors import DEFAULT_SIZE_CAP
from .fincat import FinCategory, capped_bounds
from .presheaf import Presheaf, _hom_search, make_from_generators


class Corpus:
    """One session over all presheaves on a base up to isomorphism within
    stage bounds.

    Per-object facts (Π, decidability, the DQO and DSO reports) are
    memoized by corpus index, so each is computed once per session
    however many checks ask for it.  The memo is plain shared state: a
    session is used from one thread.
    """

    def __init__(self, base: FinCategory, presheaves: list[Presheaf],
                 cap: int = DEFAULT_SIZE_CAP, stats: dict | None = None):
        self.base = base
        self.cap = cap
        self.presheaves = presheaves
        # What generating the corpus searched (see enumerate_presheaves).
        self.stats = stats or {}
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
        # Imported here so that `enumerate` loads no decidable layer.
        from .decidable import is_decidable
        return [X for X in self if self.fact(is_decidable, X)]


def _candidates(C: FinCategory, sizes: dict[str, int], stats: Counter):
    """The functorial presheaves with the given stage sizes (with
    duplicates across isomorphism), each with its generator tables as
    tuples of element indices.

    A backtracking search fills the generator tables entry by entry in
    product order: generators in `generating_morphisms()` order, the
    elements of each generator's codomain stage in order, values in
    domain-stage order.  Each functoriality equation
    X(f)(X(g)(x)) = X(g∘f)(x), with composite actions read through the
    closure words, is checked as soon as every entry it reads is
    assigned (a relation check in the sense of Mackworth 1977, without
    look-ahead), so a partial table that breaks one is dropped at once.

    A partial table is also dropped when a transposition of two elements
    of one stage relabels it into a smaller one: smaller at the first
    entry where the two differ, with that entry and every entry before
    it decided (the entry and the entry it takes its value from under
    the swap are both set), so every completion is smaller too.  Leaves
    come in lexicographic order of their tables and every relabelling of
    a leaf is a leaf, so the first leaf of each isomorphism class is the
    least table of its orbit under stage-wise relabellings; no swap makes
    any prefix of it smaller, and it is never dropped.  The leaves are
    therefore the tables that `make_from_generators` accepts, in the
    order of the full product, less some that are not first in their
    class (a transposition does not catch every one).
    """
    gens = C.generating_morphisms()
    names = {c: tuple("%s%d" % (c, i) for i in range(sizes[c]))
             for c in C.objects}
    offset = {}  # gen -> index of its first table entry
    entries = []  # (gen, element, number of values), in product order
    for g in gens:
        offset[g] = len(entries)
        n_dom = sizes[C.dom(g)]
        entries += [(g, x, n_dom) for x in range(sizes[C.cod(g)])]
    tables = {g: [None] * sizes[C.cod(g)] for g in gens}

    def path(m):
        # The generator tables X(m) reads, in the order it applies them.
        return tuple(reversed(C.words.get(m, (m,))))

    # watch[k]: equations that can next be evaluated once entry k is set.
    watch = [[] for _ in entries]
    equations = set()
    for (g, f), gf in C.composition.items():
        if C.is_identity(g) or C.is_identity(f):
            continue
        lhs, rhs = path(g) + path(f), () if C.is_identity(gf) else path(gf)
        for x in range(sizes[C.cod(g)]):
            eq = (lhs, rhs, x)
            if lhs != rhs and eq not in equations:
                equations.add(eq)
                watch[offset[lhs[0]] + x].append(eq)

    def run(steps, x):
        # x pushed along the tables, or (None, entry it waits for).
        for g in steps:
            y = tables[g][x]
            if y is None:
                return None, offset[g] + x
            x = y
        return x, -1

    def settle(eq, added) -> bool:
        # False if eq fails; if it waits for an entry, watch that entry.
        lhs, rhs, x = eq
        a, k = run(lhs, x)
        if k < 0:
            b, k = run(rhs, x)
            if k < 0:
                return a == b
        watch[k].append(eq)
        added.append(k)
        return True

    # swaps: for each transposition (i j) of two elements of one stage,
    # the entry each entry takes its value from in the relabelled table,
    # and whether that value is relabelled too.
    swaps = []
    for s in C.objects:
        flip = [C.dom(g) == s for g, _x, _n in entries]
        for i, j in itertools.combinations(range(sizes[s]), 2):
            src = [offset[g] + (i + j - x if C.cod(g) == s and x in (i, j)
                                else x) for g, x, _n in entries]
            swaps.append((src, flip, i, j))
    flat = [None] * len(entries)  # entry values; read only up to entry k

    def smaller_by_swap(k) -> bool:
        # True if a swap makes every completion of entries 0..k smaller:
        # the relabelled table is smaller at the first entry where the two
        # differ, and that entry and all before it are decided (set, and
        # their source entries too).
        for src, flip, i, j in swaps:
            for p in range(k + 1):
                q = src[p]
                if q > k:
                    break
                v = flat[q]
                if flip[p] and (v == i or v == j):
                    v = i + j - v
                if v != flat[p]:
                    if v < flat[p]:
                        return True
                    break
        return False

    def search(k):
        if k == len(entries):
            stats["leaves_validated"] += 1
            values = {g: tuple(t) for g, t in tables.items()}
            gen_actions = {
                g: dict(zip(names[C.cod(g)],
                            (names[C.dom(g)][y] for y in values[g])))
                for g in gens}
            yield make_from_generators(C, names, gen_actions), values
            return
        g, x, n_values = entries[k]
        for y in range(n_values):
            stats["candidate_tables_tried"] += 1
            tables[g][x] = flat[k] = y
            added = []
            if all(settle(eq, added) for eq in watch[k]):
                if smaller_by_swap(k):
                    stats["prefixes_pruned"] += 1
                else:
                    yield from search(k + 1)
            for j in added:
                watch[j].pop()
        tables[g][x] = None

    yield from search(0)


def _refined_key(C: FinCategory, vector: tuple[int, ...], tables: dict):
    """An isomorphism invariant of the presheaf whose generator tables
    (tuples of element indices) are `tables`, with the stable colours of
    its elements: ((vector, history), colours), colours[s][x] the colour
    of element x of stage s.

    The elements of each stage are colour-refined until stable, an
    element's next colour ranking its colour, the colours of its images
    and the sorted colours of its preimages (McKay & Piperno 2014).  The
    history holds each round's sorted signatures per stage, and a colour
    is a rank among them, so two presheaves with equal keys have the
    same colours, each meaning the same thing; an isomorphism maps each
    element to one of its colour.  Non-isomorphic presheaves can share a
    key.
    """
    stage = {c: i for i, c in enumerate(C.objects)}
    # (domain stage, codomain stage, images of the codomain's elements)
    tables = [(stage[C.dom(g)], stage[C.cod(g)], t)
              for g, t in tables.items()]

    def preimages(t, n):
        pre = [[] for _ in range(n)]
        for x, y in enumerate(t):
            pre[y].append(x)
        return pre

    stages = range(len(vector))
    # Per stage s: (stage, table) of each table acting on X(s), and
    # (stage, preimage lists) of each table acting into X(s).
    outs = [[(d, t) for d, c, t in tables if c == s] for s in stages]
    ins = [[(c, preimages(t, n)) for d, c, t in tables if d == s]
           for s, n in zip(stages, vector)]
    colours = [[0] * n for n in vector]
    history = []
    classes = 0
    while classes < sum(vector):
        for s, n in enumerate(vector):
            col = colours[s]
            outs_s = [(colours[d], t) for d, t in outs[s]]
            ins_s = [(colours[c], pre) for c, pre in ins[s]]
            sigs = []
            for x in range(n):
                sig = [col[x]]
                for cd, t in outs_s:
                    sig.append(cd[t[x]])
                for cc, pre in ins_s:
                    sig.append(tuple(sorted([cc[z] for z in pre[x]])))
                sigs.append(tuple(sig))
            history.append(tuple(sorted(sigs)))
            rank = {v: r for r, v in enumerate(sorted(set(sigs)))}
            colours[s] = [rank[v] for v in sigs]
        now = sum(len(set(col)) for col in colours)
        if now == classes:
            break
        classes = now
    return (vector, tuple(history)), colours


def _same_colour(X: Presheaf, colours, R: Presheaf, r_colours) -> dict:
    """For the hom search X → R: each element of X may go only to the
    elements of R with its colour, since an isomorphism keeps colours."""
    return {c: {x: [y for y, k in zip(R.sets[c], r_colours[s])
                    if k == colours[s][i]]
                for i, x in enumerate(X.sets[c])}
            for s, c in enumerate(X.base.objects)}


def enumerate_presheaves(C: FinCategory, bounds,
                         cap: int = DEFAULT_SIZE_CAP) -> Corpus:
    """The session over all presheaves with stage sizes within the
    bounds, one representative per isomorphism class: the first leaf of
    its class, which is its least generator table.  Size vectors are
    searched in lexicographic order and the leaves of each in
    lexicographic order of their tables, so the corpus is ordered by
    (size vector, least generator tables)."""
    b = capped_bounds(C, bounds, cap)
    stats = Counter(candidate_tables_tried=0, prefixes_pruned=0,
                    leaves_validated=0, refined_keys=0)
    buckets: dict[tuple, list] = {}  # invariant -> [(rep, its colours)]
    ordered = []
    ranges = [range(b[c] + 1) for c in C.objects]
    for vector in itertools.product(*ranges):
        sizes = dict(zip(C.objects, vector))
        for X, tables in _candidates(C, sizes, stats):
            stats["refined_keys"] += 1
            key, colours = _refined_key(C, vector, tables)
            bucket = buckets.setdefault(key, [])
            if all(next(_hom_search(X, R, True,
                                    _same_colour(X, colours, R, rc)),
                        None) is None for R, rc in bucket):
                bucket.append((X, colours))
                ordered.append(X)
    for i, X in enumerate(ordered):
        X.name = "X%d" % i
    return Corpus(C, ordered, cap, dict(stats))
