"""The bounded enumeration of presheaves up to isomorphism, the
propagating candidate search and the dedup (refined-key buckets, then an
iso test) against the full product of generator tables deduplicated by
the brute-force canonical key, the colour-restricted iso test against
the brute-force iso search, and each representative against the least
relabelling of its generator tables, in the order of that key."""

import random

import pytest

import oracles
from fptopos.corpus import (_refined_key, _same_colour,
                            enumerate_presheaves)
from fptopos.fincat import catalog
from fptopos.files import resolve_base
from fptopos.presheaf import (_hom_search, is_isomorphic,
                              make_from_generators)

PT = catalog("point")
TD = catalog("two-discrete")
RG = catalog("refgraph")
GR = catalog("graph")


def test_point_counts():
    # sets of size 0, 1, 2 — one iso class each
    assert len(enumerate_presheaves(PT, 2)) == 3


def test_two_discrete_counts():
    # pairs of sizes (0,0), (0,1), (1,0), (1,1)
    assert len(enumerate_presheaves(TD, 1)) == 4


def test_refgraph_small_counts_match_brute_force():
    for bounds in ({"V": 1, "E": 2}, {"V": 2, "E": 2}):
        index = enumerate_presheaves(RG, bounds)
        raw = list(oracles.brute_force_presheaves(RG, bounds))
        assert len(index) == oracles.recount_classes(raw)
    assert len(enumerate_presheaves(RG, {"V": 1, "E": 2})) == 3


def test_graph_counts_match_brute_force():
    bounds = {"V": 2, "E": 2}
    index = enumerate_presheaves(GR, bounds)
    raw = list(oracles.brute_force_presheaves(GR, bounds))
    assert len(index) == oracles.recount_classes(raw) == 13


def test_refgraph_bound_two_shapes():
    index = enumerate_presheaves(RG, {"V": 2, "E": 2})
    sizes = sorted((len(X.sets["V"]), len(X.sets["E"])) for X in index)
    assert sizes == [(0, 0), (1, 1), (1, 2), (2, 2)]


def test_enumeration_is_deterministic():
    a = [_shape(X) for X in enumerate_presheaves(RG, {"V": 2, "E": 3})]
    b = [_shape(X) for X in enumerate_presheaves(RG, {"V": 2, "E": 3})]
    assert a == b


def test_refined_key_is_relabeling_invariant():
    X = make_from_generators(RG, {"V": ("p", "q"), "E": ("lp", "lq", "a")},
                      {"s": {"lp": "p", "lq": "q", "a": "p"},
                       "t": {"lp": "p", "lq": "q", "a": "q"},
                       "sigma": {"p": "lp", "q": "lq"}})
    Y = make_from_generators(RG, {"V": ("0", "1"), "E": ("x", "y", "z")},
                      {"s": {"y": "1", "z": "0", "x": "0"},
                       "t": {"y": "1", "z": "1", "x": "0"},
                       "sigma": {"0": "x", "1": "y"}})
    assert is_isomorphic(X, Y)
    assert _refined_key_of(X) == _refined_key_of(Y)


def test_every_enumerated_object_is_within_bounds():
    bounds = {"V": 2, "E": 3}
    for X in enumerate_presheaves(RG, bounds):
        for c, n in bounds.items():
            assert len(X.sets[c]) <= n


def test_no_duplicate_iso_classes():
    objs = list(enumerate_presheaves(RG, {"V": 2, "E": 3}))
    assert oracles.recount_classes(objs) == len(objs)


CATALOG = ("point", "two-discrete", "sierpinski", "graph", "refgraph")


def _bounds(C, n):
    return {c: n for c in C.objects}


def _shape(X):
    """Name, stages and action tables of X, down to dict order."""
    return (X.name, list(X.sets.items()),
            [(m, list(table.items())) for m, table in X.actions.items()])


ORACLE_CASES = {**{"%s-3" % name: (name, 3) for name in CATALOG},
                "refgraph-V2E3": ("refgraph", {"V": 2, "E": 3}),
                "refgraph.cat-V3E2": ("samples/refgraph.cat",
                                      {"V": 3, "E": 2})}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_corpus_matches_the_product_oracle(case):
    base, bounds = ORACLE_CASES[case]
    C = resolve_base(base)
    if isinstance(bounds, int):
        bounds = _bounds(C, bounds)
    got = enumerate_presheaves(C, bounds)
    want = oracles.canonical_dedup_corpus(C, bounds)
    assert [_shape(X) for X in got] == [_shape(X) for X in want]


@pytest.mark.parametrize("base", CATALOG)
def test_bound_three_counts_match_brute_force(base):
    C = catalog(base)
    raw = list(oracles.brute_force_presheaves(C, _bounds(C, 3)))
    assert len(enumerate_presheaves(C, 3)) == oracles.recount_classes(raw)


def _refined(X):
    """The refined key of X and the stable colours of its elements."""
    C = X.base
    index = {c: {x: i for i, x in enumerate(X.sets[c])} for c in C.objects}
    tables = {g: tuple(index[C.dom(g)][X.act(g, x)]
                       for x in X.sets[C.cod(g)])
              for g in C.generating_morphisms()}
    return _refined_key(C, X.size_vector(), tables)


def _refined_key_of(X):
    return _refined(X)[0]


def _buckets(corpus):
    buckets = {}
    for X in corpus:
        buckets.setdefault(_refined_key_of(X), []).append(X)
    return buckets


def test_keys_are_relabeling_invariant_and_separate_classes():
    # The key is an invariant, not a complete one: the classes that share
    # it are told apart by the iso test, which a bucket of graph bound 3
    # with several classes exercises.
    rng = random.Random(31)
    for base in CATALOG:
        corpus = enumerate_presheaves(catalog(base), 3)
        for X in corpus:
            R = oracles.renamed(X, rng)
            assert _refined_key_of(R) == _refined_key_of(X), X
    buckets = _buckets(enumerate_presheaves(GR, 3))
    assert max(len(bucket) for bucket in buckets.values()) > 1


@pytest.mark.parametrize("base", CATALOG)
def test_colour_restricted_iso_search_matches_brute_force(base):
    # Every pair of objects that share a bucket: the corpus objects (no
    # two isomorphic) and a renamed copy of each (isomorphic to it).
    rng = random.Random(7)
    corpus = enumerate_presheaves(catalog(base), 3)
    pairs = 0
    for bucket in _buckets(corpus).values():
        objs = bucket + [oracles.renamed(X, rng) for X in bucket]
        for X in objs:
            colours = _refined(X)[1]
            for Y in objs:
                values = _same_colour(X, colours, Y, _refined(Y)[1])
                got = next(_hom_search(X, Y, True, values), None)
                want = oracles.brute_force_iso(X, Y)
                assert (got is None) == (want is None), (X, Y)
                pairs += 1
    assert pairs >= 4 * len(corpus)


LEAST_CASES = {**{"%s-3" % name: (name, 3) for name in CATALOG},
               "graph-V4E3": ("graph", {"V": 4, "E": 3}),
               "refgraph-4": ("refgraph", 4)}


@pytest.mark.parametrize("case", sorted(LEAST_CASES))
def test_representatives_are_their_own_least_relabelling(case):
    # The search drops a partial table when a swap of two elements of one
    # stage makes it smaller; that keeps every class only because the
    # first leaf of each class (its representative) has the least
    # generator tables over all stage-wise permutations.  Leaves come in
    # lexicographic order, so the corpus is in the order of the
    # brute-force canonical key with no sort.
    base, bounds = LEAST_CASES[case]
    C = catalog(base)
    gens = C.generating_morphisms()
    corpus = enumerate_presheaves(C, bounds)
    for X in corpus:
        assert oracles.action_tables(X, gens) == \
            oracles.brute_force_least_tables(X, gens), (case, X.name)
    keys = [oracles.brute_force_canonical_key(X) for X in corpus]
    assert keys == sorted(keys), case

