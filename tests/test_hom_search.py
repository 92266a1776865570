"""The propagating hom search against the stage-wise reference search,
and verdicts under renaming and reordering of elements, down to the
fiber conditions of each epi, and up to the verdicts quantified over a
whole corpus."""

import random
from collections import Counter

import pytest

import oracles
from fptopos.corpus import Corpus, enumerate_presheaves
from fptopos.fincat import catalog
from fptopos.files import resolve_base
from fptopos.decidable import (check_dqo, check_dqo_bounded, check_dso,
                               check_dso_bounded, dec_is_topos_check,
                               is_connected, is_decidable, pi)
from fptopos.harness import epi_conditions, lemma_report, props_report
from fptopos.presheaf import (find_iso, homs, is_epi, is_isomorphic,
                              make_presheaf, nat_transformations)
from fptopos.sublattice import has_pneumoconnected_fibers, pc_masks


def test_kernel_matches_brute_force_oracle():
    pairs = 0
    for C, corpus in oracles.bound_two_corpora():
        for X in oracles.sample_objects(C, corpus):
            for Y in corpus:
                got = nat_transformations(X, Y)
                want = oracles.brute_force_homs(X, Y)
                # Same components in the same order, down to dict order.
                assert [list(f.components.items()) for f in got] == \
                    [list(f.components.items()) for f in want], (X, Y)
                iso, ref = find_iso(X, Y), oracles.brute_force_iso(X, Y)
                if ref is None:
                    assert iso is None, (X, Y)
                else:
                    assert iso.components == ref.components, (X, Y)
                pairs += 1
    assert pairs == 1584


@pytest.mark.parametrize("base, epis, maps", [
    ("point", 18, 60), ("two-discrete", 324, 3600),
    ("sierpinski", 274, 3203), ("graph", 1291, 23112), ("refgraph", 34, 186),
    ("samples/idem.cat", 31, 146), ("samples/lz.cat", 34, 186)])
def test_epi_mode_matches_the_filtered_brute_force(base, epis, maps):
    # The epis are the hom-set's epis, in its order, down to dict order,
    # on every pair of the bound-3 corpus.
    corpus = enumerate_presheaves(resolve_base(base), 3)
    counts = Counter()
    for X in corpus:
        for Y in corpus:
            got = list(homs(X, Y, epi=True))
            every = oracles.brute_force_homs(X, Y)
            want = [f for f in every if is_epi(f)]
            assert [list(f.components.items()) for f in got] == \
                [list(f.components.items()) for f in want], (X, Y)
            counts.update(epis=len(got), maps=len(every))
    assert counts == {"epis": epis, "maps": maps}


def _point_set(prefix, n):
    return make_presheaf(catalog("point"), {
        "*": ["%s%d" % (prefix, i) for i in range(n)]}, {}, prefix)


def test_homs_stream_without_listing_the_hom_set():
    # Between two 9-element sets there are 9^9 (about 387 M) maps; the
    # stream gives the first ones at once, in the order of the list, and
    # find_iso stops at the first iso.
    X, Y = _point_set("x", 9), _point_set("y", 9)
    stream = homs(X, Y)
    first, second = next(stream), next(stream)
    assert first.components == {"*": {"x%d" % i: "y0" for i in range(9)}}
    assert second.components == {"*": {**first.components["*"],
                                       "x8": "y1"}}
    assert find_iso(X, Y).components == {
        "*": {"x%d" % i: "y%d" % i for i in range(9)}}
    small, three = _point_set("x", 3), _point_set("y", 3)
    assert [f.components for f in homs(small, three)] == \
        [f.components for f in nat_transformations(small, three)]


def _fiber_profile(X, Y, decidables):
    """The multiset of fiber-condition triples over the epis X → Y, and
    the number of arrows X → Y with pneumoconnected fibers."""
    pc = pc_masks(X)
    arrows = nat_transformations(X, Y)
    triples = Counter(epi_conditions(q, decidables, pc=pc)
                      for q in arrows if is_epi(q))
    return triples, sum(has_pneumoconnected_fibers(f, pc=pc)
                        for f in arrows)


def test_verdicts_do_not_depend_on_element_names_or_order():
    rng = random.Random(20231)
    for _C, corpus in oracles.bound_two_corpora():
        decidables = [X for X in corpus if is_decidable(X)]
        for X in corpus:
            R = oracles.renamed(X, rng)
            assert pi(R).quotient.size_vector() == \
                pi(X).quotient.size_vector()
            assert is_decidable(R) == is_decidable(X)
            assert is_connected(R) == is_connected(X)
            assert check_dqo(R).verdict == check_dqo(X).verdict
            assert check_dso(R).verdict == check_dso(X).verdict
            for Y in corpus:
                assert len(nat_transformations(R, Y)) == \
                    len(nat_transformations(X, Y))
                assert len(nat_transformations(Y, R)) == \
                    len(nat_transformations(Y, X))
                assert is_isomorphic(R, Y) == is_isomorphic(X, Y) == \
                    (X is Y)
                assert _fiber_profile(R, Y, decidables) == \
                    _fiber_profile(X, Y, decidables)


def props_walked(corpus):
    """The property battery with every property walked, NS or not."""
    return props_report(corpus, forced=frozenset())


CORPUS_CHECKS = (check_dqo_bounded, check_dso_bounded, dec_is_topos_check,
                 lemma_report, props_walked)


def test_corpus_verdicts_do_not_depend_on_element_names_or_order():
    # A corpus of renamed, reordered copies gives each corpus-quantified
    # check the same verdict and details.  Precohesion and the theorem
    # harnesses read only the base.
    rng = random.Random(8)
    seen = Counter()
    for C, corpus in oracles.bound_two_corpora():
        copies = [oracles.renamed(X, rng) for X in corpus]
        for check in CORPUS_CHECKS:
            want = check(Corpus(C, corpus))
            got = check(Corpus(C, copies))
            assert (got.verdict, got.details) == \
                (want.verdict, want.details), (C.name, check.__name__)
            seen[want.verdict] += 1
    # Failing paths are among those compared.
    assert seen == {"holds-at-bound": 6, "agree": 5, "holds": 6,
                    "fails": 8}
