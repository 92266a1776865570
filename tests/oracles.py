"""Independent oracles shared by unit and acceptance tests.

Everything here is deliberately written without reusing the library's
own machinery for the thing it checks: classical truth-table semantics
for forcing on the one-object base, a union-find component counter for
the decidable-quotient point count, a quadratic iso-dedup recount
for corpus sizes (with the brute-force iso search below), the least
relabeled table over every stage-wise permutation as the reference for
the corpus representatives (each the least relabelling of its
generator tables) and for the corpus order, the corpus from the full
product of generator tables deduplicated and sorted by that key as the
reference for `corpus.enumerate_presheaves`,
stage-wise hom and iso searches (whole stages filled in, then checked)
as the reference for `presheaf._hom_search`, the maps into 2 from the
hom search, Sub_c(X) as their preimages of inl(*), whether they all
factor through an epi, Π built from them, Π(X×Y) ≅ ΠX × ΠY decided by
an iso search, whether every listed map into a decidable factors
through an arrow and Y^X built from the hom-sets Hom(y(c)×X, Y), as
the references for the lemma's condition (iii) and the exponential
ideal read per component, and DQO and DSO decided by listing every subfunctor of
X×X or of X, as the reference for their readings off the components of
the category of elements, and complemented parts
found by filtering every subobject (Sub_c(X)) or every element of the
power object by forcing (P_c(X)), as the reference for Sub_c(X),
NS decided by listing the points of each representable, as the
reference for the point search on the hom-sets, and by searching a
corpus for a nonempty object without points,
monos as pointwise injections and the power object P(X), which only the
tests use, P_c(X) as a relation object of named relations, and the
pneumoconnected-fiber condition checked on its relation tables and its
formula evaluated by the forcing interpreter, as the references for
P_c(X) on component masks and the fiber check on masks, and a
complemented diagonal as the reference for decidability read off the
restriction maps, the Heyting algebra of subobjects, the diagonal
X ↣ X×X, quotients by a congruence on X×X and the separated reflection
built from them as the reference for complemented and ¬¬-dense parts
and ¬¬-equality read off the restriction tables, the subobject
classifier Ω built from sieves as the reference for subobject counts,
and the hom-set bijection of an adjunction, Π(f), the adjoint string
with f^!S = Hom(f_*y(−), S) built and the triangle identities of
Π ⊣ inclusion ⊣ f_* ⊣ f^!, the listing check that decidables
are closed under subobjects and products, the Nullstellensatz map θ_X
and theorem C's ¬¬-dense f_*X and epic Π(ι) built from Π, theorem
B's reflectivity and DQO at each object, and DQO and DSO checked at
every corpus object (`require_axioms`), which NS forces, as the
references for the checks that hold by construction and are no longer
run, and the corpus walks of Π's products, the exponential ideal,
products of connected objects and ΠX ≅ 1 iff X is connected, which NS
on the base forces, as the references for `precohesion`, theorems A and
B and the four properties that no longer walk on an NS base.  The
restriction
of P_c(X) on component masks is here because only the tests use it, and
the inverse f_* ⊣ f^! transpose found by a search over Hom(f_*X, S) is
the reference for the one read off its formula.  Identity arrows,
factoring through an epi, the Yoneda arrow of an element and the ids of
arrows as elements are here because only the tests build them.
"""

from __future__ import annotations

import functools
import itertools
import random

from fptopos.corpus import Corpus, enumerate_presheaves
from fptopos.decidable import (_domain_maps, _factors_all, _is_equivalence,
                               check_dqo, check_dso,
                               exponential_is_decidable, is_connected,
                               is_decidable, pi, pi_sizes,
                               product_components, PiResult)
from fptopos.errors import (DEFAULT_SIZE_CAP, AxiomPrereqFailed,
                            PresheafError, SizeCapError, ToposError)
from fptopos.fincat import FinCategory, catalog
from dataclasses import dataclass, field

from fptopos.forcing import (And, Bot, Eq, Exists, Forall, Implies, Mem,
                             Not, Or, PairT, PowerSort, PresheafSort,
                             SubConst, Top, VarT, forces, universally_valid)
from fptopos.precohesion import require_ns
from fptopos.presheaf import (NatTrans, Presheaf, _cap, _same_base,
                              global_elements, inclusion_of, is_epi,
                              is_isomorphic,
                              make_from_generators, make_presheaf,
                              nat_transformations, pel, presheaf_snippet,
                              product,
                              quotient_by_pairs, sub_presheaf, subfunctors,
                              terminal, two, yoneda)
from fptopos.report import Countermodel, Result
from fptopos.sublattice import Subobject, complemented_subobjects


# ---------------------------------------------------------------------------
# arrows only the tests build

def identity_nat(X: Presheaf) -> NatTrans:
    return NatTrans(X, X, {c: {x: x for x in X.sets[c]}
                           for c in X.base.objects}, "id")


def factor_through(q: NatTrans, h: NatTrans):
    """The unique g with g∘q = h when h is constant on the fibers of the
    epi q; None if no such g exists."""
    Q, Z = q.cod, h.cod
    comps = {}
    for c in Q.base.objects:
        table = {}
        for x in q.dom.sets[c]:
            key = q.apply(c, x)
            val = h.apply(c, x)
            if table.get(key, val) != val:
                return None
            table[key] = val
        if set(table) != set(Q.sets[c]):
            return None  # q not epi at this stage
        comps[c] = table
    return NatTrans(Q, Z, comps)


def yoneda_arrow(X: Presheaf, c: str, x: str,
                 yc: Presheaf | None = None) -> NatTrans:
    """The arrow y(c) → X classifying x ∈ X(c) (Yoneda lemma)."""
    if yc is None:
        yc = yoneda(X.base, c)
    comps = {b: {h: X.act(h, x) for h in yc.sets[b]}
             for b in X.base.objects}
    return NatTrans(yc, X, comps)


def _encode_nat(C: FinCategory, nt: NatTrans) -> str:
    chunks = []
    for d in C.objects:
        for e in nt.dom.sets[d]:
            chunks.append("%s:%s->%s" % (d, e, nt.apply(d, e)))
    return "{" + ";".join(chunks) + "}"


# ---------------------------------------------------------------------------
# classical semantics on the one-object base

def _eval_term(t, env):
    if isinstance(t, VarT):
        return env[t.name]
    if isinstance(t, PairT):
        return pel(_eval_term(t.left, env), _eval_term(t.right, env))
    raise TypeError(t)


def classical_truth(phi, env):
    """Set-theoretic truth over the single stage '*'."""
    if isinstance(phi, Top):
        return True
    if isinstance(phi, Bot):
        return False
    if isinstance(phi, Eq):
        return _eval_term(phi.left, env) == _eval_term(phi.right, env)
    if isinstance(phi, Mem):
        assert isinstance(phi.container, SubConst)
        return _eval_term(phi.elem, env) in phi.container.sub.parts["*"]
    if isinstance(phi, And):
        return classical_truth(phi.left, env) and \
            classical_truth(phi.right, env)
    if isinstance(phi, Or):
        return classical_truth(phi.left, env) or \
            classical_truth(phi.right, env)
    if isinstance(phi, Implies):
        return (not classical_truth(phi.left, env)) or \
            classical_truth(phi.right, env)
    if isinstance(phi, Not):
        return not classical_truth(phi.body, env)
    if isinstance(phi, Forall):
        return all(classical_truth(phi.body, {**env, phi.var: v})
                   for v in phi.sort.values_at("*"))
    if isinstance(phi, Exists):
        return any(classical_truth(phi.body, {**env, phi.var: v})
                   for v in phi.sort.values_at("*"))
    raise TypeError(phi)


def random_formula(rng: random.Random, atoms, sorts, depth: int):
    """A deterministic pseudo-random formula over the given atom pool
    and quantifiable sorts."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(atoms)
    kind = rng.randrange(6)
    if kind == 0:
        return Not(random_formula(rng, atoms, sorts, depth - 1))
    if kind < 4:
        ctor = (And, Or, Implies)[kind - 1]
        return ctor(random_formula(rng, atoms, sorts, depth - 1),
                    random_formula(rng, atoms, sorts, depth - 1))
    var, sort = rng.choice(sorts)
    ctor = Forall if kind == 4 else Exists
    return ctor(var, sort, random_formula(rng, atoms, sorts, depth - 1))


def all_formulas(atoms, sorts, depth: int):
    """Every formula of exactly the given shape depth (exhaustive for
    small depth)."""
    if depth == 0:
        yield from atoms
        return
    smaller = list(all_formulas(atoms, sorts, depth - 1))
    for a in smaller:
        yield Not(a)
        for var, sort in sorts:
            yield Forall(var, sort, a)
            yield Exists(var, sort, a)
        for b in atoms:  # one side stays atomic to tame the blow-up
            yield And(a, b)
            yield Or(a, b)
            yield Implies(a, b)
            yield Implies(b, a)


# ---------------------------------------------------------------------------
# union-find component counter for presheaves on the reflexive-graph base

def component_count(X) -> int:
    parent = {v: v for v in X.sets["V"]}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in X.sets["E"]:
        a, b = find(X.act("s", e)), find(X.act("t", e))
        if a != b:
            parent[max(a, b)] = min(a, b)
    return len({find(v) for v in X.sets["V"]})


# ---------------------------------------------------------------------------
# quadratic recount of isomorphism classes

def recount_classes(candidates) -> int:
    reps = []
    for X in candidates:
        if not any(brute_force_iso(X, Y) is not None for Y in reps):
            reps.append(X)
    return len(reps)


def product_candidates(C, sizes: dict, element="%s%d"):
    """Every functorial presheaf with the given stage sizes (with
    duplicates across isomorphism), in the order of the full product of
    generator tables, each validated by make_from_generators; elements
    are named element % (stage, index)."""
    sets = {c: tuple(element % (c, i) for i in range(sizes[c]))
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
        gen_actions = {m: dict(zip(sets[C.cod(m)], values))
                       for m, values in zip(gens, combo)}
        try:
            yield make_from_generators(C, sets, gen_actions)
        except PresheafError:
            continue


def brute_force_presheaves(C, bounds: dict):
    """Every functorial presheaf (with duplicates across isomorphism)
    whose stage sizes meet the bounds, built independently of the
    library's corpus generator."""
    ranges = [range(bounds[c] + 1) for c in C.objects]
    for vector in itertools.product(*ranges):
        yield from product_candidates(C, dict(zip(C.objects, vector)),
                                      "%s#%d")


def brute_force_canonical_key(X):
    """Canonical form of a presheaf: minimal relabeled action table over
    all per-stage permutations, each tried."""
    return (X.size_vector(),
            brute_force_least_tables(X, X.base.nonidentity_morphisms()))


def action_tables(X, morphs) -> tuple:
    """The tables of the morphisms `morphs` in X, each the indices of the
    images of the elements of its codomain stage, in stage order."""
    C = X.base
    index = {c: {x: i for i, x in enumerate(X.sets[c])} for c in C.objects}
    return tuple(tuple(index[C.dom(m)][X.act(m, x)]
                       for x in X.sets[C.cod(m)]) for m in morphs)


def brute_force_least_tables(X, morphs) -> tuple:
    """The minimum of `action_tables(X, morphs)` over all relabellings of
    X by per-stage permutations, each tried."""
    C = X.base
    objs = list(C.objects)
    index = {c: {x: i for i, x in enumerate(X.sets[c])} for c in objs}
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
    return best


def canonical_dedup_corpus(C, bounds: dict) -> list:
    """The corpus as enumerate_presheaves built it before its search
    propagated relations: every product candidate, the first of each
    brute-force canonical key kept, sorted by that key and named X0,
    X1, ..."""
    seen = {}
    ranges = [range(bounds[c] + 1) for c in C.objects]
    for vector in itertools.product(*ranges):
        for X in product_candidates(C, dict(zip(C.objects, vector))):
            seen.setdefault(brute_force_canonical_key(X), X)
    ordered = [X for _key, X in sorted(seen.items(), key=lambda kv: kv[0])]
    for i, X in enumerate(ordered):
        X.name = "X%d" % i
    return ordered


# ---------------------------------------------------------------------------
# stage-wise hom and iso search: whole stages are filled in by
# itertools.product / permutations and only then checked for naturality

def brute_force_homs(X, Y) -> list[NatTrans]:
    """All natural transformations X → Y, by stage-wise backtracking with
    naturality pruning; duplicate-free, deterministic order."""
    _same_base(X, Y)
    C = X.base
    objs = list(C.objects)
    # Morphisms checkable once stage i is assigned.
    checklists = []
    for i, o in enumerate(objs):
        done = set(objs[:i + 1])
        lst = []
        for m in C.nonidentity_morphisms():
            d, c = C.morphisms[m]
            if (d == o or c == o) and d in done and c in done:
                lst.append(m)
        checklists.append(lst)

    results = []
    comp: dict[str, dict[str, str]] = {}

    def consistent(i) -> bool:
        for m in checklists[i]:
            d, c = C.morphisms[m]
            for x in X.sets[c]:
                if comp[d][X.act(m, x)] != Y.act(m, comp[c][x]):
                    return False
        return True

    def rec(i):
        if i == len(objs):
            results.append(NatTrans(
                X, Y, {o: dict(comp[o]) for o in objs}))
            return
        c = objs[i]
        xs = X.sets[c]
        if xs and not Y.sets[c]:
            return
        for vals in itertools.product(Y.sets[c], repeat=len(xs)):
            comp[c] = dict(zip(xs, vals))
            if consistent(i):
                rec(i + 1)
        comp.pop(c, None)

    rec(0)
    return results


def brute_force_iso(X, Y):
    """A natural family of bijections X → Y, or None; exhaustive search
    with stage-wise cardinality pruning."""
    _same_base(X, Y)
    C = X.base
    if X.size_vector() != Y.size_vector():
        return None
    objs = list(C.objects)
    checklists = []
    for i, o in enumerate(objs):
        done = set(objs[:i + 1])
        checklists.append([m for m in C.nonidentity_morphisms()
                           if set(C.morphisms[m]) <= done
                           and o in C.morphisms[m]])
    comp = {}

    def consistent(i):
        for m in checklists[i]:
            d, c = C.morphisms[m]
            for x in X.sets[c]:
                if comp[d][X.act(m, x)] != Y.act(m, comp[c][x]):
                    return False
        return True

    def rec(i):
        if i == len(objs):
            return NatTrans(X, Y, {o: dict(comp[o]) for o in objs}, "iso")
        c = objs[i]
        for perm in itertools.permutations(Y.sets[c]):
            comp[c] = dict(zip(X.sets[c], perm))
            if consistent(i):
                found = rec(i + 1)
                if found is not None:
                    return found
        comp.pop(c, None)
        return None

    return rec(0)


# ---------------------------------------------------------------------------
# maps into 2 from the hom search, Sub_c, the condition that every map
# into 2 factors through an epi, Π and its product comparison from them,
# and DQO and DSO by listing every subfunctor

def hom_search_maps_to_two(X, cap=DEFAULT_SIZE_CAP) -> list[NatTrans]:
    """Hom(X, 2) by the hom search; raises SizeCapError above cap."""
    homs = nat_transformations(X, two(X.base)[0])
    if len(homs) > cap:
        raise SizeCapError("Hom(X,2) has %d elements (cap %d)"
                           % (len(homs), cap))
    return homs


def hom_search_complemented_parts(X, cap=DEFAULT_SIZE_CAP) -> list[dict]:
    """Sub_c(X) as the preimages of inl(*) under the maps X → 2 of the
    hom search, ordered by their sorted stage parts."""
    C = X.base
    parts = [{c: frozenset(x for x in X.sets[c]
                           if h.apply(c, x) == "inl(*)")
              for c in C.objects}
             for h in hom_search_maps_to_two(X, cap)]
    return sorted(parts, key=lambda p: tuple(tuple(sorted(p[c]))
                                             for c in C.objects))


def factor_all(q: NatTrans, maps: list[dict]) -> bool:
    """Whether every map out of q's domain (as components) factors
    through q, that is, q is epi and each is constant on q's fibers;
    true when there are no maps, as for `factor_through` one by one."""
    if not maps:
        return True
    if not is_epi(q):
        return False
    # (c, x, x0): x and an earlier x0 of its fiber, which a map
    # constant on the fibers sends to the same place.
    pairs = []
    for c, comp in q.components.items():
        first = {}
        for x, y in comp.items():
            x0 = first.setdefault(y, x)
            if x0 != x:
                pairs.append((c, x, x0))
    return all(h[c][x] == h[c][x0] for h in maps for c, x, x0 in pairs)


def exponential(X, Y, cap=DEFAULT_SIZE_CAP):
    """The exponential Y^X: stage c is the set of natural transformations
    y(c)×X → Y, restriction by precomposition."""
    _same_base(X, Y)
    C = X.base
    stage_data = {}
    for c in C.objects:
        yc = yoneda(C, c)
        B, _p1, _p2 = product(yc, X, cap)
        homs = nat_transformations(B, Y)
        _cap(len(homs), cap, "exponential")
        stage_data[c] = (yc, B, homs)

    sets = {}
    ids = {}
    for c in C.objects:
        _yc, _B, homs = stage_data[c]
        named = sorted(((_encode_nat(C, h), h) for h in homs),
                       key=lambda t: t[0])
        sets[c] = tuple(n for n, _h in named)
        ids[c] = {n: h for n, h in named}

    actions = {}
    for m in C.nonidentity_morphisms():
        b, c = C.morphisms[m]
        table = {}
        _ycb, Bb, _homsb = stage_data[b]
        for n in sets[c]:
            theta = ids[c][n]
            comps = {}
            for d in C.objects:
                comps[d] = {}
                for g in C.hom(d, b):
                    for x in X.sets[d]:
                        comps[d][pel(g, x)] = theta.apply(
                            d, pel(C.compose(m, g), x))
            restricted = NatTrans(Bb, Y, comps)
            table[n] = _encode_nat(C, restricted)
            if table[n] not in ids[b]:
                raise PresheafError("NotFunctorial",
                                    "exponential restriction escaped stage")
        actions[m] = table
    return make_presheaf(C, sets, actions,
                         "%s^%s" % (Y.name or "Y", X.name or "X"))


def two_inverting_by_hom_search(q) -> bool:
    """Whether every map X → 2 of the hom search factors through q."""
    return factor_all(q, [h.components
                           for h in hom_search_maps_to_two(q.dom)])


def iso_pi_product_failures(corpus):
    """The pairs (X, Y) of corpus objects with Π(X×Y) ≇ ΠX × ΠY, in
    corpus order, by building Π(X×Y) and the product of the quotients
    and searching for an iso between them."""
    cap = corpus.cap
    for X in corpus:
        for Y in corpus:
            P, _p1, _p2 = product(X, Y, cap)
            rhs, _q1, _q2 = product(corpus.fact(pi, X).quotient,
                                    corpus.fact(pi, Y).quotient, cap)
            if not is_isomorphic(pi(P, cap).quotient, rhs):
                yield X, Y


# ---------------------------------------------------------------------------
# the corpus walks that `precohesion`, theorems A and B and four
# `verify props` properties ran before NS on the base decided them

def pi_product_failures(corpus) -> list:
    """The pairs (X, Y) of corpus objects with Π(X×Y) ≇ ΠX × ΠY, from
    the stage sizes: the comparison map is onto at every stage, so it is
    an iso iff the sizes agree."""
    sizes = [pi_sizes(X) for X in corpus]
    return [(X, Y) for X, a in zip(corpus, sizes)
            for Y, b in zip(corpus, sizes)
            if product_components(X, Y, corpus.cap)[0]
            != tuple(i * j for i, j in zip(a, b))]


def exponential_failures(corpus) -> list:
    """The pairs (X, Y), Y a corpus decidable, with Y^X not decidable."""
    return [(X, Y) for X in corpus for Y in corpus.decidables()
            if not exponential_is_decidable(X, Y, corpus.cap)]


def connected_product_failures(corpus) -> list:
    """The pairs of connected corpus objects whose product is not."""
    connected = [X for X in corpus if is_connected(X)]
    return [(X, Y) for X in connected for Y in connected
            if product_components(X, Y, corpus.cap)[1] != 1]


def pi_one_failures(corpus) -> list:
    """The corpus objects X for which X connected and ΠX ≅ 1 disagree."""
    one = terminal(corpus.base).size_vector()
    return [X for X in corpus if is_connected(X) != (pi_sizes(X) == one)]


def image_in_power_of_two(X, cap=DEFAULT_SIZE_CAP):
    """(Π(X), X → Π(X)) as the image of the canonical map X → 2^Hom(X,2),
    each element named by the tuple of its values under the maps X → 2
    sorted by their keys."""
    C = X.base
    homs = sorted(hom_search_maps_to_two(X, cap), key=lambda h: h.key())
    tuples = {c: {x: "(%s)" % "|".join(h.apply(c, x) for h in homs)
                  for x in X.sets[c]}
              for c in C.objects}
    sets = {c: tuple(dict.fromkeys(tuples[c].values())) for c in C.objects}
    actions = {}
    for m in C.nonidentity_morphisms():
        d, c = C.morphisms[m]
        table = {}
        for x in X.sets[c]:
            key, val = tuples[c][x], tuples[d][X.act(m, x)]
            assert table.setdefault(key, val) == val
        actions[m] = table
    Q = make_presheaf(C, sets, actions, "Π(%s)" % (X.name or "X"))
    return Q, NatTrans(X, Q, tuples, "p")


def congruences(X, cap=DEFAULT_SIZE_CAP) -> list[Subobject]:
    """All subfunctors of X×X that are stage-wise equivalence
    relations."""
    P, _p1, _p2 = product(X, X, cap)
    return [Subobject(P, parts) for parts in subfunctors(P, cap)
            if _is_equivalence(X, parts)]


def listed_check_dqo(X, cap=DEFAULT_SIZE_CAP) -> Result:
    """DQO at X: of all congruences, exactly one has a decidable
    quotient that factors every arrow X → 2."""
    homs = [h.components for h in nat_transformations(X, two(X.base)[0])]
    witnesses = []
    for R in congruences(X, cap):
        Q, q = quotient(X, R)
        if is_decidable(Q) and factor_all(q, homs):
            witnesses.append(R)
    if len(witnesses) == 1:
        return Result("holds")
    return Result("fails", [{
        "object": presheaf_snippet(X),
        "factoring_congruences": [{c: sorted(R.parts[c])
                                   for c in X.base.objects}
                                  for R in witnesses]}])


def check_dqo_of_square(X, cap=DEFAULT_SIZE_CAP) -> Result:
    """DQO at X×X: a per-object check that hits the size cap where a
    stage of X×X has more than `cap` elements, as the DQO check of X
    itself no longer does."""
    return check_dqo(product(X, X, cap)[0], cap)


def listed_check_dso(X, cap=DEFAULT_SIZE_CAP) -> Result:
    """DSO at X: of all subfunctors, exactly one is decidable and has
    every global point of X."""
    points = global_elements(X)
    candidates = [parts for parts in subfunctors(X, cap)
                  if is_decidable(sub_presheaf(X, parts))
                  and all(p.apply(c, "*") in parts[c]
                          for p in points for c in X.base.objects)]
    snippet = [{c: sorted(p[c]) for c in X.base.objects}
               for p in candidates]
    if len(candidates) == 1:
        return Result("holds", [{"object": presheaf_snippet(X),
                                 "subobject": snippet[0]}])
    return Result("fails", [{"object": presheaf_snippet(X),
                             "decidable_subobjects": snippet}])


# ---------------------------------------------------------------------------
# the adjoint string f_! ⊣ f^* ⊣ f_* ⊣ f^! built over a corpus, with the
# f_* ⊣ f^! triangle identities checked on f^!S = Hom(f_*y(−), S)

def require_axioms(corpus: Corpus) -> None:
    """Raise AxiomPrereqFailed, naming the axiom, unless NS holds on the
    base and DQO and DSO hold at every corpus object, as `precohesion`
    checked them before NS was known to force both."""
    require_ns(corpus.base)
    for X in corpus:
        if not corpus.fact(check_dqo, X).holds():
            raise AxiomPrereqFailed("DQO fails at %r" % X.name,
                                    witness=presheaf_snippet(X))
        if not corpus.fact(check_dso, X).holds():
            raise AxiomPrereqFailed("DSO fails at %r" % X.name,
                                    witness=presheaf_snippet(X))


class TriangleIdentityFailed(ToposError):
    """An adjunction triangle identity failed on a concrete object."""

    kind = "TriangleIdentityFailed"


@dataclass(eq=False)
class AdjointString:
    """The four functors and their adjunction data over one corpus.

    Π and the DSO reports of corpus objects come from the corpus memo;
    the caches here hold what is built for the string itself."""

    corpus: Corpus
    _fstar: dict = field(default_factory=dict)
    _fstar_y: dict = field(default_factory=dict)
    _fshriek_y: dict = field(default_factory=dict)
    _decode: dict = field(default_factory=dict)

    @property
    def base(self) -> FinCategory:
        return self.corpus.base

    # -- f_! = Π ---------------------------------------------------------

    def f_shriek(self, X: Presheaf) -> PiResult:
        return self.corpus.fact(pi, X)

    # -- f_* = DSO subobject --------------------------------------------

    def f_star(self, X: Presheaf):
        """(f_*X, counit inclusion f_*X ↪ X)."""
        if id(X) not in self._fstar:
            report = self.corpus.fact(check_dso, X)
            if not report.holds():
                raise PresheafError("DSOFails",
                                    "DSO fails at %r" % (X.name or "X"))
            part = report.witnesses[0]["subobject"]
            D, inc = inclusion_of(X, {c: frozenset(part[c])
                                      for c in self.base.objects})
            D.name = "f_*(%s)" % (X.name or "X")
            self._fstar[id(X)] = (D, inc)
        return self._fstar[id(X)]

    def f_star_arrow(self, h: NatTrans) -> NatTrans:
        """Restriction of h: X→Y to f_*X → f_*Y.  f_*X holds the values
        of the points of X, and h maps them to values of points of Y."""
        D, _i = self.f_star(h.dom)
        E, _j = self.f_star(h.cod)
        comps = {c: {x: h.apply(c, x) for x in D.sets[c]}
                 for c in self.base.objects}
        return NatTrans(D, E, comps, "f_*(%s)" % (h.name or "h"))

    def f_star_rep(self, c: str):
        """(y(c), f_*y(c), inclusion) for a representable stage."""
        if c not in self._fstar_y:
            yc = yoneda(self.base, c)
            D, i = self.f_star(yc)
            self._fstar_y[c] = (yc, D, i)
        return self._fstar_y[c]

    # -- f^! -------------------------------------------------------------

    def f_upper_shriek(self, S: Presheaf) -> Presheaf:
        """(f^!S)(c) = Hom(f_*y(c), S), restriction by precomposition."""
        if id(S) in self._fshriek_y:
            return self._fshriek_y[id(S)]
        C = self.base
        decode = {}
        sets = {}
        for c in C.objects:
            _yc, D, _i = self.f_star_rep(c)
            homs = sorted(nat_transformations(D, S), key=lambda h: h.key())
            ids = []
            for h in homs:
                eid = _encode_nat(C, h)
                ids.append(eid)
                decode[(c, eid)] = h
            sets[c] = tuple(ids)
        actions = {}
        for m in C.nonidentity_morphisms():
            d, c = C.morphisms[m]
            _yd, Dd, _ = self.f_star_rep(d)
            _yc, Dc, _ = self.f_star_rep(c)
            # f_*y(m): f_*y(d) → f_*y(c) is postcomposition with m.
            rm = NatTrans(Dd, Dc, {
                b: {j: C.compose(m, j) for j in Dd.sets[b]}
                for b in C.objects})
            actions[m] = {eid: _encode_nat(C, rm.then(decode[(c, eid)]))
                          for eid in sets[c]}
        out = make_presheaf(C, sets, actions, "f^!(%s)" % (S.name or "S"))
        self._fshriek_y[id(S)] = out
        self._decode[id(out)] = decode
        return out

    def f_upper_shriek_arrow(self, m: NatTrans) -> NatTrans:
        """f^!(m): f^!S → f^!T by postcomposition."""
        FS = self.f_upper_shriek(m.dom)
        FT = self.f_upper_shriek(m.cod)
        dec = self._decode[id(FS)]
        comps = {c: {eid: _encode_nat(self.base, dec[(c, eid)].then(m))
                     for eid in FS.sets[c]}
                 for c in self.base.objects}
        return NatTrans(FS, FT, comps)

    # -- the f_* ⊣ f^! adjunct maps -------------------------------------

    def phi(self, X: Presheaf, S: Presheaf, g: NatTrans) -> NatTrans:
        """Transpose Hom(f_*X, S) → Hom(X, f^!S): x at stage c goes to
        g ∘ f_*(x̂), and f_*(x̂): f_*y(c) → f_*X sends k to x·k."""
        C = self.base
        FS = self.f_upper_shriek(S)
        comps = {}
        for c in C.objects:
            _yc, D, _i = self.f_star_rep(c)
            comps[c] = {x: _encode_nat(C, NatTrans(D, g.dom, {
                b: {k: X.act(k, x) for k in D.sets[b]}
                for b in C.objects}).then(g)) for x in X.sets[c]}
        return NatTrans(X, FS, comps)

    def phi_inv(self, X: Presheaf, S: Presheaf, h: NatTrans) -> NatTrans:
        """Inverse transpose, read off h.  f_*X holds the values of the
        points of X, so x·k = x for x ∈ f_*X(c) and k ∈ f_*y(c)(c), which
        NS makes nonempty; a preimage g must then be g(x) = h(x)(k).  One
        check that phi(g) = h is enough: it also makes g natural, as
        g(x·m) = h(x)(k∘m) = h(x)(k)·m = g(x)·m."""
        D, _i = self.f_star(X)
        dec = self._decode[id(self.f_upper_shriek(S))]
        comps = {}
        for c in self.base.objects:
            k = next(iter(self.f_star_rep(c)[1].sets[c]), None)
            comps[c] = {x: dec[(c, h.apply(c, x))].apply(c, k)
                        for x in D.sets[c]}
        g = NatTrans(D, S, comps)
        if self.phi(X, S, g).components != h.components:
            raise TriangleIdentityFailed(
                "transpose of Hom(f_*X,S) ≅ Hom(X,f^!S) is not a "
                "bijection at X=%r S=%r (0 preimages)" % (X.name, S.name))
        return g

    # -- units / counits -------------------------------------------------

    def unit_fs(self, X: Presheaf) -> NatTrans:
        D, _i = self.f_star(X)
        return self.phi(X, D, identity_nat(D))

    def counit_fs(self, S: Presheaf) -> NatTrans:
        FS = self.f_upper_shriek(S)
        return self.phi_inv(FS, S, identity_nat(FS))

    # -- verification ----------------------------------------------------

    def decidables(self) -> list[Presheaf]:
        return self.corpus.decidables()

    def verify_triangles(self) -> list[str]:
        """The f_* ⊣ f^! triangle identities at every corpus object;
        returns the list of violated identities (empty = pass).  Those of
        Π ⊣ inclusion ⊣ f_* hold once NS, DQO and DSO do: p_S is one-to-one
        for decidable S (R₀ = Δ there, and DQO gives K = R₀), p_{ΠX} is
        one-to-one as ΠX restricts identically, and f_*S = S, as DSO holds
        at S and S is decidable and contains the values of its points."""
        bad = []
        for X in self.corpus:
            # f_* ⊣ f^!: ε_{f_*X} ∘ f_*(η_X) = id.
            D, _i = self.f_star(X)
            lhs = self.f_star_arrow(self.unit_fs(X)).then(self.counit_fs(D))
            if not lhs.same_components(identity_nat(D)):
                bad.append("fs-triangle-left@%s" % X.name)
        for S in self.decidables():
            # f_* ⊣ f^!: f^!(ε_S) ∘ η_{f^!S} = id.
            FS = self.f_upper_shriek(S)
            lhs = self.unit_fs(FS).then(
                self.f_upper_shriek_arrow(self.counit_fs(S)))
            if not lhs.same_components(identity_nat(FS)):
                bad.append("fs-triangle-right@%s" % S.name)
        return bad


def adjoint_string(corpus: Corpus) -> AdjointString:
    """The adjoint string over the corpus once NS, DQO and DSO hold
    (else AxiomPrereqFailed), its f_* ⊣ f^! triangle identities checked
    as `precohesion` checked them before they were known to hold by
    construction."""
    require_axioms(corpus)
    adj = AdjointString(corpus)
    bad = adj.verify_triangles()
    if bad:
        raise TriangleIdentityFailed("; ".join(bad))
    return adj


# ---------------------------------------------------------------------------
# what holds by construction: hom-set bijections, Π(f), the triangle
# identities of Π ⊣ inclusion ⊣ f_*, the f_* ⊣ f^! transpose found by
# search, and decidables closed under subobjects and products

def bijective(transpose, lhs: list[NatTrans], rhs: list[NatTrans]) -> bool:
    """Whether transpose maps the hom-set lhs one-to-one onto the
    hom-set rhs (arrows compared by their components)."""
    images = {transpose(g).key() for g in lhs}
    return len(images) == len(lhs) and images == {g.key() for g in rhs}


def pi_arrow(f, pi_dom, pi_cod) -> NatTrans:
    """The induced arrow Π(f): ΠX → ΠY, p_Y ∘ f factored through p_X,
    given Π of f's domain and codomain."""
    g = factor_through(pi_dom.map, f.then(pi_cod.map))
    if g is None:
        raise PresheafError("NotFunctorial",
                            "Π(f) failed to factor; NS+DQO may fail here")
    return g


def counit_pi(adj, S) -> NatTrans:
    """ε_S: ΠS → S for decidable S, id_S factored through p_S."""
    eps = factor_through(adj.f_shriek(S).map, identity_nat(S))
    if eps is None:
        raise TriangleIdentityFailed(
            "identity of decidable %r does not factor through its "
            "decidable quotient" % S.name)
    return eps


def unit_inc(adj, S) -> NatTrans:
    """η_S: S → f_*S for decidable S, where f_*S must be all of S."""
    D, _i = adj.f_star(S)
    C = adj.base
    if any(set(D.sets[c]) != set(S.sets[c]) for c in C.objects):
        raise TriangleIdentityFailed(
            "f_* of decidable %r is a proper subobject" % S.name)
    return NatTrans(S, D, {c: {x: x for x in S.sets[c]} for c in C.objects})


def triangle_failures(adj) -> list[str]:
    """The triangle identities of Π ⊣ inclusion and inclusion ⊣ f_* at
    every corpus object and decidable, as the adjoint string checked
    them before they were known to hold once NS, DQO and DSO do."""
    bad = []
    for X in adj.corpus:
        # Π ⊣ inclusion: ε_{ΠX} ∘ Π(η_X) = id.
        r = adj.f_shriek(X)
        lhs = pi_arrow(r.map, r, adj.f_shriek(r.quotient)) \
            .then(counit_pi(adj, r.quotient))
        if not lhs.same_components(identity_nat(r.quotient)):
            bad.append("pi-triangle-left@%s" % X.name)
        # inclusion ⊣ f_*: f_*(ε_X) ∘ η_{f_*X} = id.
        D, i = adj.f_star(X)
        lhs = unit_inc(adj, D).then(adj.f_star_arrow(i))
        if not lhs.same_components(identity_nat(D)):
            bad.append("dso-triangle-right@%s" % X.name)
    for S in adj.decidables():
        # Π ⊣ inclusion: ε_S ∘ η_S = id on decidables.
        if not adj.f_shriek(S).map.then(counit_pi(adj, S)) \
                .same_components(identity_nat(S)):
            bad.append("pi-triangle-right@%s" % S.name)
        # inclusion ⊣ f_*: ε_S ∘ η_S = id.
        if not unit_inc(adj, S).then(adj.f_star(S)[1]) \
                .same_components(identity_nat(S)):
            bad.append("dso-triangle-left@%s" % S.name)
    return bad


def theta_is_epic(adj, X) -> bool:
    """The Nullstellensatz map θ_X = p_X ∘ ι: f_*X → ΠX is epic, from Π
    and f_*X built, as `precohesion` checked it before it was known to
    hold once NS, DQO and DSO do."""
    _D, i = adj.f_star(X)
    return is_epi(i.then(adj.f_shriek(X).map))


def dso_part_checks(adj, X) -> tuple[bool, bool]:
    """Theorem C's ingredients at X as its harness computed them: f_*X is
    ¬¬-dense in X, by the Heyting negation, and Π(ι) is epic, with Π(ι)
    factored through Π of f_*X."""
    D, i = adj.f_star(X)
    dense = is_nn_dense(Subobject(X, {c: frozenset(D.sets[c])
                                      for c in adj.base.objects}))
    pi_i = pi_arrow(i, adj.f_shriek(D), adj.f_shriek(X))
    return dense, is_epi(pi_i)


def reflective_and_dqo(corpus) -> list[tuple[bool, bool]]:
    """Per corpus object X: whether every map from X to a decidable
    factors through the built unit p_X: X ↠ ΠX, and whether DQO holds at
    X, the two sides of theorem B's check that reflectivity gives DQO."""
    decs = corpus.decidables()
    return [(_factors_all(corpus.fact(pi, X).map, _domain_maps(X, decs)),
             corpus.fact(check_dqo, X).holds()) for X in corpus]


def listed_phi_inv(adj, X, S, h) -> NatTrans:
    """The inverse f_* ⊣ f^! transpose of h: X → f^!S by search: the one
    g in Hom(f_*X, S) with phi(g) = h."""
    D, _i = adj.f_star(X)
    matches = [g for g in nat_transformations(D, S)
               if adj.phi(X, S, g).components == h.components]
    if len(matches) != 1:
        raise TriangleIdentityFailed(
            "transpose of Hom(f_*X,S) ≅ Hom(X,f^!S) is not a "
            "bijection at X=%r S=%r (%d preimages)"
            % (X.name, S.name, len(matches)))
    return matches[0]


def decidable_closure_failure(corpus):
    """The first decidable corpus object with a subobject, or pair of
    them with a product, that is not decidable, as a witness; None if
    there is none."""
    cap = corpus.cap
    decidables = corpus.decidables()
    for X in decidables:
        for parts in subfunctors(X, cap):
            if not is_decidable(sub_presheaf(X, parts), cap):
                return {"object": presheaf_snippet(X),
                        "subobject": {c: sorted(parts[c])
                                      for c in corpus.base.objects}}
        for Y in decidables:
            P, _p1, _p2 = product(X, Y, cap)
            if not is_decidable(P, cap):
                return {"left": presheaf_snippet(X),
                        "right": presheaf_snippet(Y)}
    return None


# ---------------------------------------------------------------------------
# test-only constructions: NS on the representables and by searching the
# corpus, monos, and the power object P(X)

def representable_check_ns(C: FinCategory) -> Result:
    """The reference for `precohesion.check_ns`, which searches the
    hom-sets for points: every representable y(c) built and its points
    listed by the hom search."""
    failing = []
    first = None
    for c in C.objects:
        yc = yoneda(C, c)
        if not global_elements(yc):
            failing.append("y(%s)" % c)
            if first is None:
                first = yc
    if failing:
        return Result("fails", [{"representable": failing[0],
                                 "all_failing": failing,
                                 "presheaf": presheaf_snippet(first)}])
    return Result("holds")


def ns_brute_force(corpus) -> Result:
    """Bounded falsifier companion to check_ns: search the corpus for a
    nonempty presheaf without global elements."""
    for X in corpus:
        if not X.is_empty() and not global_elements(X):
            return Result("fails", [{"presheaf": presheaf_snippet(X)}])
    return Result("holds-at-bound")


def is_mono(f) -> bool:
    """Pointwise injectivity."""
    return all(len(set(f.components[c].values())) == len(f.dom.sets[c])
               for c in f.dom.base.objects)


@dataclass(eq=False)
class PowerObject:
    """P(X), or a relation object such as P_c(X), with its membership
    data: each element at stage c is a subfunctor of X×y(c), decoded
    as stage → set of (x, hom) pairs."""

    of: object
    carrier: object
    relations: dict

    def contains(self, c, u, x) -> bool:
        """x ∈ u at stage c: (x, id_c) belongs to u's relation at c."""
        return (x, self.of.base.identity(c)) in self.relations[u][c]


def _relation_id(C, rel: dict) -> str:
    chunks = []
    for d in C.objects:
        for (x, g) in sorted(rel[d]):
            chunks.append("%s:%s:%s" % (d, x, g))
    return "{" + ";".join(chunks) + "}"


def _relation_object(X, parts_of, cap, name: str) -> PowerObject:
    """The presheaf whose stage c holds the subfunctors of X×y(c) that
    parts_of(X×y(c)) lists, each decoded as stage → set of (x, hom)
    pairs and named by _relation_id (stages in id order), with
    restriction by pullback along id×y(f)."""
    C = X.base
    stage_rels = {}
    relations = {}
    for c in C.objects:
        yc = yoneda(C, c)
        B, _p1, _p2 = product(X, yc, cap)
        decode = {d: {pel(x, g): (x, g)
                      for x in X.sets[d] for g in yc.sets[d]}
                  for d in C.objects}
        stage_rels[c] = {}
        for parts in parts_of(B):
            rel = {d: frozenset(decode[d][e] for e in parts[d])
                   for d in C.objects}
            stage_rels[c][_relation_id(C, rel)] = rel
        relations.update(stage_rels[c])

    sets = {c: tuple(sorted(stage_rels[c])) for c in C.objects}
    actions = {}
    for m in C.nonidentity_morphisms():
        b, c = C.morphisms[m]
        table = {}
        for n in sets[c]:
            rel = stage_rels[c][n]
            restricted = {}
            for d in C.objects:
                restricted[d] = frozenset(
                    (x, g) for x in X.sets[d] for g in C.hom(d, b)
                    if (x, C.compose(m, g)) in rel[d])
            rid = _relation_id(C, restricted)
            if rid not in stage_rels[b]:
                raise PresheafError("NotFunctorial",
                                    "restriction escaped stage %r of %s"
                                    % (b, name))
            table[n] = rid
        actions[m] = table
    return PowerObject(X, make_presheaf(C, sets, actions, name), relations)


def power_object(X, cap=DEFAULT_SIZE_CAP) -> PowerObject:
    """The power object P(X): P(X)(c) = subfunctors of X×y(c), with
    restriction by pullback along id×y(f)."""
    def parts_of(B):
        subs = subfunctors(B, cap)
        _cap(len(subs), cap, "power object")
        return subs
    return _relation_object(X, parts_of, cap, "P(%s)" % (X.name or "X"))


# ---------------------------------------------------------------------------
# the Heyting algebra of subobjects, the diagonal X ↣ X×X, quotients by a
# congruence on X×X, and the separated reflection built from them, as the
# reference for complemented and ¬¬-dense parts and ¬¬-equality read off
# the restriction tables

class AmbientMismatch(ToposError):
    kind = "AmbientMismatch"


def _same_ambient(S: Subobject, T: Subobject):
    if S.ambient is not T.ambient:
        raise AmbientMismatch("subobjects of different ambient presheaves")


def part_sizes(S: Subobject) -> tuple:
    return tuple(len(S.parts[c]) for c in S.ambient.base.objects)


def is_full(S: Subobject) -> bool:
    return all(S.parts[c] == frozenset(S.ambient.sets[c])
               for c in S.ambient.base.objects)


def is_empty(S: Subobject) -> bool:
    return not any(S.parts.values())


def leq(S: Subobject, T: Subobject) -> bool:
    _same_ambient(S, T)
    return all(S.parts[c] <= T.parts[c]
               for c in S.ambient.base.objects)


def full_subobject(X) -> Subobject:
    return Subobject(X, {c: frozenset(X.sets[c]) for c in X.base.objects})


def empty_subobject(X) -> Subobject:
    return Subobject(X, {c: frozenset() for c in X.base.objects})


def subobjects(X, cap: int = DEFAULT_SIZE_CAP) -> list[Subobject]:
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
    return is_full(join(S, negation(S)))


def nn_closure(S: Subobject) -> Subobject:
    return negation(negation(S))


def is_nn_dense(S: Subobject) -> bool:
    return is_full(nn_closure(S))


def diagonal(X, cap=DEFAULT_SIZE_CAP):
    """The diagonal Δ_X ↣ X×X as a subobject of the product."""
    P, _p1, _p2 = product(X, X, cap)
    parts = {c: frozenset(pel(x, x) for x in X.sets[c])
             for c in X.base.objects}
    return P, Subobject(P, parts)


def quotient(X, R: Subobject):
    """Exact quotient of X by a congruence R ↣ X×X (pointwise set
    quotient)."""
    pairs = {}
    for c in X.base.objects:
        pairs[c] = [(x, y) for x in X.sets[c] for y in X.sets[c]
                    if pel(x, y) in R.parts[c]]
    return quotient_by_pairs(X, pairs)


def heyting_separated_reflection(X, cap=DEFAULT_SIZE_CAP):
    """Quotient of X by the ¬¬-closure of its diagonal in Sub(X×X),
    checked separated by closing the diagonal of M in Sub(M×M)."""
    _P, delta = diagonal(X, cap)
    closed = nn_closure(delta)
    if not _is_equivalence(X, closed.parts):
        raise PresheafError("NotFunctorial",
                            "¬¬Δ is not a stage-wise equivalence relation")
    M, m = quotient(X, closed)
    M.name = "M(%s)" % (X.name or "X")
    _PM, deltaM = diagonal(M, cap)
    if nn_closure(deltaM) != deltaM:
        raise PresheafError("NotFunctorial",
                            "separated reflection is not separated")
    return M, m


# ---------------------------------------------------------------------------
# decidability as the definition states it: the diagonal is complemented

def diagonal_is_complemented(X, cap=DEFAULT_SIZE_CAP) -> bool:
    """Whether Δ_X is complemented in Sub(X×X): Δ ∨ ¬Δ = X×X, with ¬Δ
    found as a Heyting negation in the subobject lattice of the
    product."""
    _P, delta = diagonal(X, cap)
    return is_complemented(delta)


# ---------------------------------------------------------------------------
# complemented parts by filtering every subobject, P_c(X) as a relation
# object and by forcing inside the whole power object, and the fiber
# condition on P_c(X)'s relation tables and by forcing its formula

def filtered_complemented_subobjects(X, cap=DEFAULT_SIZE_CAP):
    """Sub_c(X) as the subfunctors S of X with S ∨ ¬S = X."""
    return [S for S in subobjects(X, cap) if is_complemented(S)]


def pc_object(X, cap=DEFAULT_SIZE_CAP) -> PowerObject:
    """P_c(X) as a relation object: stage c holds the complemented
    subfunctors of X×y(c), i.e. the maps X×y(c) → 2, as relations named
    like those of P(X); restriction by pullback."""
    return _relation_object(
        X, lambda B: [S.parts for S in complemented_subobjects(B, cap)],
        cap, "P_c(%s)" % (X.name or "X"))


def pc_mask_restrict(pc, m: str, w: int) -> int:
    """w·m in P_c(X) on component masks (`sublattice.PcMasks`), for
    m: b→c: the pullback of w along the component map
    π₀(X×y(b)) → π₀(X×y(c)) that sends (x, g) to (x, m∘g)."""
    C = pc.of.base
    b, c = C.morphisms[m]
    into = pc.comp[c]
    return sum(1 << i for i in {
        i for (x, g), i in pc.comp[b].items()
        if w >> into[x, C.compose(m, g)] & 1})


def forced_pc_object(X, cap=DEFAULT_SIZE_CAP) -> PowerObject:
    """P_c(X) as the part of P(X) whose u force ∀x (x ∈ u ∨ ¬ x ∈ u) at
    their stage, with the relations of the kept u."""
    po = power_object(X, cap)
    u = VarT("u")
    phi = Forall("x", PresheafSort(X),
                 Or(Mem(VarT("x"), u), Not(Mem(VarT("x"), u))))
    usort = PowerSort(po)
    memo = {}
    parts = {c: frozenset(v for v in po.carrier.sets[c]
                          if forces(c, {"u": (usort, v)}, phi, memo))
             for c in X.base.objects}
    kept = set().union(*parts.values())
    return PowerObject(X, sub_presheaf(po.carrier, parts),
                       {v: r for v, r in po.relations.items() if v in kept})


def graph_of(f, cap=DEFAULT_SIZE_CAP) -> Subobject:
    """The graph |f| ↣ X×Y of an arrow f: X→Y."""
    P, _p1, _p2 = product(f.dom, f.cod, cap)
    return Subobject(P, {c: frozenset(pel(x, f.apply(c, x))
                                      for x in f.dom.sets[c])
                         for c in f.dom.base.objects})


def forced_pneumo_countermodel(f, cap=DEFAULT_SIZE_CAP, pc=None):
    """The fiber formula of f: X→Y,
    ¬¬(f⁻¹(y)∩w = ∅ ∨ f⁻¹(y)∩w^c = ∅) with y ∈ Y and w ∈ P_c(X), built
    as a formula (emptiness as ∀x:X ¬(⟨x,y⟩ ∈ |f| ∧ x ∈ w)) and
    evaluated by `universally_valid`."""
    X, Y = f.dom, f.cod
    if pc is None:
        pc = pc_object(X, cap)
    G = SubConst(graph_of(f, cap), "|f|")
    xsort, ysort = PresheafSort(X), PresheafSort(Y)

    def fiber_meets(w_membership):
        in_fiber = Mem(PairT(VarT("x"), VarT("y")), G)
        return Forall("x", xsort, Not(And(in_fiber, w_membership)))

    misses_w = fiber_meets(Mem(VarT("x"), VarT("w")))
    misses_wc = fiber_meets(Not(Mem(VarT("x"), VarT("w"))))
    phi = Not(Not(Or(misses_w, misses_wc)))
    return universally_valid(phi, {"y": ysort, "w": PowerSort(pc)})


def table_pneumo_countermodel(f, cap=DEFAULT_SIZE_CAP, pc=None):
    """The least countermodel of the fiber formula of f: X→Y, or None,
    evaluated on the relation tables of P_c(X) (`pc_object`) by the
    forcing clauses.

    The fiber of y ∈ Y(a) is the set of (x, k) with k: d→a and
    f(x) = Y(k)(y).  (a, y, w) is decided when the fiber lies wholly
    inside or wholly outside w's relation; ¬¬ψ is forced at c iff every
    m: b→c has some n into b at which the restriction of (y, w) is
    decided.  Stages in base order, then y, then w in P_c(X)'s order."""
    X, Y = f.dom, f.cod
    C = X.base
    if pc is None:
        pc = pc_object(X, cap)
    P, relations = pc.carrier, pc.relations

    @functools.cache
    def decided(a, y, w):
        fiber = [(x, k) for k in C.arrows_into(a)
                 for x, fx in f.components[C.dom(k)].items()
                 if fx == Y.act(k, y)]
        rel = relations[w]
        return len({(x, k) in rel[C.dom(k)] for x, k in fiber}) < 2

    for c in C.objects:
        for y in Y.sets[c]:
            for w in P.sets[c]:
                if not all(any(decided(C.dom(n), Y.act(n, Y.act(m, y)),
                                       P.act(n, P.act(m, w)))
                               for n in C.arrows_into(C.dom(m)))
                           for m in C.arrows_into(c)):
                    return Countermodel(c, {"y": y, "w": w})
    return None


# ---------------------------------------------------------------------------
# the subobject classifier: Ω(c) = sieves on c

def _sieves_on(C, c) -> list[frozenset]:
    arrows = C.arrows_into(c)
    sieves = []
    for bits in itertools.product((0, 1), repeat=len(arrows)):
        S = frozenset(a for a, b in zip(arrows, bits) if b)
        closed = all(C.compose(h, g) in S
                     for h in S for g in C.arrows_into(C.dom(h)))
        if closed:
            sieves.append(S)
    return sorted(sieves, key=lambda S: (len(S), tuple(sorted(S))))


def _sieve_id(S: frozenset) -> str:
    return "{%s}" % ",".join(sorted(S))


def omega(C):
    """The subobject classifier Ω: Ω(c) = sieves on c, restricted by
    pullback."""
    sieve_sets = {c: _sieves_on(C, c) for c in C.objects}
    sets = {c: tuple(_sieve_id(S) for S in sieve_sets[c])
            for c in C.objects}
    actions = {}
    for m in C.nonidentity_morphisms():
        b, c = C.morphisms[m]
        table = {}
        for S in sieve_sets[c]:
            restricted = frozenset(g for g in C.arrows_into(b)
                                   if C.compose(m, g) in S)
            table[_sieve_id(S)] = _sieve_id(restricted)
        actions[m] = table
    return make_presheaf(C, sets, actions, "Ω")


# ---------------------------------------------------------------------------
# renaming, and sample objects: the bound-2 corpora of the five catalog
# bases, 1, 2 and the pairwise products of each base's first six corpus
# objects

BOUND_TWO = (("point", 2), ("two-discrete", 2), ("sierpinski", 2),
             ("graph", {"V": 2, "E": 2}), ("refgraph", 2))


def bound_two_corpora():
    """(base, bound-2 corpus as a list) for each catalog base."""
    for name, bounds in BOUND_TWO:
        C = catalog(name)
        yield C, list(enumerate_presheaves(C, bounds))


def renamed(X, rng):
    """A copy of X with fresh element ids and each stage shuffled."""
    C = X.base
    ids = {}
    sets = {}
    for c in C.objects:
        tokens = rng.sample(range(10 ** 6), len(X.sets[c]))
        ids[c] = {x: "n%d" % t for x, t in zip(X.sets[c], tokens)}
        sets[c] = list(ids[c].values())
        rng.shuffle(sets[c])
    actions = {m: {ids[C.cod(m)][x]: ids[C.dom(m)][y]
                   for x, y in X.actions[m].items()}
               for m in C.nonidentity_morphisms()}
    return make_presheaf(C, sets, actions, X.name)


def sample_objects(C, corpus) -> list:
    first = corpus[:6]
    return corpus + [terminal(C), two(C)[0]] + \
        [product(A, B)[0] for A in first for B in first]


# The corpora the restriction-table reads of `sublattice` and
# `separated_reflection` are compared with the Heyting operations on.
LATTICE_BOUNDS = (("point", 3), ("two-discrete", 3), ("sierpinski", 4),
                  ("graph", 3), ("refgraph", 4))


def lattice_objects():
    """The corpora of LATTICE_BOUNDS, then the sample objects of the
    bound-2 corpora."""
    for name, bound in LATTICE_BOUNDS:
        yield from enumerate_presheaves(catalog(name), bound)
    for C, corpus in bound_two_corpora():
        yield from sample_objects(C, corpus)
