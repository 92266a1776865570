"""Everything about dec(E) inside one finite presheaf topos.

Decidability tests, the exact NS decision, the decidable-quotient
reflection and the DQO checker, connectedness, the DSO checker,
congruence enumeration, and the ¬¬-separated reflection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from .errors import PresheafError, SizeCapError, DEFAULT_SIZE_CAP
from .fincat import FinCategory
from .presheaf import (NatTrans, Presheaf, _factor_all, factor_through,
                       global_elements, is_epi, is_isomorphic, make_presheaf,
                       nat_transformations, pel, product, quotient_by_pairs,
                       sub_presheaf, subfunctors, two, yoneda)
from .report import Result
from .sublattice import (Subobject, complemented_subobjects, is_complemented,
                         is_nn_dense_arrow, maps_to_two, nn_closure)

if TYPE_CHECKING:
    from .corpus import Corpus


def presheaf_snippet(X: Presheaf) -> dict:
    """Serializable witness form of a presheaf (re-checkable)."""
    return {
        "name": X.name or "X",
        "sets": {c: list(X.sets[c]) for c in X.base.objects},
        "actions": {m: dict(sorted(X.actions[m].items()))
                    for m in X.base.nonidentity_morphisms()},
    }


def subobject_snippet(S: Subobject) -> dict:
    return {c: sorted(S.parts[c]) for c in S.ambient.base.objects}


# ---------------------------------------------------------------------------
# decidability

def diagonal(X: Presheaf, cap: int = DEFAULT_SIZE_CAP):
    """The diagonal Δ_X ↣ X×X as a subobject of the product."""
    P, _p1, _p2 = product(X, X, cap)
    parts = {c: frozenset(pel(x, x) for x in X.sets[c])
             for c in X.base.objects}
    return P, Subobject(P, parts)


def is_decidable(X: Presheaf, cap: int = DEFAULT_SIZE_CAP) -> bool:
    """X is decidable (its diagonal is complemented in Sub(X×X)) iff
    every restriction map of X is injective: the complement of Δ is
    then the pairs of distinct elements, which restriction keeps
    distinct.  The cap is unused, as no object is built."""
    return all(len(set(table.values())) == len(table)
               for m, table in X.actions.items()
               if not X.base.is_identity(m))


# ---------------------------------------------------------------------------
# the Nullstellensatz axiom

def check_ns(C: FinCategory) -> Result:
    """Exact NS decision: every object is initial or has a global element
    iff every representable has a global element.

    Soundness: a global element p of y(c) turns any x ∈ X(c) into the
    global element b ↦ X(p_b)(x); necessity: representables are nonempty.
    """
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


def ns_brute_force(corpus: Corpus) -> Result:
    """Bounded falsifier companion to check_ns: search the corpus for a
    nonempty presheaf without global elements."""
    for X in corpus:
        if not X.is_empty() and not global_elements(X):
            return Result("fails", [{"presheaf": presheaf_snippet(X)}])
    return Result("holds-at-bound")


# ---------------------------------------------------------------------------
# the decidable-quotient reflection Π

@dataclass(eq=False)
class PiResult:
    source: Presheaf
    quotient: Presheaf
    map: NatTrans
    two_arrows: list[NatTrans]


def pi(X: Presheaf, cap: int = DEFAULT_SIZE_CAP) -> PiResult:
    """The decidable quotient Π(X): the image of the canonical map
    X → 2^Hom(X,2), built directly (the full power of 2 is never
    materialized)."""
    C = X.base
    homs = sorted(maps_to_two(X, cap), key=lambda h: h.key())
    tuples = {c: {x: "(%s)" % "|".join(h.apply(c, x) for h in homs)
                  for x in X.sets[c]}
              for c in C.objects}
    sets = {}
    for c in C.objects:
        seen = []
        for x in X.sets[c]:
            t = tuples[c][x]
            if t not in seen:
                seen.append(t)
        sets[c] = tuple(seen)
    actions = {}
    for m in C.nonidentity_morphisms():
        d, c = C.morphisms[m]
        table = {}
        for x in X.sets[c]:
            key = tuples[c][x]
            val = tuples[d][X.act(m, x)]
            if table.get(key, val) != val:
                raise PresheafError("NotFunctorial",
                                    "separated tuple action ill-defined")
            table[key] = val
        actions[m] = table
    Q = make_presheaf(C, sets, actions, "Π(%s)" % (X.name or "X"))
    q = NatTrans(X, Q, {c: dict(tuples[c]) for c in C.objects}, "p")
    return PiResult(X, Q, q, homs)


def pi_arrow(f: NatTrans, cap: int = DEFAULT_SIZE_CAP,
             pi_dom: PiResult | None = None,
             pi_cod: PiResult | None = None) -> NatTrans:
    """The induced arrow Π(f): ΠX → ΠY."""
    if pi_dom is None:
        pi_dom = pi(f.dom, cap)
    if pi_cod is None:
        pi_cod = pi(f.cod, cap)
    g = factor_through(pi_dom.map, f.then(pi_cod.map))
    if g is None:
        raise PresheafError("NotFunctorial",
                            "Π(f) failed to factor; NS+DQO may fail here")
    return g


def pi_product_failures(corpus: Corpus) -> Iterator[tuple]:
    """The pairs (X, Y) of corpus objects at which Π does not preserve
    the product, Π(X×Y) ≇ ΠX × ΠY, in corpus order."""
    cap = corpus.cap
    for X in corpus:
        for Y in corpus:
            P, _p1, _p2 = product(X, Y, cap)
            rhs, _q1, _q2 = product(corpus.fact(pi, X).quotient,
                                    corpus.fact(pi, Y).quotient, cap)
            if not is_isomorphic(pi(P, cap).quotient, rhs):
                yield X, Y


def is_connected(X: Presheaf, cap: int = DEFAULT_SIZE_CAP) -> bool:
    """Exactly two complemented subobjects (0 and X)."""
    return len(complemented_subobjects(X, cap)) == 2


# ---------------------------------------------------------------------------
# congruences and quotients

def congruences(X: Presheaf, cap: int = DEFAULT_SIZE_CAP) -> list[Subobject]:
    """All subfunctors of X×X (pair ids via pel) that are stage-wise
    equivalence relations."""
    P, _p1, _p2 = product(X, X, cap)
    return [Subobject(P, parts) for parts in subfunctors(P, cap)
            if _is_equivalence(X, parts)]


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


def quotient(X: Presheaf, R: Subobject):
    """Exact quotient of X by a congruence R ↣ X×X (pointwise set
    quotient)."""
    pairs = {}
    for c in X.base.objects:
        pairs[c] = [(x, y) for x in X.sets[c] for y in X.sets[c]
                    if pel(x, y) in R.parts[c]]
    return quotient_by_pairs(X, pairs)


# ---------------------------------------------------------------------------
# DQO

def check_dqo(X: Presheaf, cap: int = DEFAULT_SIZE_CAP) -> Result:
    """DQO at X: K(X) = congruences whose quotient is decidable and
    factors every arrow X→2; DQO holds at X iff K(X) is a singleton."""
    t2, _i1, _i2 = two(X.base)
    homs = [h.components for h in nat_transformations(X, t2)]
    witnesses = []
    for R in congruences(X, cap):
        Q, q = quotient(X, R)
        if is_decidable(Q, cap) and _factor_all(q, homs):
            witnesses.append(R)
    if len(witnesses) == 1:
        return Result("holds")
    return Result("fails", [{
        "object": presheaf_snippet(X),
        "factoring_congruences": [subobject_snippet(R)
                                  for R in witnesses]}])


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
    point of X factors."""
    points = global_elements(X)
    candidates = []
    for parts in subfunctors(X, cap):
        S = sub_presheaf(X, parts)
        if not is_decidable(S, cap):
            continue
        if all(p.apply(c, "*") in parts[c]
               for p in points for c in X.base.objects):
            candidates.append(parts)
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

def separated_reflection(X: Presheaf, cap: int = DEFAULT_SIZE_CAP):
    """Quotient of X by the ¬¬-closure of its diagonal; the result is
    ¬¬-separated and the map is the separated reflection."""
    _P, delta = diagonal(X, cap)
    closed = nn_closure(delta)
    if not _is_equivalence(X, closed.parts):
        raise PresheafError("NotFunctorial",
                            "¬¬Δ is not a stage-wise equivalence relation")
    M, m = quotient(X, closed)
    M.name = "M(%s)" % (X.name or "X")
    # Separatedness: the diagonal of M is ¬¬-closed.
    _PM, deltaM = diagonal(M, cap)
    if nn_closure(deltaM) != deltaM:
        raise PresheafError("NotFunctorial",
                            "separated reflection is not separated")
    return M, m


# ---------------------------------------------------------------------------
# dec(E) is a topos (both sides of the criterion)

def dec_is_topos_check(corpus: Corpus) -> Result:
    """Compare, over the corpus: (left) every mono between decidable
    objects is complemented; (right) Π(f) is epic for every ¬¬-dense
    corpus arrow f.  The verdict is whether the two sides agree."""
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
            for f in nat_transformations(X, Y):
                if not is_nn_dense_arrow(f):
                    continue
                pf = pi_arrow(f, cap, corpus.fact(pi, X),
                              corpus.fact(pi, Y))
                if not is_epi(pf):
                    right = False
                    right_witness = {"dom": presheaf_snippet(X),
                                     "cod": presheaf_snippet(Y)}
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
