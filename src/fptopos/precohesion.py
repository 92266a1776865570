"""Precohesion of a presheaf topos over its decidable objects.

Checks NS on the base, which makes the inclusion of the decidables
extend to an adjoint string f_! ⊣ f^* ⊣ f_* ⊣ f^!, then the one
precohesion condition that can fail, product preservation, and runs the
two-sided equivalence harnesses.  On a finite base NS forces DQO, DSO
and Π's reflection at every object (`require_ns`), and the triangle
identities, full faithfulness, the monic counit and the
Nullstellensatz hold by construction, so none of them is checked.
"""

from __future__ import annotations

from .corpus import Corpus
from .decidable import check_ns, exponential_is_decidable, pi_product_failures
from .errors import AxiomPrereqFailed
from .fincat import FinCategory
from .report import Result, unknown_at_cap


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
    """
    ns = check_ns(C)
    if not ns.holds():
        raise AxiomPrereqFailed("NS fails on this base",
                                witness=ns.witnesses[0])


@unknown_at_cap
def check_precohesive(corpus: Corpus) -> Result:
    """The four precohesion conditions over the bounded corpus."""
    return _precohesion(corpus)


def _precohesion(corpus: Corpus) -> Result:
    """The precohesion result, with a cap hit propagated."""
    try:
        require_ns(corpus.base)
    except AxiomPrereqFailed as exc:
        return _not_applicable(str(exc))

    # The f_* ⊣ f^! triangle identities hold by construction, by one
    # fact.  Each k ∈ f_*y(b)(b), nonempty by NS, is the value at b of a
    # point r of y(b), so k∘k = r_b∘r_b = r_b = k; for decidable S, S(k)
    # is then injective and idempotent, so it is the identity.  The
    # counit ε_S(e) = e(k′), k′ ∈ f_*y(b)(b), is taken only at decidable
    # S (the corpus's, and each f_*X by DSO).  It is well defined:
    # φ(ε_S) = id asks e(k∘k′) = e(k) for k ∈ f_*y(c)(b), and naturality
    # gives e(k∘k′) = S(k′)(e(k)) = e(k).  The left triangle is x·k′ = x
    # on f_*X, and the right one is k ↦ e(k∘k′) = e(k).

    # Product preservation: Π(X×Y) ≅ ΠX × ΠY for all pairs.  Π(1) ≅ 1
    # by construction: 1 has one element at each stage, so Π(1) does.
    products = [[X.name, Y.name] for X, Y in pi_product_failures(corpus)]

    # The other three hold by construction.  The decidables are taken as
    # a full subcategory, so the inclusion is fully faithful by
    # definition; the counit f_*X ↪ X is the inclusion of a subpresheaf,
    # so it is monic.  The Nullstellensatz, θ_X = p_X ∘ ι: f_*X → ΠX
    # epic: NS gives each y(c) a point p, so each x ∈ X(c) restricts to
    # x·p_c, which lies in x's component and is the value at c of the
    # point b ↦ x·p_b; DSO makes f_*X the values of the points of X, so
    # f_*X meets every component at every stage that component meets.
    details = {"fully_faithful": True,
               "products_preserved": not products,
               "counit_monic": True,
               "nullstellensatz": True}
    verdict = "precohesive" if all(details.values()) else "fails"
    return Result(verdict, [{"products": products}] if products else [],
                  details)


def _not_applicable(reason: str) -> Result:
    return Result("not-applicable", [], {"failed_prereq": reason})


@unknown_at_cap
def theorem_c_harness(corpus: Corpus) -> Result:
    """Two-sided check: (DQO ∧ DSO over the corpus) versus the
    precohesion verdict, plus the forward-direction ingredients (the
    decidable subobject f_*X is ¬¬-dense in X, and Π of that dense mono
    is epic).  Holds when the two sides agree.  NS forces the axioms
    (`require_ns`), so only the precohesion side, Π preserving the
    corpus products, is computed."""
    require_ns(corpus.base)
    right = _precohesion(corpus).holds()
    # Both ingredients hold by construction once NS and DSO do.  As in
    # the Nullstellensatz of `_precohesion`, each x ∈ X(c) has the
    # element x·p_c of f_*X in its component, p a point of y(c).  So
    # f_*X is ¬¬-dense (x·m has x·m·p_d in f_*X for each m: d → c), and
    # Π(i) ∘ p_{f_*X} = p_X ∘ i = θ_X is onto, so Π(i) is epic.
    return Result("holds" if right else "fails", [],
                  {"axioms_hold": True, "precohesive": right,
                   "checks": {"dso_part_nn_dense": True,
                              "pi_of_dense_mono_epic": True}})


@unknown_at_cap
def theorem_ab_harness(corpus: Corpus) -> Result:
    """Reflection and exponential-ideal checks: (A) Π is left adjoint to
    the inclusion and preserves finite products; (B) Yˣ stays decidable
    for decidable Y; and reflectivity at the bound implies the
    decidable-quotient uniqueness check passes everywhere.  Holds when
    both A and B hold."""
    C, cap = corpus.base, corpus.cap
    require_ns(C)
    decs = corpus.decidables()
    products = next(pi_product_failures(corpus), None) is None
    exponential_ideal = all(exponential_is_decidable(X, Y, cap)
                            for X in corpus for Y in decs)
    # Π ⊣ inclusion holds by construction: precomposition with each unit
    # p_X: X ↠ ΠX is one-to-one, as p_X is onto, and onto Hom(X, S), as
    # NS makes every map from X to a decidable constant on the components
    # of ∫X at each stage (`require_ns`), which are p_X's fibers.
    # Reflectivity implies DQO by construction.  X/R₀ is a decidable
    # quotient of X within the bound, so it is iso to a corpus decidable
    # D; if X → D factors through p_X, then R₀ ⊇ K, which is DQO at X.
    checks = {"pi_left_adjoint": True,
              "pi_preserves_products": products,
              "exponential_ideal": exponential_ideal,
              "reflective_implies_dqo": True}
    return Result("holds" if all(checks.values()) else "fails", [],
                  {"checks": checks})
