"""The adjoint string between a presheaf topos and its decidable objects.

Builds f_! ⊣ f^* ⊣ f_* ⊣ f^! over a bounded corpus, verifies the f_* ⊣ f^!
triangle identities, checks the precohesion conditions (product
preservation; full faithfulness, the monic counit and the
Nullstellensatz hold by construction), and runs the two-sided
equivalence harnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import Corpus
from .decidable import (_constant_on_fibers, _domain_maps, check_dqo,
                        check_dso, check_ns, exponential_is_decidable, pi,
                        pi_product_failures, presheaf_snippet, PiResult)
from .errors import (AxiomPrereqFailed, PresheafError,
                     TriangleIdentityFailed)
from .fincat import FinCategory
from .presheaf import (NatTrans, Presheaf, _encode_nat,
                       identity_nat, inclusion_of, make_presheaf,
                       nat_transformations, yoneda)
from .report import Result, unknown_at_cap


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


def require_ns(C: FinCategory) -> None:
    """Raise AxiomPrereqFailed unless NS holds on the base."""
    ns = check_ns(C)
    if not ns.holds():
        raise AxiomPrereqFailed("NS fails on this base",
                                witness=ns.witnesses[0])


def build_adjoint_string(corpus: Corpus) -> AdjointString:
    """Construct and verify the adjoint string over the bounded corpus.

    Prerequisites (NS exact; DQO and DSO per corpus object) are checked
    first and reported by name on failure.
    """
    require_ns(corpus.base)
    for X in corpus:
        if not corpus.fact(check_dqo, X).holds():
            raise AxiomPrereqFailed("DQO fails at %r" % X.name,
                                    witness=presheaf_snippet(X))
        if not corpus.fact(check_dso, X).holds():
            raise AxiomPrereqFailed("DSO fails at %r" % X.name,
                                    witness=presheaf_snippet(X))
    adj = AdjointString(corpus)
    bad = adj.verify_triangles()
    if bad:
        raise TriangleIdentityFailed("; ".join(bad))
    return adj


@unknown_at_cap
def check_precohesive(corpus: Corpus) -> Result:
    """The four precohesion conditions over the bounded corpus."""
    return _precohesion(corpus)


def _precohesion(corpus: Corpus) -> Result:
    """The precohesion result, with a cap hit propagated."""
    try:
        build_adjoint_string(corpus)
    except AxiomPrereqFailed as exc:
        return _not_applicable(str(exc))
    except TriangleIdentityFailed as exc:
        return _not_applicable("triangle identity: %s" % exc)

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
    is epic).  Holds when the two sides agree."""
    require_ns(corpus.base)
    left = all(corpus.fact(check_dqo, X).holds()
               and corpus.fact(check_dso, X).holds() for X in corpus)
    right = _precohesion(corpus).holds()
    # Both ingredients hold by construction once NS and DSO do.  As in
    # the Nullstellensatz of `_precohesion`, each x ∈ X(c) has the
    # element x·p_c of f_*X in its component, p a point of y(c).  So
    # f_*X is ¬¬-dense (x·m has x·m·p_d in f_*X for each m: d → c), and
    # Π(i) ∘ p_{f_*X} = p_X ∘ i = θ_X is onto, so Π(i) is epic.
    checks = ({"dso_part_nn_dense": True, "pi_of_dense_mono_epic": True}
              if left else {})
    return Result("holds" if left == right else "fails", [],
                  {"axioms_hold": left, "precohesive": right,
                   "checks": checks})


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

    # Π ⊣ inclusion: precomposition with each unit p_X: X ↠ ΠX is
    # one-to-one, as p_X is onto, and onto Hom(X, S) iff every map from X
    # to a decidable factors through p_X: is constant on its fibers, the
    # components of ∫X at each stage.
    reflective = all(_constant_on_fibers(maps[0], maps)
                     for maps in (_domain_maps(X, decs) for X in corpus))
    products = next(pi_product_failures(corpus), None) is None
    exponential_ideal = all(exponential_is_decidable(X, Y, cap)
                            for X in corpus for Y in decs)
    # Reflectivity implies DQO by construction.  X/R₀ is a decidable
    # quotient of X within the bound, so it is iso to a corpus decidable
    # D; if X → D factors through p_X, then R₀ ⊇ K, which is DQO at X.
    checks = {"pi_left_adjoint": reflective,
              "pi_preserves_products": products,
              "exponential_ideal": exponential_ideal,
              "reflective_implies_dqo": True}
    return Result("holds" if all(checks.values()) else "fails", [],
                  {"checks": checks})
