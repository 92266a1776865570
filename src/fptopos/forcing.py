"""Kripke–Joyal semantics for the internal language of Set^(C^op).

Formulas are evaluated stage-wise with the standard presheaf forcing
clauses: conjunction, disjunction, existentials and atoms are local to the
current stage; implication, negation and universals quantify over all
arrows into the stage, restricting the assignment along each.  A formula
is universally valid when it is forced at every stage under every
assignment of its free variables.

This is the interpreter behind the `force` command.  The fiber
condition of an arrow is decided on component masks in `sublattice`;
its defining formula, evaluated here, is kept in the tests as the
reference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import SortError, UnboundVariable, ParseError
from .presheaf import NatTrans, Presheaf, pel
from .report import Countermodel
from .sublattice import Subobject


# ---------------------------------------------------------------------------
# sorts

@dataclass(eq=False)
class PresheafSort:
    carrier: Presheaf

    def values_at(self, c: str):
        return self.carrier.sets[c]

    def restrict_value(self, m: str, v: str) -> str:
        return self.carrier.act(m, v)


@dataclass(eq=False)
class PowerSort:
    """The sort of a power object P(X), or of any relation object built
    like it, such as the complemented-parts object P_c(X): `power` has
    the presheaf `carrier` and the membership test `contains(c, u, x)`."""

    power: object

    def values_at(self, c: str):
        return self.power.carrier.sets[c]

    def restrict_value(self, m: str, v: str) -> str:
        return self.power.carrier.act(m, v)


Sort = PresheafSort | PowerSort


# ---------------------------------------------------------------------------
# terms

@dataclass(eq=False)
class VarT:
    name: str


@dataclass(eq=False)
class PairT:
    left: "Term"
    right: "Term"


@dataclass(eq=False)
class AppT:
    arrow: NatTrans
    arg: "Term"


@dataclass(eq=False)
class SubConst:
    """A fixed subobject used as a membership container (e.g. a graph)."""

    sub: Subobject
    name: str = ""


Term = VarT | PairT | AppT


def _term_vars(t) -> frozenset:
    if isinstance(t, VarT):
        return frozenset((t.name,))
    if isinstance(t, PairT):
        return _term_vars(t.left) | _term_vars(t.right)
    if isinstance(t, AppT):
        return _term_vars(t.arg)
    if isinstance(t, SubConst):
        return frozenset()
    raise SortError("not a term: %r" % (t,))


def _eval_term(t, c: str, env: dict) -> str:
    if isinstance(t, VarT):
        if t.name not in env:
            raise UnboundVariable("variable %r is unbound" % t.name)
        return env[t.name][1]
    if isinstance(t, PairT):
        return pel(_eval_term(t.left, c, env), _eval_term(t.right, c, env))
    if isinstance(t, AppT):
        return t.arrow.apply(c, _eval_term(t.arg, c, env))
    raise SortError("not an element term: %r" % (t,))


# ---------------------------------------------------------------------------
# formulas

@dataclass(eq=False)
class Formula:
    _free: frozenset | None = field(default=None, init=False, repr=False)

    def free(self) -> frozenset:
        if self._free is None:
            self._free = self._compute_free()
        return self._free


@dataclass(eq=False)
class Top(Formula):
    def _compute_free(self):
        return frozenset()


@dataclass(eq=False)
class Bot(Formula):
    def _compute_free(self):
        return frozenset()


@dataclass(eq=False)
class Eq(Formula):
    left: Term
    right: Term

    def _compute_free(self):
        return _term_vars(self.left) | _term_vars(self.right)


@dataclass(eq=False)
class Mem(Formula):
    """element-term ∈ container, where the container is a power-sort
    variable or a fixed subobject."""

    elem: Term
    container: object

    def _compute_free(self):
        return _term_vars(self.elem) | _term_vars(self.container)


@dataclass(eq=False)
class And(Formula):
    left: Formula
    right: Formula

    def _compute_free(self):
        return self.left.free() | self.right.free()


@dataclass(eq=False)
class Or(Formula):
    left: Formula
    right: Formula

    def _compute_free(self):
        return self.left.free() | self.right.free()


@dataclass(eq=False)
class Implies(Formula):
    left: Formula
    right: Formula

    def _compute_free(self):
        return self.left.free() | self.right.free()


@dataclass(eq=False)
class Not(Formula):
    body: Formula

    def _compute_free(self):
        return self.body.free()


@dataclass(eq=False)
class Forall(Formula):
    var: str
    sort: Sort
    body: Formula

    def _compute_free(self):
        return self.body.free() - {self.var}


@dataclass(eq=False)
class Exists(Formula):
    var: str
    sort: Sort
    body: Formula

    def _compute_free(self):
        return self.body.free() - {self.var}


# ---------------------------------------------------------------------------
# evaluation

def _restrict_env(env: dict, m: str) -> dict:
    return {k: (sort, sort.restrict_value(m, v))
            for k, (sort, v) in env.items()}


def forces(c: str, env: dict, phi: Formula, memo: dict | None = None) -> bool:
    """Stage-wise forcing: env maps each free variable of phi to a
    (sort, value-at-stage-c) pair."""
    if memo is None:
        memo = {}
    return _forces(c, env, phi, memo)


def _forces(c, env, phi, memo):
    key = (id(phi), c,
           tuple(sorted((v, env[v][1]) for v in phi.free())))
    hit = memo.get(key)
    if hit is not None:
        return hit
    res = _forces_raw(c, env, phi, memo)
    memo[key] = res
    return res


def _forces_raw(c, env, phi, memo):
    if isinstance(phi, (Implies, Not, Forall)):
        try:
            base = _base_of(env, phi)
        except SortError:
            # A variable-free propositional subformula is stage-constant,
            # so quantifying over arrows degenerates to classical truth.
            if isinstance(phi, Implies):
                return (not _forces(c, env, phi.left, memo)
                        or _forces(c, env, phi.right, memo))
            if isinstance(phi, Not):
                return not _forces(c, env, phi.body, memo)
            raise
    if isinstance(phi, Top):
        return True
    if isinstance(phi, Bot):
        return False
    if isinstance(phi, Eq):
        return _eval_term(phi.left, c, env) == _eval_term(phi.right, c, env)
    if isinstance(phi, Mem):
        x = _eval_term(phi.elem, c, env)
        cont = phi.container
        if isinstance(cont, SubConst):
            return cont.sub.contains(c, x)
        if isinstance(cont, VarT):
            sort, u = env[cont.name]
            if not isinstance(sort, PowerSort):
                raise SortError("membership container %r is not of power "
                                "sort" % cont.name)
            return sort.power.contains(c, u, x)
        raise SortError("bad membership container")
    if isinstance(phi, And):
        return (_forces(c, env, phi.left, memo)
                and _forces(c, env, phi.right, memo))
    if isinstance(phi, Or):
        return (_forces(c, env, phi.left, memo)
                or _forces(c, env, phi.right, memo))
    if isinstance(phi, Implies):
        for m in base.arrows_into(c):
            b = base.dom(m)
            envb = _restrict_env(env, m)
            if _forces(b, envb, phi.left, memo) and \
                    not _forces(b, envb, phi.right, memo):
                return False
        return True
    if isinstance(phi, Not):
        for m in base.arrows_into(c):
            if _forces(base.dom(m), _restrict_env(env, m), phi.body, memo):
                return False
        return True
    if isinstance(phi, Forall):
        for m in base.arrows_into(c):
            b = base.dom(m)
            envb = _restrict_env(env, m)
            for v in phi.sort.values_at(b):
                envb[phi.var] = (phi.sort, v)
                if not _forces(b, envb, phi.body, memo):
                    return False
            envb.pop(phi.var, None)
        return True
    if isinstance(phi, Exists):
        for v in phi.sort.values_at(c):
            env2 = dict(env)
            env2[phi.var] = (phi.sort, v)
            if _forces(c, env2, phi.body, memo):
                return True
        return False
    raise SortError("unknown formula node %r" % (phi,))


def _base_of(env, phi):
    for sort, _v in env.values():
        return _sort_base(sort)
    return _find_base(phi)


def _sort_base(sort):
    if isinstance(sort, PresheafSort):
        return sort.carrier.base
    return sort.power.carrier.base


def _find_base(phi):
    if isinstance(phi, (Forall, Exists)):
        return _sort_base(phi.sort)
    if isinstance(phi, (And, Or, Implies)):
        try:
            return _find_base(phi.left)
        except SortError:
            return _find_base(phi.right)
    if isinstance(phi, Not):
        return _find_base(phi.body)
    if isinstance(phi, Mem) and isinstance(phi.container, SubConst):
        return phi.container.sub.ambient.base
    raise SortError("cannot determine the base category of a closed "
                    "quantifier-free formula without an assignment")


def universally_valid(phi: Formula, free: dict[str, Sort],
                      base=None) -> Countermodel | None:
    """None if phi is forced at every stage under every assignment of its
    free variables; otherwise the least countermodel in enumeration order
    (stages in base-object order, then assignment order)."""
    if base is None:
        if free:
            base = _sort_base(next(iter(free.values())))
        else:
            base = _find_base(phi)
    names = list(free)
    memo = {}
    for c in base.objects:
        domains = [free[n].values_at(c) for n in names]
        for combo in itertools.product(*domains):
            env = {n: (free[n], v) for n, v in zip(names, combo)}
            if not _forces(c, env, phi, memo):
                return Countermodel(c, dict(zip(names, combo)))
    return None


# ---------------------------------------------------------------------------
# surface syntax
#
#   formula := ('all'|'exists') var ':' sort '.' formula
#            | or-expr ('implies' formula)?
#   or-expr := and-expr ('or' and-expr)*
#   and-expr := unary ('and' unary)*
#   unary   := 'not' unary | 'true' | 'false' | '(' formula ')'
#            | term ('=' term | 'in' name)
#   term    := name | name '(' term ')' | '<' term ',' term '>'
#
# Sort, arrow and subobject names are resolved against a caller-supplied
# environment mapping names to Sort, NatTrans or Subobject values.

_PUNCT = ("(", ")", "<", ">", ",", ".", ":", "=")


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append((ch, line, col))
            col += 1
            i += 1
            continue
        j = i
        while j < len(text) and not text[j].isspace() \
                and text[j] not in _PUNCT:
            j += 1
        tokens.append((text[i:j], line, col))
        col += j - i
        i = j
    return tokens


class _Parser:
    def __init__(self, tokens, names: dict):
        self.tokens = tokens
        self.pos = 0
        self.names = names

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def next(self):
        if self.pos >= len(self.tokens):
            if self.tokens:
                _tok, line, col = self.tokens[-1]
            else:
                line, col = 1, 1
            raise ParseError("unexpected end of formula", line, col)
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, what):
        tok, line, col = self.next()
        if tok != what:
            raise ParseError("expected %r, found %r" % (what, tok),
                             line, col)

    def lookup(self, name, line, col):
        if name not in self.names:
            raise ParseError("unknown name %r" % name, line, col)
        return self.names[name]

    def formula(self):
        if self.peek() in ("all", "exists"):
            kw, _l, _c = self.next()
            var, line, col = self.next()
            self.expect(":")
            sname, sline, scol = self.next()
            sort = self.lookup(sname, sline, scol)
            if isinstance(sort, Presheaf):
                sort = PresheafSort(sort)
            if not isinstance(sort, (PresheafSort, PowerSort)):
                raise ParseError("%r is not a sort" % sname, sline, scol)
            self.expect(".")
            body = self.formula()
            cls = Forall if kw == "all" else Exists
            return cls(var, sort, body)
        left = self.or_expr()
        if self.peek() == "implies":
            self.next()
            return Implies(left, self.formula())
        return left

    def or_expr(self):
        left = self.and_expr()
        while self.peek() == "or":
            self.next()
            left = Or(left, self.and_expr())
        return left

    def and_expr(self):
        left = self.unary()
        while self.peek() == "and":
            self.next()
            left = And(left, self.unary())
        return left

    def unary(self):
        tok = self.peek()
        if tok == "not":
            self.next()
            return Not(self.unary())
        if tok == "true":
            self.next()
            return Top()
        if tok == "false":
            self.next()
            return Bot()
        if tok == "(":
            self.next()
            phi = self.formula()
            self.expect(")")
            return phi
        term = self.term()
        op, line, col = self.next()
        if op == "=":
            return Eq(term, self.term())
        if op == "in":
            name, nline, ncol = self.next()
            if name in self.names:
                val = self.lookup(name, nline, ncol)
                if isinstance(val, SubConst):
                    return Mem(term, val)
                if not isinstance(val, Subobject):
                    raise ParseError("%r is not a subobject" % name,
                                     nline, ncol)
                return Mem(term, SubConst(val, name))
            return Mem(term, VarT(name))
        raise ParseError("expected '=' or 'in', found %r" % op, line, col)

    def term(self):
        tok, line, col = self.next()
        if tok == "<":
            left = self.term()
            self.expect(",")
            right = self.term()
            self.expect(">")
            return PairT(left, right)
        if tok in _PUNCT:
            raise ParseError("expected a term, found %r" % tok, line, col)
        if self.peek() == "(" and tok in self.names \
                and isinstance(self.names[tok], NatTrans):
            self.next()
            arg = self.term()
            self.expect(")")
            return AppT(self.names[tok], arg)
        return VarT(tok)


def parse_formula(text: str, names: dict | None = None) -> Formula:
    """Parse the textual surface syntax against a name environment."""
    parser = _Parser(_tokenize(text), names or {})
    phi = parser.formula()
    if parser.pos != len(parser.tokens):
        tok, line, col = parser.tokens[parser.pos]
        raise ParseError("trailing input from %r" % tok, line, col)
    return phi
