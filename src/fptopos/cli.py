"""Command-line surface.

Every subcommand maps onto one library operation, reads a base category
(catalog name or .cat file) and optionally an object (builtin name or
.psh file), and emits a report in text or machine-readable JSON.

Exit codes: 0 = all checks pass / property holds; 1 = a check fails (the
report carries a witness); 2 = usage, parse, or size-cap error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import builtins as builtin_objects
from .corpus import enumerate_presheaves
from .decidable import (check_dqo, check_dqo_bounded, check_dso,
                        check_dso_bounded, check_ns, dec_is_topos_check,
                        is_connected, is_decidable, pi, presheaf_snippet,
                        separated_reflection)
from .errors import (AxiomPrereqFailed, ParseError, ToposError,
                     DEFAULT_SIZE_CAP)
from .files import parse_presheaf_file, resolve_base
from .forcing import (PresheafSort, parse_formula,
                      pneumoconnected_countermodel, universally_valid)
from .fincat import catalog_entries
from .harness import (lemma_report, props_report, search_counterexample,
                      PROPERTIES, SEARCHES)
from .precohesion import (check_precohesive, require_ns, theorem_ab_harness,
                          theorem_c_harness)
from .sublattice import complemented_subobjects


def _parse_bounds(text: str):
    """'3' or 'V=2,E=1'."""
    if "=" not in text:
        n = int(text)
        if n < 0:
            raise ValueError
        return n
    out = {}
    for chunk in text.split(","):
        key, _eq, val = chunk.partition("=")
        out[key.strip()] = int(val)
    return out


def _bounds_label(bounds, C):
    if isinstance(bounds, int):
        return ",".join("%s<=%d" % (c, bounds) for c in C.objects)
    return ",".join("%s<=%d" % (c, bounds.get(c, 0)) for c in C.objects)


def _resolve_object(ref: str, C):
    """An object from a builtin name, builtin:NAME, or a .psh file whose
    declared base must match the command's base category."""
    if ref.startswith("builtin:"):
        return builtin_objects.builtin_object(C, ref[len("builtin:"):])
    if ref.endswith(".psh") or os.path.sep in ref:
        X = parse_presheaf_file(ref)
        if X.base.to_raw() != C.to_raw():
            raise ParseError("presheaf file %r is over base %r, not %r"
                             % (ref, X.base.name, C.name))
        return X
    return builtin_objects.builtin_object(C, ref)


class Report:
    """Accumulates one subcommand's result in the stable output schema."""

    def __init__(self, command: str, base: str, bounds: str | None):
        self.data = {"command": command, "base": base, "bounds": bounds,
                     "verdict": "", "witnesses": [], "details": {},
                     "timings": None}

    def verdict(self, v: str):
        self.data["verdict"] = v

    def witness(self, w):
        if w is not None:
            self.data["witnesses"].append(w)

    def detail(self, key, value):
        self.data["details"][key] = value

    def recheck(self, cmdline: str):
        self.data["details"]["recheck"] = cmdline

    def emit(self, args, started: float) -> None:
        if getattr(args, "timings", False):
            self.data["timings"] = {"seconds": round(time.time() - started,
                                                     3)}
        if args.format == "json":
            print(json.dumps(self.data, sort_keys=True, indent=2,
                             ensure_ascii=False))
            return
        print("command: %s" % self.data["command"])
        print("base: %s" % self.data["base"])
        if self.data["bounds"]:
            print("bounds: %s" % self.data["bounds"])
        print("verdict: %s" % self.data["verdict"])
        for key in sorted(self.data["details"]):
            print("%s: %s" % (key, _short(self.data["details"][key])))
        for w in self.data["witnesses"]:
            print("witness: %s" % _short(w))
        if self.data["timings"]:
            print("seconds: %s" % self.data["timings"]["seconds"])


def _short(value) -> str:
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, ensure_ascii=False)
    return str(value)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_catalog(args) -> int:
    rep = Report("catalog", "-", None)
    entries = {}
    for name, entry in catalog_entries().items():
        C = entry.category
        entries[name] = {"objects": list(C.objects),
                         "morphisms": len(C.morphism_names()),
                         "expected_profile": entry.notes}
    rep.detail("catalog", entries)
    rep.verdict("ok")
    rep.emit(args, args.started)
    return 0


def _cmd_check_ns(args) -> int:
    C = resolve_base(args.base)
    rep = Report("check-ns", C.name, None)
    r = check_ns(C)
    rep.verdict(r.verdict)
    rep.witness(r.witness)
    rep.recheck("fptopos check-ns --base %s" % args.base)
    rep.emit(args, args.started)
    return 0 if r.holds() else 1


def _cmd_decidable(args) -> int:
    C = resolve_base(args.base)
    X = _resolve_object(args.object, C)
    rep = Report("decidable", C.name, None)
    ok = is_decidable(X, args.cap)
    rep.verdict("decidable" if ok else "not-decidable")
    rep.detail("object", presheaf_snippet(X))
    rep.emit(args, args.started)
    return 0 if ok else 1


def _cmd_pi(args) -> int:
    C = resolve_base(args.base)
    X = _resolve_object(args.object, C)
    rep = Report("pi", C.name, None)
    r = pi(X, args.cap)
    rep.verdict("ok")
    rep.detail("stage_sizes", list(r.quotient.size_vector()))
    rep.detail("quotient", presheaf_snippet(r.quotient))
    rep.detail("quotient_map", {c: dict(r.map.components[c])
                                for c in C.objects})
    rep.emit(args, args.started)
    return 0


def _cmd_connected(args) -> int:
    C = resolve_base(args.base)
    X = _resolve_object(args.object, C)
    rep = Report("connected", C.name, None)
    ok = is_connected(X, args.cap)
    rep.verdict("connected" if ok else "not-connected")
    rep.emit(args, args.started)
    return 0 if ok else 1


def _cmd_subc(args) -> int:
    C = resolve_base(args.base)
    X = _resolve_object(args.object, C)
    rep = Report("subc", C.name, None)
    subs = complemented_subobjects(X, args.cap)
    rep.verdict("ok")
    rep.detail("count", len(subs))
    rep.detail("complemented_subobjects",
               [{c: sorted(S.parts[c]) for c in C.objects} for S in subs])
    rep.emit(args, args.started)
    return 0


def _cmd_pneumo(args) -> int:
    C = resolve_base(args.base)
    X = _resolve_object(args.object, C)
    rep = Report("pneumo", C.name, None)
    if args.map == "pi":
        f = pi(X, args.cap).map
    else:
        _M, f = separated_reflection(X, args.cap)
    rep.detail("map", args.map)
    cm = pneumoconnected_countermodel(f, args.cap)
    if cm is None:
        rep.verdict("pneumoconnected-fibers")
    else:
        rep.verdict("fails")
        rep.witness({"stage": cm.stage, "bindings": cm.bindings})
    rep.emit(args, args.started)
    return 0 if cm is None else 1


def _axiom_cmd(args, name, per_object, bounded) -> int:
    C = resolve_base(args.base)
    if args.object:
        X = _resolve_object(args.object, C)
        rep = Report(name, C.name, None)
        r = per_object(X, args.cap)
    else:
        rep = Report(name, C.name, _bounds_label(args.bound, C))
        r = bounded(enumerate_presheaves(C, args.bound, args.cap))
    rep.verdict(r.verdict)
    rep.witness(r.witness)
    rep.recheck("fptopos %s --base %s%s" % (
        name, args.base,
        " --object %s" % args.object if args.object else
        " --bound %s" % args.raw_bound))
    rep.emit(args, args.started)
    return 0 if r.holds() else 1


def _cmd_check_dqo(args) -> int:
    return _axiom_cmd(args, "check-dqo", check_dqo, check_dqo_bounded)


def _cmd_check_dso(args) -> int:
    return _axiom_cmd(args, "check-dso", check_dso, check_dso_bounded)


def _cmd_dec_topos(args) -> int:
    C = resolve_base(args.base)
    rep = Report("dec-topos", C.name, _bounds_label(args.bound, C))
    r = dec_is_topos_check(enumerate_presheaves(C, args.bound, args.cap))
    rep.verdict("agree" if r.agree() else "disagree")
    rep.detail("monos_complemented", r.left)
    rep.detail("pi_epic_on_dense", r.right)
    for key, value in r.details.items():
        rep.witness({key: value})
    rep.emit(args, args.started)
    return 0 if r.agree() else 1


def _cmd_precohesion(args) -> int:
    C = resolve_base(args.base)
    rep = Report("precohesion", C.name, _bounds_label(args.bound, C))
    r = check_precohesive(enumerate_presheaves(C, args.bound, args.cap))
    if not r.applicable:
        rep.verdict("not-applicable")
        rep.detail("failed_prereq", r.failed_prereq)
    else:
        rep.verdict("precohesive" if r.precohesive() else "fails")
        for key in ("fully_faithful", "products_preserved", "counit_monic",
                    "nullstellensatz"):
            rep.detail(key, getattr(r, key))
        if r.witnesses:
            rep.witness(r.witnesses)
    rep.emit(args, args.started)
    return 0 if r.precohesive() else 1


def _cmd_verify(args) -> int:
    C = resolve_base(args.base)
    rep = Report("verify %s" % args.theorem, C.name,
                 _bounds_label(args.bound, C))
    ok = False
    try:
        if args.theorem in ("A", "B", "C"):
            require_ns(C)  # decided on the base alone, before enumerating
        corpus = enumerate_presheaves(C, args.bound, args.cap)
        if args.theorem in ("A", "B"):
            r = theorem_ab_harness(corpus)
            rep.detail("checks", r.checks)
            if args.theorem == "A":
                ok = r.checks["pi_left_adjoint"] and \
                    r.checks["pi_preserves_products"]
            else:
                ok = r.checks["exponential_ideal"] and \
                    r.checks["reflective_implies_dqo"]
        elif args.theorem == "C":
            r = theorem_c_harness(corpus)
            rep.detail("axioms_hold", r.left)
            rep.detail("precohesive", r.right)
            rep.detail("checks", {k: v for k, v in r.checks.items()
                                  if k != "precohesion"})
            ok = r.agree()
        elif args.theorem == "D":
            r = dec_is_topos_check(corpus)
            rep.detail("monos_complemented", r.left)
            rep.detail("pi_epic_on_dense", r.right)
            ok = r.agree()
        elif args.theorem == "lemma":
            r = lemma_report(corpus)
            rep.detail("pairs_checked", r.checked)
            rep.witness(r.witness)
            ok = r.holds
        elif args.theorem == "props":
            names = args.props.split(",") if args.props else None
            results = props_report(corpus, names)
            rep.detail("properties", {r.name: r.holds for r in results})
            for r in results:
                rep.witness(r.witness)
            ok = all(r.holds for r in results)
    except AxiomPrereqFailed as exc:
        rep.verdict("prerequisite-failed")
        rep.detail("failed_prereq", str(exc))
        rep.emit(args, args.started)
        return 1
    rep.verdict("holds" if ok else "fails")
    rep.emit(args, args.started)
    return 0 if ok else 1


def _cmd_search(args) -> int:
    C = resolve_base(args.base)
    rep = Report("search-counterexample", C.name,
                 _bounds_label(args.bound, C))
    rep.detail("property", args.property)
    w = search_counterexample(args.property,
                              enumerate_presheaves(C, args.bound, args.cap))
    if w is None:
        rep.verdict("none")
    else:
        rep.verdict("witness")
        rep.witness(w)
        rep.recheck("fptopos search-counterexample --property %s --base %s "
                    "--bound %s" % (args.property, args.base,
                                    args.raw_bound))
    rep.emit(args, args.started)
    return 0 if w is None else 1


def _cmd_enumerate(args) -> int:
    C = resolve_base(args.base)
    rep = Report("enumerate", C.name, _bounds_label(args.bound, C))
    index = enumerate_presheaves(C, args.bound, args.cap)
    rep.verdict("ok")
    rep.detail("count", len(index))
    rep.detail("counts_per_size_vector",
               {",".join(map(str, k)): v for k, v in index.counts.items()})
    if args.list:
        rep.detail("presheaves", [presheaf_snippet(X) for X in index])
    rep.emit(args, args.started)
    return 0


def _cmd_force(args) -> int:
    C = resolve_base(args.base)
    rep = Report("force", C.name, None)
    names = {}
    for n in builtin_objects.builtin_names(C):
        names[n] = PresheafSort(builtin_objects.builtin_object(C, n))
    for decl in args.let or []:
        alias, _eq, ref = decl.partition("=")
        names[alias] = PresheafSort(_resolve_object(ref, C))
    phi = parse_formula(args.formula, names)
    cm = universally_valid(phi, {}, base=C)
    rep.detail("formula", args.formula)
    if cm is None:
        rep.verdict("valid")
    else:
        rep.verdict("fails")
        rep.witness({"stage": cm.stage, "bindings": cm.bindings})
    rep.emit(args, args.started)
    return 0 if cm is None else 1


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fptopos",
        description="Finite presheaf topos checker: decidable quotients, "
                    "connectedness, pneumoconnected fibers, and "
                    "precohesion over decidable objects.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, help_text, obj=False, bound=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--base", default="refgraph",
                       help="catalog name or .cat file (default refgraph)")
        if obj:
            p.add_argument("--object", default=None, required=obj == "req",
                           help="builtin name, builtin:NAME, or .psh file")
        if bound:
            p.add_argument("--bound", default="3", dest="raw_bound",
                           help="stage-size bound: N or V=2,E=1 "
                                "(default 3)")
        p.add_argument("--cap", type=int, default=DEFAULT_SIZE_CAP,
                       help="per-stage size cap")
        p.add_argument("--format", choices=("text", "json"),
                       default="text")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; checks run "
                            "sequentially")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock timings in the report")
        return p

    add("catalog", _cmd_catalog, "list built-in base categories")
    add("check-ns", _cmd_check_ns,
        "decide whether every object is initial or has a point")
    add("decidable", _cmd_decidable,
        "is the object's diagonal complemented", obj="req")
    add("pi", _cmd_pi, "compute the decidable quotient", obj="req")
    add("connected", _cmd_connected,
        "does the object have exactly two complemented subobjects",
        obj="req")
    add("subc", _cmd_subc, "list complemented subobjects", obj="req")
    p = add("pneumo", _cmd_pneumo,
            "check pneumoconnected fibers of a canonical quotient map",
            obj="req")
    p.add_argument("--map", choices=("pi", "separated"), default="pi",
                   help="which quotient map of the object to check")
    add("check-dqo", _cmd_check_dqo,
        "unique decidable quotient axiom", obj=True, bound=True)
    add("check-dso", _cmd_check_dso,
        "unique decidable subobject axiom", obj=True, bound=True)
    add("dec-topos", _cmd_dec_topos,
        "two-sided check that the decidables form a topos", bound=True)
    add("precohesion", _cmd_precohesion,
        "precohesion over the decidable objects", bound=True)
    p = add("verify", _cmd_verify, "run a theorem harness", bound=True)
    p.add_argument("theorem", choices=("A", "B", "C", "D", "lemma",
                                       "props"))
    p.add_argument("--props", default=None,
                   help="comma-separated property names (with "
                        "theorem=props; default all: %s)"
                        % ",".join(sorted(PROPERTIES)))
    p = add("search-counterexample", _cmd_search,
            "hunt the first corpus witness violating a property",
            bound=True)
    p.add_argument("--property", required=True,
                   choices=sorted(SEARCHES))
    p = add("enumerate", _cmd_enumerate,
            "enumerate the bounded corpus up to isomorphism", bound=True)
    p.add_argument("--list", action="store_true",
                   help="include the presheaves themselves")
    p = add("force", _cmd_force,
            "evaluate a closed formula by stage-wise forcing")
    p.add_argument("--formula", required=True)
    p.add_argument("--let", action="append", metavar="NAME=OBJECT",
                   help="bind extra sort names (builtin or .psh file)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.started = time.time()
    if hasattr(args, "raw_bound"):
        try:
            args.bound = _parse_bounds(args.raw_bound)
        except ValueError:
            print("error: bad --bound %r" % args.raw_bound,
                  file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except ToposError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
