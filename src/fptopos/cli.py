"""Command-line surface.

Every subcommand maps onto one library operation, reads a base category
(catalog name or .cat file) and optionally an object (builtin name or
.psh file), and emits a report in text or machine-readable JSON.

Exit codes: 0 = all checks pass / property holds; 1 = a check fails (the
report carries a witness) or its verdict is unknown at the size cap;
2 = usage, parse, or size-cap error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import builtins as builtin_objects
from .corpus import bound_label, enumerate_presheaves
from .decidable import (check_dqo, check_dqo_bounded, check_dso,
                        check_dso_bounded, check_ns, dec_is_topos_check,
                        is_connected, is_decidable, pi, presheaf_snippet,
                        separated_reflection)
from .errors import (AxiomPrereqFailed, ParseError, ToposError,
                     DEFAULT_SIZE_CAP)
from .files import parse_presheaf_file, resolve_base
from .fincat import catalog_entries
from .harness import (lemma_report, props_report, search_counterexample,
                      PROPERTIES, SEARCHES)
from .precohesion import (check_precohesive, require_ns, theorem_ab_harness,
                          theorem_c_harness)
from .report import Result, unknown_at_cap
from .sublattice import complemented_subobjects, pneumoconnected_countermodel


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
        if key.strip() in out:
            raise ValueError("stage %r given twice" % key.strip())
        out[key.strip()] = int(val)
    return out


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


def _emit(args, base: str, r: Result, bounds: str | None = None,
          counts: dict | None = None) -> int:
    """Print the result in the report envelope (command, base, bounds,
    timings, which with --timings also holds `counts`); the exit code is
    0 if it holds, else 1."""
    command = args.subcommand
    if command == "verify":
        command += " " + args.theorem
    data = {"command": command, "base": base, "bounds": bounds,
            "verdict": r.verdict, "witnesses": r.witnesses,
            "details": r.details, "timings": None}
    if args.timings:
        data["timings"] = {"seconds": round(time.time() - args.started, 3),
                           **(counts or {})}
    if args.format == "json":
        print(json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False))
    else:
        print("command: %s" % command)
        print("base: %s" % base)
        if bounds:
            print("bounds: %s" % bounds)
        print("verdict: %s" % r.verdict)
        for key in sorted(r.details):
            print("%s: %s" % (key, _short(r.details[key])))
        for w in r.witnesses:
            print("witness: %s" % _short(w))
        if data["timings"]:
            print("seconds: %s" % data["timings"]["seconds"])
            for key in sorted(counts or {}):
                print("%s: %s" % (key, counts[key]))
    return 0 if r.holds() else 1


def _short(value) -> str:
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, ensure_ascii=False)
    return str(value)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_catalog(args) -> int:
    entries = {}
    for name, entry in catalog_entries().items():
        C = entry.category
        entries[name] = {"objects": list(C.objects),
                         "morphisms": len(C.morphism_names()),
                         "expected_profile": entry.notes}
    return _emit(args, "-", Result("ok", [], {"catalog": entries}))


def _cmd_check_ns(args) -> int:
    C = resolve_base(args.base)
    r = check_ns(C)
    r.details["recheck"] = "fptopos check-ns --base %s" % args.base
    return _emit(args, C.name, r)


def _cmd_decidable(args) -> int:
    C = resolve_base(args.base)
    X = _resolve_object(args.object, C)
    ok = is_decidable(X, args.cap)
    return _emit(args, C.name, Result(
        "decidable" if ok else "not-decidable", [],
        {"object": presheaf_snippet(X)}))


def _cmd_pi(args) -> int:
    C = resolve_base(args.base)
    X = _resolve_object(args.object, C)
    r = pi(X, args.cap)
    return _emit(args, C.name, Result("ok", [], {
        "stage_sizes": list(r.quotient.size_vector()),
        "quotient": presheaf_snippet(r.quotient),
        "quotient_map": {c: dict(r.map.components[c]) for c in C.objects}}))


def _cmd_connected(args) -> int:
    C = resolve_base(args.base)
    X = _resolve_object(args.object, C)
    ok = is_connected(X)
    return _emit(args, C.name,
                 Result("connected" if ok else "not-connected"))


def _cmd_subc(args) -> int:
    C = resolve_base(args.base)
    X = _resolve_object(args.object, C)
    subs = complemented_subobjects(X, args.cap)
    return _emit(args, C.name, Result("ok", [], {
        "count": len(subs),
        "complemented_subobjects": [{c: sorted(S.parts[c])
                                     for c in C.objects} for S in subs]}))


def _countermodel(cm, holds: str, details: dict) -> Result:
    if cm is None:
        return Result(holds, [], details)
    return Result("fails", [{"stage": cm.stage, "bindings": cm.bindings}],
                  details)


def _cmd_pneumo(args) -> int:
    C = resolve_base(args.base)
    X = _resolve_object(args.object, C)
    if args.map == "pi":
        f = pi(X, args.cap).map
    else:
        _M, f = separated_reflection(X, args.cap)
    cm = pneumoconnected_countermodel(f, args.cap)
    return _emit(args, C.name, _countermodel(cm, "pneumoconnected-fibers",
                                             {"map": args.map}))


def _axiom_cmd(args, per_object, bounded) -> int:
    C = resolve_base(args.base)
    label = None
    if args.object:
        r = per_object(_resolve_object(args.object, C), args.cap)
        where = " --object %s" % args.object
    else:
        label = bound_label(C, args.bound)
        r = bounded(enumerate_presheaves(C, args.bound, args.cap))
        where = " --bound %s" % args.raw_bound
    r.details["recheck"] = "fptopos %s --base %s%s" % (
        args.subcommand, args.base, where)
    return _emit(args, C.name, r, label)


def _cmd_check_dqo(args) -> int:
    return _axiom_cmd(args, check_dqo, check_dqo_bounded)


def _cmd_check_dso(args) -> int:
    return _axiom_cmd(args, check_dso, check_dso_bounded)


def _cmd_dec_topos(args) -> int:
    C = resolve_base(args.base)
    label = bound_label(C, args.bound)
    r = dec_is_topos_check(enumerate_presheaves(C, args.bound, args.cap))
    return _emit(args, C.name, r, label)


def _cmd_precohesion(args) -> int:
    C = resolve_base(args.base)
    label = bound_label(C, args.bound)
    r = check_precohesive(enumerate_presheaves(C, args.bound, args.cap))
    return _emit(args, C.name, r, label)


# The checks of theorem_ab_harness that make up theorems A and B.
_AB_CHECKS = {"A": ("pi_left_adjoint", "pi_preserves_products"),
              "B": ("exponential_ideal", "reflective_implies_dqo")}


def _cmd_verify(args) -> int:
    C = resolve_base(args.base)
    label = bound_label(C, args.bound)
    t = args.theorem
    counts = None
    try:
        if t in ("A", "B", "C"):
            require_ns(C)  # decided on the base alone, before enumerating
        corpus = enumerate_presheaves(C, args.bound, args.cap)
        if t in ("A", "B"):
            r = theorem_ab_harness(corpus)
            if r.verdict != "unknown-at-cap":
                ok = all(r.details["checks"][k] for k in _AB_CHECKS[t])
                r = Result("holds" if ok else "fails", [], r.details)
        elif t == "C":
            r = theorem_c_harness(corpus)
        elif t == "D":
            # whether the two sides agree; dec-topos shows the witnesses
            r = dec_is_topos_check(corpus)
            if r.verdict != "unknown-at-cap":
                r = Result("holds" if r.holds() else "fails", [], r.details)
        elif t == "lemma":
            r, counts = lemma_report(corpus), corpus.stats
        else:
            r, counts = props_report(corpus, args.props.split(",")
                                     if args.props else None), corpus.stats
    except AxiomPrereqFailed as exc:
        r = Result("prerequisite-failed", [], {"failed_prereq": str(exc)})
    return _emit(args, C.name, r, label, counts)


@unknown_at_cap
def _search(prop: str, corpus) -> Result:
    """The search's witness; else unknown at the cap, naming the objects
    a per-object check capped at, or none.  A cap hit elsewhere in the
    search makes the whole search unknown at the cap."""
    capped = []
    w = search_counterexample(prop, corpus, capped)
    if w is not None:
        return Result("witness", [w])
    if capped:
        return Result("unknown-at-cap", [],
                      {"capped": [X.name for X in capped]})
    return Result("none")


def _cmd_search(args) -> int:
    C = resolve_base(args.base)
    label = bound_label(C, args.bound)
    corpus = enumerate_presheaves(C, args.bound, args.cap)
    r = _search(args.property, corpus)
    r.details["property"] = args.property
    if r.verdict == "witness":
        r.details["recheck"] = ("fptopos search-counterexample --property "
                                "%s --base %s --bound %s"
                                % (args.property, args.base, args.raw_bound))
    return _emit(args, C.name, r, label, corpus.stats)


def _cmd_enumerate(args) -> int:
    C = resolve_base(args.base)
    label = bound_label(C, args.bound)
    corpus = enumerate_presheaves(C, args.bound, args.cap)
    details = {"count": len(corpus),
               "counts_per_size_vector": {",".join(map(str, k)): v
                                          for k, v in corpus.counts.items()}}
    if args.list:
        details["presheaves"] = [presheaf_snippet(X) for X in corpus]
    return _emit(args, C.name, Result("ok", [], details), label,
                 corpus.stats)


def _cmd_force(args) -> int:
    # The interpreter is imported here only: no other command needs it.
    from .forcing import PresheafSort, parse_formula, universally_valid
    C = resolve_base(args.base)
    names = {}
    for n in builtin_objects.builtin_names(C):
        names[n] = PresheafSort(builtin_objects.builtin_object(C, n))
    for decl in args.let or []:
        alias, _eq, ref = decl.partition("=")
        names[alias] = PresheafSort(_resolve_object(ref, C))
    phi = parse_formula(args.formula, names)
    cm = universally_valid(phi, {}, base=C)
    return _emit(args, C.name,
                 _countermodel(cm, "valid", {"formula": args.formula}))


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
        except ValueError as exc:
            print("error: bad --bound %r%s" % (args.raw_bound,
                                               str(exc) and ": %s" % exc),
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
