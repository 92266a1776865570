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
import importlib.util
import json
import os
import sys
import time

from .errors import (AxiomPrereqFailed, ParseError, ToposError,
                     DEFAULT_SIZE_CAP)
from .fincat import bound_label, capped_bounds, catalog, catalog_entries
from .report import Result, unknown_at_cap


def _lazy(name: str):
    """The package's module NAME, put in sys.modules now but compiled and
    run at the first read of one of its attributes, so each command
    compiles only the modules it runs.  The benchmark's tracer wraps the
    functions of the modules in sys.modules once the CLI is imported."""
    full = "%s.%s" % (__package__, name)
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


builtin_objects = _lazy("builtins")
corpora = _lazy("corpus")
decidable = _lazy("decidable")
files = _lazy("files")
harness = _lazy("harness")
precohesion = _lazy("precohesion")
presheaf = _lazy("presheaf")
sublattice = _lazy("sublattice")


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


def _resolve_base(ref: str):
    """A catalog base, or the base of a .cat file, whose parser is
    compiled only then."""
    if ref in catalog_entries():
        return catalog(ref)
    return files.resolve_base(ref)


def _resolve_object(ref: str, C):
    """An object from a builtin name, builtin:NAME, or a .psh file whose
    declared base must match the command's base category."""
    if ref.startswith("builtin:"):
        return builtin_objects.builtin_object(C, ref[len("builtin:"):])
    if ref.endswith(".psh") or os.path.sep in ref:
        X = files.parse_presheaf_file(ref)
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
    C = _resolve_base(args.base)
    r = precohesion.check_ns(C)
    r.details["recheck"] = "fptopos check-ns --base %s" % args.base
    return _emit(args, C.name, r)


def _cmd_decidable(args) -> int:
    C = _resolve_base(args.base)
    X = _resolve_object(args.object, C)
    ok = decidable.is_decidable(X, args.cap)
    return _emit(args, C.name, Result(
        "decidable" if ok else "not-decidable", [],
        {"object": presheaf.presheaf_snippet(X)}))


def _cmd_pi(args) -> int:
    C = _resolve_base(args.base)
    X = _resolve_object(args.object, C)
    r = decidable.pi(X, args.cap)
    return _emit(args, C.name, Result("ok", [], {
        "stage_sizes": list(r.quotient.size_vector()),
        "quotient": presheaf.presheaf_snippet(r.quotient),
        "quotient_map": {c: dict(r.map.components[c]) for c in C.objects}}))


def _cmd_connected(args) -> int:
    C = _resolve_base(args.base)
    X = _resolve_object(args.object, C)
    ok = decidable.is_connected(X)
    return _emit(args, C.name,
                 Result("connected" if ok else "not-connected"))


def _cmd_subc(args) -> int:
    C = _resolve_base(args.base)
    X = _resolve_object(args.object, C)
    subs = sublattice.complemented_subobjects(X, args.cap)
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
    C = _resolve_base(args.base)
    X = _resolve_object(args.object, C)
    if args.map == "pi":
        f = decidable.pi(X, args.cap).map
    else:
        _M, f = decidable.separated_reflection(X, args.cap)
    cm = sublattice.pneumoconnected_countermodel(f, args.cap)
    return _emit(args, C.name, _countermodel(cm, "pneumoconnected-fibers",
                                             {"map": args.map}))


def _ns_forces_axioms(C, args) -> bool:
    """Whether NS holds on the base, which forces DQO, DSO and Π's
    product preservation at every object (`precohesion.require_ns`), so
    that a bounded check or search of them needs no corpus.  The bound
    is still held to the cap, as enumerating the corpus would."""
    if not precohesion.check_ns(C).holds():
        return False
    capped_bounds(C, args.bound, args.cap)
    return True


def _axiom_cmd(args, axiom: str) -> int:
    C = _resolve_base(args.base)
    label = None
    if args.object:
        check = getattr(decidable, "check_" + axiom)
        r = check(_resolve_object(args.object, C), args.cap)
        where = " --object %s" % args.object
    else:
        label = bound_label(C, args.bound)
        if _ns_forces_axioms(C, args):
            r = Result("holds-at-bound")
        else:
            bounded = getattr(decidable, "check_%s_bounded" % axiom)
            r = bounded(corpora.enumerate_presheaves(C, args.bound,
                                                     args.cap))
        where = " --bound %s" % args.raw_bound
    r.details["recheck"] = "fptopos %s --base %s%s" % (
        args.subcommand, args.base, where)
    return _emit(args, C.name, r, label)


def _cmd_check_dqo(args) -> int:
    return _axiom_cmd(args, "dqo")


def _cmd_check_dso(args) -> int:
    return _axiom_cmd(args, "dso")


def _cmd_dec_topos(args) -> int:
    C = _resolve_base(args.base)
    label = bound_label(C, args.bound)
    corpus = corpora.enumerate_presheaves(C, args.bound, args.cap)
    r = decidable.dec_is_topos_check(corpus)
    return _emit(args, C.name, r, label)


def _cmd_precohesion(args) -> int:
    C = _resolve_base(args.base)
    label = bound_label(C, args.bound)
    return _emit(args, C.name, precohesion.check_precohesive(C), label)


def _cmd_verify(args) -> int:
    C = _resolve_base(args.base)
    label = bound_label(C, args.bound)
    t = args.theorem
    counts = None
    try:
        # Theorems A, B and C are decided by NS on the base alone.
        if t in ("A", "B"):
            r = precohesion.theorem_ab_harness(C)
        elif t == "C":
            r = precohesion.theorem_c_harness(C)
        elif t == "D":
            # whether the two sides agree; dec-topos shows the witnesses
            r = decidable.dec_is_topos_check(
                corpora.enumerate_presheaves(C, args.bound, args.cap))
            if r.verdict != "unknown-at-cap":
                r = Result("holds" if r.holds() else "fails", [], r.details)
        elif t == "lemma":
            corpus = corpora.enumerate_presheaves(C, args.bound, args.cap)
            r, counts = harness.lemma_report(corpus), corpus.stats
        else:
            r, counts = _props(args, C)
    except AxiomPrereqFailed as exc:
        r = Result("prerequisite-failed", [], {"failed_prereq": str(exc)})
    return _emit(args, C.name, r, label, counts)


def _props(args, C) -> tuple[Result, dict | None]:
    """The property battery, and the corpus counts if a selected property
    still walks the corpus, which is enumerated only then.  When every
    selected property is true by construction or forced by NS, neither
    the harness nor a corpus is loaded."""
    names = args.props.split(",") if args.props else None
    forced = precohesion.forced_properties(C)
    if names is not None and \
            set(names) <= precohesion.BY_CONSTRUCTION | forced:
        return Result("holds", [],
                      {"properties": dict.fromkeys(names, True)}), None
    harness.require_known(names or (), harness.PROPERTIES)
    corpus = corpora.enumerate_presheaves(C, args.bound, args.cap)
    return harness.props_report(corpus, names, forced), corpus.stats


@unknown_at_cap
def _search(prop: str, corpus) -> Result:
    """The search's witness; else unknown at the cap, naming the objects
    a per-object check capped at, or none.  A cap hit elsewhere in the
    search makes the whole search unknown at the cap."""
    capped = []
    w = harness.search_counterexample(prop, corpus, capped)
    if w is not None:
        return Result("witness", [w])
    if capped:
        return Result("unknown-at-cap", [],
                      {"capped": [X.name for X in capped]})
    return Result("none")


def _cmd_search(args) -> int:
    C = _resolve_base(args.base)
    label = bound_label(C, args.bound)
    if args.property in precohesion.NS_FORCED_SEARCHES and \
            _ns_forces_axioms(C, args):
        r, counts = Result("none"), None
    else:
        harness.require_known([args.property], harness.SEARCHES)
        corpus = corpora.enumerate_presheaves(C, args.bound, args.cap)
        r, counts = _search(args.property, corpus), corpus.stats
    r.details["property"] = args.property
    if r.verdict == "witness":
        r.details["recheck"] = ("fptopos search-counterexample --property "
                                "%s --base %s --bound %s"
                                % (args.property, args.base, args.raw_bound))
    return _emit(args, C.name, r, label, counts)


def _cmd_enumerate(args) -> int:
    C = _resolve_base(args.base)
    label = bound_label(C, args.bound)
    corpus = corpora.enumerate_presheaves(C, args.bound, args.cap)
    details = {"count": len(corpus),
               "counts_per_size_vector": {",".join(map(str, k)): v
                                          for k, v in corpus.counts.items()}}
    if args.list:
        details["presheaves"] = [presheaf.presheaf_snippet(X)
                                 for X in corpus]
    return _emit(args, C.name, Result("ok", [], details), label,
                 corpus.stats)


def _cmd_force(args) -> int:
    # The interpreter is imported here only: no other command needs it.
    from .forcing import PresheafSort, parse_formula, universally_valid
    C = _resolve_base(args.base)
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

# Each subcommand: its function, its help, whether it takes --object
# ("req": must) and whether it takes --bound.
_SUBCOMMANDS = {
    "catalog": (_cmd_catalog, "list built-in base categories", False, False),
    "check-ns": (_cmd_check_ns,
                 "decide whether every object is initial or has a point",
                 False, False),
    "decidable": (_cmd_decidable, "is the object's diagonal complemented",
                  "req", False),
    "pi": (_cmd_pi, "compute the decidable quotient", "req", False),
    "connected": (_cmd_connected,
                  "does the object have exactly two complemented subobjects",
                  "req", False),
    "subc": (_cmd_subc, "list complemented subobjects", "req", False),
    "pneumo": (_cmd_pneumo,
               "check pneumoconnected fibers of a canonical quotient map",
               "req", False),
    "check-dqo": (_cmd_check_dqo, "unique decidable quotient axiom", True,
                  True),
    "check-dso": (_cmd_check_dso, "unique decidable subobject axiom", True,
                  True),
    "dec-topos": (_cmd_dec_topos,
                  "two-sided check that the decidables form a topos", False,
                  True),
    "precohesion": (_cmd_precohesion,
                    "precohesion over the decidable objects", False, True),
    "verify": (_cmd_verify, "run a theorem harness", False, True),
    "search-counterexample": (
        _cmd_search, "hunt the first corpus witness violating a property",
        False, True),
    "enumerate": (_cmd_enumerate,
                  "enumerate the bounded corpus up to isomorphism", False,
                  True),
    "force": (_cmd_force, "evaluate a closed formula by stage-wise forcing",
              False, False),
}


def _add_own_arguments(name: str, p: argparse.ArgumentParser) -> None:
    """The arguments of subcommand NAME past those every one takes."""
    if name == "pneumo":
        p.add_argument("--map", choices=("pi", "separated"), default="pi",
                       help="which quotient map of the object to check")
    elif name == "verify":
        p.add_argument("theorem", choices=("A", "B", "C", "D", "lemma",
                                           "props"))
        p.add_argument("--props", default=None,
                       help="comma-separated property names (with "
                            "theorem=props; default all)")
    elif name == "search-counterexample":
        p.add_argument("--property", required=True,
                       help="the property to search (an unknown name "
                            "lists them)")
    elif name == "enumerate":
        p.add_argument("--list", action="store_true",
                       help="include the presheaves themselves")
    elif name == "force":
        p.add_argument("--formula", required=True)
        p.add_argument("--let", action="append", metavar="NAME=OBJECT",
                       help="bind extra sort names (builtin or .psh file)")


def _build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser, with only the subparser that argv[0] names, or with
    every subparser when argv[0] names none (help, no arguments, an
    unknown name)."""
    parser = argparse.ArgumentParser(
        prog="fptopos",
        description="Finite presheaf topos checker: decidable quotients, "
                    "connectedness, pneumoconnected fibers, and "
                    "precohesion over decidable objects.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    names = list(_SUBCOMMANDS)
    if argv and argv[0] in _SUBCOMMANDS:
        # The top-level usage, shown for an unknown option, still lists
        # every subcommand.
        sub.metavar = "{%s}" % ",".join(names)
        names = [argv[0]]
    for name in names:
        func, help_text, obj, bound = _SUBCOMMANDS[name]
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
        _add_own_arguments(name, p)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv).parse_args(argv)
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
