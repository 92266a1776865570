"""Flat-file formats for categories and presheaves.

Both formats are line-oriented structured text with a fixed field order,
so serialization is canonical and golden files are bit-exact.

Category file (.cat)::

    category <name>
    objects <o1> <o2> ...
    identity <object> <morphism>
    morphism <name> <dom> <cod>          # non-identity morphisms
    compose <g> <f> <g∘f>                # all composable pairs

Presheaf file (.psh)::

    presheaf <name>
    base <catalog-name-or-.cat-path>
    stage <object> [<elem> ...]
    action <morphism> <elem> <image>     # at least every generator

Element ids may not contain any of the characters ``( ) , | [ ] { } ; : >``,
from which the engine builds the ids of constructed elements.  Blank
lines and ``#`` comments are allowed anywhere.
"""

from __future__ import annotations

import os
import re

from .errors import ParseError
from .fincat import FinCategory, catalog, catalog_entries, validate_category
from .presheaf import (RESERVED_ID_CHARS, Presheaf, make_from_generators,
                       validate_presheaf)


def _lines(text: str):
    """Significant lines as (line_number, field_columns, fields)."""
    out = []
    for i, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        found = list(re.finditer(r"\S+", body))
        if found:
            out.append((i, [m.start() + 1 for m in found],
                        [m.group() for m in found]))
    return out


def _fail(msg, line, col):
    raise ParseError(msg, line=line, col=col)


# ---------------------------------------------------------------------------
# categories

def category_to_text(C: FinCategory) -> str:
    lines = ["category %s" % C.name,
             "objects %s" % " ".join(C.objects)]
    for c in C.objects:
        lines.append("identity %s %s" % (c, C.identities[c]))
    for m in C.nonidentity_morphisms():
        d, c = C.morphisms[m]
        lines.append("morphism %s %s %s" % (m, d, c))
    for (g, f), gf in sorted(C.composition.items()):
        lines.append("compose %s %s %s" % (g, f, gf))
    return "\n".join(lines) + "\n"


def parse_category_text(text: str) -> FinCategory:
    name = None
    objects: list[str] = []
    identities: dict[str, str] = {}
    morphisms: list[list[str]] = []
    composition: list[list[str]] = []
    for line, cols, fields in _lines(text):
        col = cols[0]
        kw = fields[0]
        if kw == "category":
            if len(fields) != 2:
                _fail("expected: category <name>", line, col)
            name = fields[1]
        elif kw == "objects":
            objects.extend(fields[1:])
        elif kw == "identity":
            if len(fields) != 3:
                _fail("expected: identity <object> <morphism>", line, col)
            identities[fields[1]] = fields[2]
            morphisms.append([fields[2], fields[1], fields[1]])
        elif kw == "morphism":
            if len(fields) != 4:
                _fail("expected: morphism <name> <dom> <cod>", line, col)
            morphisms.append(fields[1:])
        elif kw == "compose":
            if len(fields) != 4:
                _fail("expected: compose <g> <f> <gf>", line, col)
            composition.append(fields[1:])
        else:
            _fail("unknown keyword %r" % kw, line, col)
    if name is None:
        _fail("missing 'category' header", 1, 1)
    return validate_category({"name": name, "objects": objects,
                              "morphisms": morphisms,
                              "identities": identities,
                              "composition": composition})


def parse_category_file(path: str) -> FinCategory:
    with open(path, encoding="utf-8") as fh:
        return parse_category_text(fh.read())


def resolve_base(ref: str, relative_to: str | None = None) -> FinCategory:
    """A base category from a catalog name or a .cat file path."""
    if ref in catalog_entries():
        return catalog(ref)
    path = ref
    if relative_to is not None and not os.path.isabs(path):
        path = os.path.join(os.path.dirname(relative_to), path)
    if os.path.exists(path):
        return parse_category_file(path)
    raise ParseError("unknown base %r (not a catalog name or file)" % ref)


# ---------------------------------------------------------------------------
# presheaves

def presheaf_to_text(X: Presheaf) -> str:
    """The .psh text of X.  When any element id contains a reserved
    character (ids of constructed presheaves do), every element is
    written as <stage><index> instead, so the text parses back to a
    presheaf isomorphic to X."""
    C = X.base
    rename = any(ch in RESERVED_ID_CHARS
                 for _c, x in X.elements() for ch in x)
    ids = {c: {x: "%s%d" % (c, i) if rename else x
               for i, x in enumerate(X.sets[c])} for c in C.objects}
    lines = ["presheaf %s" % (X.name or "X"),
             "base %s" % C.name]
    for c in C.objects:
        lines.append(("stage %s %s" % (c, " ".join(ids[c].values())))
                     .rstrip())
    for m in C.nonidentity_morphisms():
        d, c = C.morphisms[m]
        for x in X.sets[c]:
            lines.append("action %s %s %s"
                         % (m, ids[c][x], ids[d][X.act(m, x)]))
    return "\n".join(lines) + "\n"


def parse_presheaf_text(text: str, path: str | None = None,
                        base: FinCategory | None = None) -> Presheaf:
    name = None
    base_ref = None
    sets: dict[str, list[str]] = {}
    actions: dict[str, dict[str, str]] = {}
    positions: dict[str, tuple[int, int]] = {}
    for line, cols, fields in _lines(text):
        col = cols[0]
        kw = fields[0]
        if kw == "presheaf":
            if len(fields) != 2:
                _fail("expected: presheaf <name>", line, col)
            name = fields[1]
        elif kw == "base":
            if len(fields) != 2:
                _fail("expected: base <name-or-path>", line, col)
            base_ref = fields[1]
        elif kw == "stage":
            if len(fields) < 2:
                _fail("expected: stage <object> [<elem> ...]", line, col)
            for elem, elem_col in zip(fields[2:], cols[2:]):
                if any(ch in RESERVED_ID_CHARS for ch in elem):
                    _fail("element id %r contains a reserved character "
                          "(one of %s)" % (elem, " ".join(RESERVED_ID_CHARS)),
                          line, elem_col)
            sets.setdefault(fields[1], []).extend(fields[2:])
        elif kw == "action":
            if len(fields) != 4:
                _fail("expected: action <morphism> <elem> <image>",
                      line, col)
            m, x, y = fields[1:]
            actions.setdefault(m, {})[x] = y
            positions.setdefault(m, (line, col))
        else:
            _fail("unknown keyword %r" % kw, line, col)
    if name is None:
        _fail("missing 'presheaf' header", 1, 1)
    if base is None:
        if base_ref is None:
            _fail("missing 'base' line", 1, 1)
        base = resolve_base(base_ref, path)
    known = set(base.morphism_names())
    for m in actions:
        if m not in known or base.is_identity(m):
            line, col = positions[m]
            _fail("unknown morphism %r in action table" % m, line, col)
    for c in sets:
        if c not in base.objects:
            _fail("unknown object %r in stage line" % c, 1, 1)
    full_sets = {c: tuple(sets.get(c, ())) for c in base.objects}
    gens = set(base.generating_morphisms())
    if set(actions) >= gens and set(actions) != set(
            base.nonidentity_morphisms()):
        X = make_from_generators(base, full_sets,
                                 {m: actions[m] for m in gens}, name)
        for m in actions:
            if m not in gens and actions[m] != X.actions[m]:
                line, col = positions[m]
                _fail("action table for %r contradicts the composite "
                      "derived from the generators" % m, line, col)
        return X
    X = validate_presheaf(base, {"sets": full_sets, "actions": actions})
    X.name = name
    return X


def parse_presheaf_file(path: str,
                        base: FinCategory | None = None) -> Presheaf:
    with open(path, encoding="utf-8") as fh:
        return parse_presheaf_text(fh.read(), path, base)
