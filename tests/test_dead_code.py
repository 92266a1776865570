"""Every public top-level function and class of the package, and every
public method of its classes, is used.

A definition counts as used when its name appears as a whole word in
another module of the package or in the test suite, or when code of its
own module outside the definition itself refers to it (for a method:
outside the method's own body).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "fptopos").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def _refs(nodes, attributes: bool) -> set:
    """The names the code of nodes refers to, with attribute names too
    when `attributes` (as a method is called)."""
    refs = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                refs.add(n.id)
            elif attributes and isinstance(n, ast.Attribute):
                refs.add(n.attr)
    return refs


def _definitions(tree):
    """(definition, the names the code of its module outside it refers
    to) for each public top-level function and class and each public
    method."""
    for i, top in enumerate(tree.body):
        rest = [n for j, n in enumerate(tree.body) if j != i]
        if isinstance(top, DEFINITIONS) and not top.name.startswith("_"):
            yield top, _refs(rest, False)
        if isinstance(top, ast.ClassDef):
            for k, node in enumerate(top.body):
                if isinstance(node, DEFINITIONS) \
                        and not node.name.startswith("_"):
                    siblings = [n for j, n in enumerate(top.body) if j != k]
                    yield node, _refs(rest + siblings, True)


def _unused_in_module(path, texts):
    tree = ast.parse(texts[path])
    unused = []
    for node, local in _definitions(tree):
        word = re.compile(r"\b%s\b" % re.escape(node.name))
        elsewhere = any(word.search(text) for other, text in texts.items()
                        if other != path)
        if node.name not in local and not elsewhere:
            unused.append("%s: %s" % (path.name, node.name))
    return unused


def test_every_public_definition_is_referenced():
    texts = {path: path.read_text(encoding="utf-8") for path in SRC + TESTS}
    unused = [name for path in SRC for name in _unused_in_module(path, texts)]
    assert unused == []
