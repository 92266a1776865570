"""Every public top-level function and class of the package is used.

A definition counts as used when its name appears as a whole word in
another module of the package or in the test suite, or when code of its
own module outside the definition itself refers to it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "fptopos").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _unused_in_module(path, texts):
    tree = ast.parse(texts[path])
    names = [{n.id for n in ast.walk(top) if isinstance(n, ast.Name)}
             for top in tree.body]
    unused = []
    for i, node in enumerate(tree.body):
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
        local = set().union(*(n for j, n in enumerate(names) if j != i))
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
