"""Every function, class and method of the package is used somewhere.

A definition counts as used when a name, attribute or import alias in
src/mustab, scripts/ or tests/ mentions it outside the definition itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mustab"


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield item


def _mentions(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno


def test_every_definition_is_mentioned_elsewhere():
    files = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    trees = {f: ast.parse(f.read_text()) for f in files}
    mentions: dict[str, list] = {}
    for f, tree in trees.items():
        for name, line in _mentions(tree):
            mentions.setdefault(name, []).append((f, line))
    unused = []
    for f in sorted(PACKAGE.glob("*.py")):
        for node in _definitions(trees[f]):
            places = mentions.get(node.name, [])
            if all(g == f and node.lineno <= line <= node.end_lineno for g, line in places):
                unused.append(f"{f.name}:{node.lineno} {node.name}")
    assert not unused, "defined but never used: " + ", ".join(unused)
