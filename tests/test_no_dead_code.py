"""Every function, class, method and field of the package is used somewhere.

A definition counts as used when a name, attribute or import alias in
src/mustab or scripts/ mentions it outside the definition itself; one that
only tests/ mention counts as used only when it is exported in
mustab.__all__, since test-only helpers belong in tests/.  A field (a name
in a class's __slots__, or an attribute a method assigns on self) counts
as read when an attribute load or a string constant names it.
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


def _trees():
    files = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    return {f: ast.parse(f.read_text()) for f in files}


def _exported(trees) -> set[str]:
    """The names listed in mustab.__all__."""
    for node in trees[PACKAGE / "__init__.py"].body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_definition_is_mentioned_elsewhere():
    trees = _trees()
    exported = _exported(trees)
    mentions: dict[str, list] = {}
    for f, tree in trees.items():
        for name, line in _mentions(tree):
            mentions.setdefault(name, []).append((f, line))
    unused = []
    for f in sorted(PACKAGE.glob("*.py")):
        for node in _definitions(trees[f]):
            outside = [
                g for g, line in mentions.get(node.name, [])
                if not (g == f and node.lineno <= line <= node.end_lineno)
            ]
            if all(g.parent == ROOT / "tests" for g in outside) and not (outside and node.name in exported):
                unused.append(f"{f.name}:{node.lineno} {node.name}")
    assert not unused, "defined but never used outside tests/: " + ", ".join(unused)


def _is_slots(node) -> bool:
    return isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)


def _fields(node: ast.ClassDef):
    """(name, line) of each __slots__ field and each attribute set on self."""
    for item in node.body:
        if _is_slots(item):
            for name in ast.literal_eval(item.value):
                if name != "__dict__":
                    yield name, item.lineno
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Store)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
        ):
            yield sub.attr, sub.lineno


def _reads(tree):
    # the names in a __slots__ declaration define fields, they do not read them
    declared = {
        id(c)
        for node in tree.body if isinstance(node, ast.ClassDef)
        for item in node.body if _is_slots(item)
        for c in ast.walk(item.value)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in declared:
            yield node.value


def test_every_field_is_read():
    trees = _trees()
    reads = {name for tree in trees.values() for name in _reads(tree)}
    unread = [
        f"{f.name}:{line} {node.name}.{name}"
        for f in sorted(PACKAGE.glob("*.py"))
        for node in trees[f].body if isinstance(node, ast.ClassDef)
        for name, line in _fields(node) if name not in reads
    ]
    assert not unread, "set but never read: " + ", ".join(unread)
