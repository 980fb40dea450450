"""Checks on the program's source: no definition in ``src/`` that only the
tests call."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(pattern):
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(ROOT.glob(pattern))}


def _references(tree):
    """(name, line) of every name, attribute and imported name in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno


def unreferenced_definitions(src_trees, other_trees):
    """The (path, name) of each non-dunder function, class or method of
    ``src_trees`` that no code of either tree set names outside its own
    definition, nor from inside a definition that is itself unreferenced."""
    defs = [(path, node) for path, tree in src_trees.items() for node in ast.walk(tree)
            if isinstance(node, DEFINITIONS)
            and not (node.name.startswith("__") and node.name.endswith("__"))]
    refs = {}
    for path, tree in {**src_trees, **other_trees}.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))

    def inside(path, line, definition):
        node_path, node = definition
        return path == node_path and node.lineno <= line <= node.end_lineno

    dead = []
    while True:
        newly = [d for d in defs if d not in dead
                 and not any(not inside(path, line, d)
                             and not any(inside(path, line, other) for other in dead)
                             for path, line in refs.get(d[1].name, ()))]
        if not newly:
            return sorted((str(path.relative_to(ROOT)), node.name) for path, node in dead)
        dead += newly


def test_no_src_definition_is_referenced_only_by_tests():
    assert unreferenced_definitions(_parse("src/shiftstereo/*.py"),
                                    _parse("perfbench/*.py")) == []


def test_the_scan_finds_a_definition_called_only_by_another_dead_one():
    src = {ROOT / "src/a.py": ast.parse(
        "def used():\n    pass\n\n"
        "def helper():\n    pass\n\n"
        "def dead():\n    helper()\n\n"
        "used()\n")}
    assert unreferenced_definitions(src, {}) == [("src/a.py", "dead"),
                                                 ("src/a.py", "helper")]
