"""The package's modules reach each other through public names only, and
every private top-level name is read somewhere in the package."""

import ast
from pathlib import Path

import kinkline

SRC = Path(kinkline.__file__).parent


def test_no_module_imports_a_private_name_from_another():
    leaks = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                leaks += [
                    f"{path.name}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert leaks == []


def _top_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def test_every_private_top_level_name_is_used():
    # a module-level ``_name`` is reachable only from the package itself,
    # so one that no Name or Attribute read in src/ mentions is dead code
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]
    private = {
        name
        for tree in trees
        for name in _top_level_names(tree)
        if name.startswith("_") and not name.startswith("__")
    }
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    assert len(private) > 40
    assert sorted(private - read) == []
