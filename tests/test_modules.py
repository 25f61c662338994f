"""The package's modules reach each other through public names only, and
every top-level name is read somewhere in the package."""

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


def _names_defined(body):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def _top_level_names(tree):
    return _names_defined(tree.body)


def _defined_and_read():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]
    defined = {name for tree in trees for name in _top_level_names(tree)}
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    return defined, read


def test_no_module_reads_a_private_class_attribute_of_another():
    # a class's ``_name`` attributes are its own layout: another module
    # reads the public form (``len(b.x) // 2``, not ``b._CENTRE``)
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
    }
    private = {
        name: {
            attr
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for attr in _names_defined(cls.body)
            if attr.startswith("_") and not attr.startswith("__")
        }
        for name, tree in trees.items()
    }
    assert "_CENTRE" in private["brackets.py"]
    leaks = [
        f"{name}:{node.lineno} reads {node.attr}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr not in private[name]
        and any(node.attr in attrs for other, attrs in private.items() if other != name)
    ]
    assert leaks == []


def test_every_private_top_level_name_is_used():
    # a module-level ``_name`` is reachable only from the package itself,
    # so one that no Name or Attribute read in src/ mentions is dead code
    defined, read = _defined_and_read()
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert len(private) > 40
    assert sorted(private - read) == []


def test_every_public_top_level_name_is_used():
    # a public name that nothing in src/ reads serves only the tests, and
    # belongs with them; an import or re-export is not a read.  The one
    # exception, ``models.build_model``, is looked up by perfbench's tracer.
    defined, read = _defined_and_read()
    public = {name for name in defined if not name.startswith("_")}
    assert len(public) > 80
    assert sorted(public - read) == ["build_model"]


def test_every_imported_name_is_read():
    # a name a module imports but never reads is a dead import; the package
    # namespace's re-exports and ``annotations`` are not reads.  The one
    # exception, ``dupm.build_model``, is checked by perfbench's tests.
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [f"{path.stem}.{name}" for name in sorted(imported - read - {"annotations"})]
    assert unread == ["dupm.build_model"]


def test_only_brackets_reads_the_minimum_gap_factor():
    # the trial-admission rule and the gap check it must clear state the
    # minimum gap once, in brackets; another module calls brackets.min_gap
    readers = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "brackets.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name == "MIN_GAP_FACTOR":
                readers.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert readers == []
