"""The package's modules reach each other through public names only."""

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
