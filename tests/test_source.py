"""Source hygiene checks on the package, using only the standard library."""

import ast
from pathlib import Path

import sps

SRC = Path(sps.__file__).parent


def unused_imports(tree):
    """Names bound by import statements anywhere in the module that no other
    expression of the module reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name != "annotations")


def test_no_unused_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's exports
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}: {name}" for line, name in unused_imports(tree)]
    assert found == []
