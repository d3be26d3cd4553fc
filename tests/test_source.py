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


def test_no_imports_inside_functions():
    # every dependency of a module is stated at its top; an import in a
    # function body hides a cycle or a cost until the function first runs
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


# Public names that no other library code reaches, each kept for one reason.
UNREACHED_ALLOWED = {
    "zero_test_exact": "bench/spans.py spans it; ZeroOracle answers through its kernel",
    "zero_test_random": "bench/spans.py spans it; ZeroOracle answers through its kernel",
    "similar": "bench/spans.py spans it (forms.similar)",
    "reduced_class_key": "bench/spans.py counts it (quotient.reduced_class_key)",
    "invert": "matching algebra, acceptance criterion 5",
    "disjoint_union": "matching algebra, acceptance criterion 5",
    "compose": "matching algebra, acceptance criterion 5",
    "trivialize": "matching algebra, acceptance criterion 5",
    "simple_part": "gcd / simple-part decomposition, acceptance criterion 6",
    "linear_factors": "linear factors, acceptance criterion 9",
    "make_circuit": "public constructor of circuits from raw ints",
    "subcircuit": "public constructor of a circuit's restriction to a term subset",
}


def referenced_names(trees):
    """Every name and attribute read by a module other than __init__.py (its
    imports are the package's exports)."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for name, tree in trees.items() if name != "__init__.py"
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def unreached_definitions(trees):
    """Public top-level functions and classes of the modules that no module
    other than __init__.py references by name or attribute."""
    referenced = referenced_names(trees)
    return sorted((name, node.name)
                  for name, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in referenced)


def test_no_unreached_public_definitions():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    found = unreached_definitions(trees)
    assert [(module, name) for module, name in found if name not in UNREACHED_ALLOWED] == []
    assert sorted(name for _, name in found) == sorted(UNREACHED_ALLOWED)  # none stale


# Public methods and properties that no library code reaches, each kept for one reason.
UNREACHED_MEMBERS_ALLOWED = {
    "FormIdeal.reduce_prefix": "bench/spans.py counts it (quotient.reduce_prefix)",
}


def unreached_members(trees):
    """Public methods and properties of the modules' classes whose names no
    module other than __init__.py references by name or attribute."""
    referenced = referenced_names(trees)
    return sorted((name, f"{cls.name}.{node.name}")
                  for name, tree in trees.items()
                  for cls in tree.body if isinstance(cls, ast.ClassDef)
                  for node in cls.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not node.name.startswith("_") and node.name not in referenced)


def test_no_unreached_public_members():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    found = unreached_members(trees)
    assert [(module, name) for module, name in found
            if name not in UNREACHED_MEMBERS_ALLOWED] == []
    assert sorted(name for _, name in found) == sorted(UNREACHED_MEMBERS_ALLOWED)  # none stale
