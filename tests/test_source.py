"""Source hygiene checks on the package, using only the standard library."""

import ast
import inspect
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
    "zero_test_random": 'bench/spans.py spans it; it is ZeroOracle("random").is_zero',
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


def member_references(trees):
    """(receiver class, attribute, enclosing member) for every attribute read
    in a module other than __init__.py. Inside a member of class C, self.m
    names C.m, so its receiver class is C; any other receiver cannot be
    resolved from the AST and is None. The enclosing member is "C.m" for a
    read inside the body of member m of class C, else None."""
    refs = set()
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        for top in tree.body:
            parts = ([(top.name, node) for node in top.body]
                     if isinstance(top, ast.ClassDef) else [(None, top)])
            for cls, part in parts:
                method = cls is not None and isinstance(
                    part, (ast.FunctionDef, ast.AsyncFunctionDef))
                within = f"{cls}.{part.name}" if method else None
                for node in ast.walk(part):
                    if isinstance(node, ast.Attribute):
                        self_read = (method and isinstance(node.value, ast.Name)
                                     and node.value.id == "self")
                        refs.add((cls if self_read else None, node.attr, within))
    return refs


def unreached_members(trees):
    """Public methods and properties of the modules' classes that no attribute
    read outside their own bodies reaches: C.m is reached by self.m inside C
    and by x.m on any receiver x other than self."""
    refs = member_references(trees)

    def reached(cls, method):
        return any(attr == method and owner in (None, cls) and within != f"{cls}.{method}"
                   for owner, attr, within in refs)

    return sorted((name, f"{cls.name}.{node.name}")
                  for name, tree in trees.items()
                  for cls in tree.body if isinstance(cls, ast.ClassDef)
                  for node in cls.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not node.name.startswith("_") and not reached(cls.name, node.name))


def test_no_unreached_public_members():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    found = unreached_members(trees)
    assert [(module, name) for module, name in found
            if name not in UNREACHED_MEMBERS_ALLOWED] == []
    assert sorted(name for _, name in found) == sorted(UNREACHED_MEMBERS_ALLOWED)  # none stale


# Every parameter with a default in the public callables of sps.__all__, each
# with one caller outside the tests that sets it.
OPTIONS_ALLOWED = {
    "DoublingReport.__init__(reason=)": "doubling_check states why a verdict is CONTRADICTION",
    "Field.__init__(e=)": "field_make passes a file header's e",
    "FormIdeal.__init__(generators=)": "sps match --ideal; build_chain's ideals",
    "OrderedMatching.__init__(_reductions=)": "OrderedMatching.build passes its records",
    "OrderedMatching.build(reductions=)": "find_matching and split_term pass shared records",
    "OrderedMatching.verify(reductions=)": "OrderedMatching.__init__ passes build's records",
    "SpanBasis.__init__(rows=)": "SpanBasis.insert passes the grown rows",
    "SpanBasis.__init__(pivots=)": "SpanBasis.insert passes the grown pivots",
    "ZeroOracle.__init__(mode=)": "sps check --exact / --random",
    "ZeroOracle.__init__(trials=)": "sps check --trials",
    "ZeroOracle.__init__(seed=)": "sps check --seed",
    "build_chain(oracle=)": "tests substitute an oracle",
    "gen_family(oracle=)": "tests substitute an oracle",
    "gen_family(verify=)": "bench/instances.py builds members with verify=False",
    "gen_intro_counterexamples(p=)": "bench/instances.py passes large primes",
    "gen_joined(oracle=)": "gen_family passes its oracle",
    "gen_joined(verify=)": "gen_family and bench/instances.py pass verify=False",
    "gen_tight_lists(p=)": "sps gen tight --p",
    "is_minimal(oracle=)": "tests substitute an oracle",
    "linear_factors(oracle=)": "tests substitute an oracle",
    "single_round(oracle=)": "build_chain passes its oracle",
    "single_round(precheck=)": "build_chain passes precheck=False",
}


def public_callables():
    """(qualified name, function) for each function in sps.__all__ and each
    class's __init__ and public methods, as defined on the class itself."""
    for name in sps.__all__:
        obj = getattr(sps, name)
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                func = getattr(member, "__func__", member)  # classmethod, staticmethod
                if (attr == "__init__" or not attr.startswith("_")) and inspect.isfunction(func):
                    yield f"{name}.{attr}", func


def test_every_option_names_its_caller():
    options = sorted(f"{name}({param.name}=)" for name, func in public_callables()
                     for param in inspect.signature(func).parameters.values()
                     if param.default is not param.empty)
    assert options == sorted(OPTIONS_ALLOWED)
    assert [o for o in options if o.startswith("ZeroOracle.")] == [
        "ZeroOracle.__init__(mode=)", "ZeroOracle.__init__(seed=)", "ZeroOracle.__init__(trials=)"]
    assert [o for o in options if o.startswith("zero_test_random(")] == []
