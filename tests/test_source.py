"""Source hygiene checks on the package, using only the standard library."""

import ast
import importlib.util
import inspect
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import sps
from helpers import load_bench

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


def test_elimination_stays_behind_its_modules():
    # the echelon kernel is read by name only where a basis is kept: algebra
    # (SpanBasis), quotient (FormIdeal.reduction needs coordinates) and
    # matching (doubling_check's sweep over its pending remainders)
    readers = {path.name for path in SRC.glob("*.py")
               if any(isinstance(node, ast.Name) and node.id == "eliminate"
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))}
    assert readers == {"algebra.py", "quotient.py", "matching.py"}


def test_oracle_refusals_stay_behind_the_ladder():
    # in circuit.py the oracle refuses only through the ladder's one pick and
    # term_values' k <= 16 cap: a rung refuses by its record, so no rung adds
    # a decision site of its own
    refusals = {"OracleRefusalError", "BudgetExceededError"}
    tree = ast.parse((SRC / "circuit.py").read_text(encoding="utf-8"))
    raisers = set()
    for top in tree.body:
        members = [(f"{top.name}.", m) for m in top.body] if isinstance(top, ast.ClassDef) else []
        for prefix, func in [("", top), *members]:
            if isinstance(func, ast.FunctionDef):
                raisers.update(prefix + func.name for node in ast.walk(func)
                               if isinstance(node, ast.Raise) and node.exc is not None
                               and refusals & {n.id for n in ast.walk(node.exc)
                                               if isinstance(n, ast.Name)})
    assert raisers == {"_pick", "ZeroOracle.term_values"}


def test_field_tables_stay_behind_their_module():
    # the log, antilog and Zech tables and product's list view of the log
    # table are Field's; every other module multiplies and adds through Field
    tables = {"_exp", "_log", "_zech", "_logs"}
    readers = {path.name for path in SRC.glob("*.py")
               if any(isinstance(node, ast.Attribute) and node.attr in tables
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))}
    assert readers == {"algebra.py"}


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
    "unscramble": "bench/spans.py spans it (matching.unscramble)",
    "simple_part": "gcd / simple-part decomposition, acceptance criterion 6",
    "linear_factors": "linear factors, acceptance criterion 9",
    "is_minimal": "bench/spans.py spans it",
    "make_circuit": "public constructor of circuits from raw ints",
    "subcircuit": "public constructor of a circuit's restriction to a term subset",
}


def referenced_names(trees):
    """Every bare name read by a module other than __init__.py (its imports
    are the package's exports). The modules import each other's top-level
    names with "from .module import name", so a read of one is a bare name;
    an attribute read such as values.is_minimal() reaches a member, not the
    module function of the same name."""
    return {node.id for name, tree in trees.items() if name != "__init__.py"
            for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unreached_definitions(trees):
    """Public top-level functions and classes of the modules that no module
    other than __init__.py reads by name."""
    referenced = referenced_names(trees)
    return sorted((name, node.name)
                  for name, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in referenced)


def test_an_attribute_read_does_not_reach_a_module_function():
    trees = {"a.py": ast.parse("def f(): pass\ndef g(): pass"),
             "b.py": ast.parse("from .a import g\nvalues.f()\ng()")}
    assert unreached_definitions(trees) == [("a.py", "f")]


def test_no_unreached_public_definitions():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    found = unreached_definitions(trees)
    assert [(module, name) for module, name in found if name not in UNREACHED_ALLOWED] == []
    assert sorted(name for _, name in found) == sorted(UNREACHED_ALLOWED)  # none stale


# Public methods and properties that no library read tied to their class
# reaches, each kept for one caller outside the tests.
UNREACHED_MEMBERS_ALLOWED = {
    "FormIdeal.reduce_prefix": "bench/spans.py counts it (quotient.reduce_prefix)",
}


def bench_locks_missing(allowed, spans):
    """The allowlist entries whose reason cites bench/spans.py but whose name
    is not an attribute that the list the reason names ("spans it":
    SPANNED, "counts it": COUNTED) holds."""
    lists = {"spans": spans.SPANNED, "counts": spans.COUNTED}
    missing = []
    for name, why in allowed.items():
        verb = re.search(r"bench/spans\.py (spans|counts) it", why)
        if "bench/spans.py" in why and (
                verb is None or name not in {attr for _, _, attr in lists[verb[1]]}):
            missing.append(name)
    return missing


def test_bench_locked_entries_name_what_the_bench_traces():
    # an entry kept for the bench goes stale when the bench stops tracing
    # its name, and then names the next definition to delete
    spans = load_bench("spans")
    allowed = UNREACHED_ALLOWED | UNREACHED_MEMBERS_ALLOWED
    assert sum("bench/spans.py" in why for why in allowed.values()) == 7
    assert bench_locks_missing(allowed, spans) == []
    mutants = {"compose": "bench/spans.py spans it (matching.compose)",
               "similar": "bench/spans.py counts it (forms.similar)",
               "reduced_class_key": "bench/spans.py reads it"}
    for name, why in mutants.items():
        assert bench_locks_missing({**allowed, name: why}, spans) == [name]

# Public members whose name a public member of another class shares, read in
# the library only on receivers the AST does not tie to their class; each
# names one such caller outside the tests.
SHARED_MEMBERS_CALLERS = {
    "Term.degree": "chain.single_round reads circuit.terms[q].degree",
    "TermValues.is_zero": "build_chain reads values.is_zero() (sps chain)",
}


def annotated_class(arg, classes):
    """The class a parameter's annotation names, if it names exactly one."""
    if arg.annotation is None:
        return None
    names = {node.id for node in ast.walk(arg.annotation) if isinstance(node, ast.Name)}
    names &= classes
    return names.pop() if len(names) == 1 else None


def member_references(trees):
    """(receiver class, attribute, enclosing member) for every attribute read
    in a module other than __init__.py. The receiver class is C where the AST
    ties the receiver to class C: self inside a member of C, a parameter
    annotated with C (in its function and the functions nested in it), the
    name C itself, or a call of C. Any other receiver is None.
    The enclosing member is "C.m" for a read inside the body of member m of
    class C, else None."""
    classes = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    refs = set()

    def visit(node, within, bound):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            bound = {**bound, **{arg.arg: cls for arg in params
                                 if (cls := annotated_class(arg, classes))}}
        elif isinstance(node, ast.Attribute):
            value, owner = node.value, None
            if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                owner = value.func.id if value.func.id in classes else None
            elif isinstance(value, ast.Name):
                owner = value.id if value.id in classes else bound.get(value.id)
            refs.add((owner, node.attr, within))
        for child in ast.iter_child_nodes(node):
            visit(child, within, bound)

    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        for top in tree.body:
            for part in top.body if isinstance(top, ast.ClassDef) else [top]:
                if part is not top and isinstance(part, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(part, f"{top.name}.{part.name}", {"self": top.name})
                else:
                    visit(part, None, {})
    return refs


def member_definitions(trees):
    """(module, class, member) for every public method and property."""
    return [(name, cls.name, node.name)
            for name, tree in trees.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")]


def shared_member_names(defined):
    """The public member names that more than one class defines."""
    return {m for m, count in Counter(m for _, _, m in defined).items() if count > 1}


def unreached_members(trees):
    """Public methods and properties of the modules' classes that no attribute
    read outside their own bodies reaches. A read on a receiver tied to class
    C reaches C.m alone. A read on any other receiver reaches C.m only when
    no other class defines a public member named m: x.is_zero does not
    show a use of ZeroOracle.is_zero, since TermValues defines is_zero."""
    refs = member_references(trees)
    defined = member_definitions(trees)
    shared = shared_member_names(defined)

    def reached(cls, method):
        owners = (cls,) if method in shared else (None, cls)
        return any(attr == method and owner in owners and within != f"{cls}.{method}"
                   for owner, attr, within in refs)

    return sorted((name, f"{cls}.{method}") for name, cls, method in defined
                  if not reached(cls, method))


def test_no_unreached_public_members():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    found = unreached_members(trees)
    allowed = UNREACHED_MEMBERS_ALLOWED | SHARED_MEMBERS_CALLERS
    assert [(module, name) for module, name in found if name not in allowed] == []
    assert sorted(name for _, name in found) == sorted(allowed)  # none stale
    shared = shared_member_names(member_definitions(trees))
    assert {name.split(".")[1] for name in SHARED_MEMBERS_CALLERS} <= shared


# Every parameter with a default in the public callables of sps.__all__, each
# with one caller outside the tests that sets it.
OPTIONS_ALLOWED = {
    "Field.__init__(e=)": "field_make passes a file header's e",
    "OrderedMatching.__init__(_reductions=)": "OrderedMatching.build passes its records",
    "OrderedMatching.build(reductions=)": "find_matching and split_term pass shared records",
    "OrderedMatching.verify(reductions=)": "OrderedMatching.__init__ passes build's records",
    "ZeroOracle.__init__(mode=)": "sps check --exact / --random",
    "ZeroOracle.__init__(trials=)": "sps check --trials",
    "ZeroOracle.__init__(seed=)": "sps check --seed",
    "gen_family(verify=)": "bench/instances.py builds members with verify=False",
    "gen_intro_counterexamples(p=)": "bench/instances.py passes large primes",
    "gen_joined(verify=)": "gen_family and bench/instances.py pass verify=False",
    "gen_tight_lists(p=)": "sps gen tight --p",
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
    # a caller outside the tests: an option only tests set is not one
    assert [o for o, why in OPTIONS_ALLOWED.items() if re.search(r"\btests?\b", why)] == []
    assert [o for o in options if o.startswith("ZeroOracle.")] == [
        "ZeroOracle.__init__(mode=)", "ZeroOracle.__init__(seed=)", "ZeroOracle.__init__(trials=)"]
    assert [o for o in options if o.startswith("zero_test_random(")] == []


def test_no_environment_reads():
    # behaviour is set by arguments and constants; an environment knob would
    # change verdicts or refusals with nothing on the command line to show it
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")]
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "os"
                  and {a.name for a in node.names} & {"environ", "getenv"}]
    assert found == []


def test_size_report_totals_its_rows():
    # tools/size.py prints wc and code lines per module; a code line holds a
    # token other than a comment, outside docstrings, and a multi-line string
    # that is not a docstring counts every line it spans
    tool = Path(__file__).resolve().parent.parent / "tools" / "size.py"
    out = subprocess.run([sys.executable, str(tool), str(SRC)], capture_output=True,
                         text=True, check=True).stdout
    rows = [(name, int(wc), int(code)) for name, wc, code in map(str.split, out.splitlines()[1:])]
    *modules, total = rows
    assert {name for name, _, _ in modules} == {path.name for path in SRC.glob("*.py")}
    assert total == ("total", sum(row[1] for row in modules), sum(row[2] for row in modules))
    assert all(0 < code <= wc for _, wc, code in modules)
    spec = importlib.util.spec_from_file_location("size_tool", tool)
    size = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(size)
    text = '"""Doc\nstring."""\n# note\n\ndef f():\n    """Doc."""\n    return """a\nb"""  # c\n'
    assert size.count(text) == (8, 3)


def exit_codes(node):
    """The int constants 1, 2 and 3 a return expression can give: the
    constant itself or a branch of a conditional."""
    if isinstance(node, ast.IfExp):
        return exit_codes(node.body) | exit_codes(node.orelse)
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return {node.value} & {1, 2, 3}
    return set()


def test_only_main_turns_failures_into_exit_codes():
    # a command returns 0 or raises what failed; main's table alone maps
    # exceptions to exit codes. chain may catch a bound violation to write
    # its "ok": false line, and must raise it again
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    found = []
    for name, func in funcs.items():
        if name == "main":
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Return) and node.value is not None and exit_codes(node.value):
                found.append(f"{name}:{node.lineno} returns {exit_codes(node.value)}")
            elif isinstance(node, ast.ExceptHandler) and not (
                    name == "cmd_chain" and ast.unparse(node.type) == "BoundViolationError"
                    and isinstance(node.body[-1], ast.Raise) and node.body[-1].exc is None):
                found.append(f"{name}:{node.lineno} catches {ast.unparse(node.type)}")
    assert found == []
    table = {ast.unparse(handler.type): exit_codes(handler.body[-1].value)
             for node in ast.walk(funcs["main"]) if isinstance(node, ast.Try)
             for handler in node.handlers}
    assert table == {"BoundViolationError": {3}, "VerificationError": {1},
                     "(OSError, ValueError, KeyError, TypeError, BudgetExceededError)": {2}}


def test_every_exception_type_has_one_base():
    # an exception's type says what failed, so its exit code follows from
    # one line of ancestors, never from a second base chosen to map it
    modules = [importlib.import_module(f"sps.{path.stem}") for path in sorted(SRC.glob("*.py"))
               if path.stem != "__main__"]
    types = {obj for module in modules for obj in vars(module).values()
             if inspect.isclass(obj) and issubclass(obj, BaseException)
             and obj.__module__.startswith("sps.")}
    assert {t.__name__ for t in types} >= {"OracleRefusalError", "VerificationError"}
    assert [t.__name__ for t in types if len(t.__bases__) != 1] == []


def test_no_module_imports_another_modules_private_names():
    # a module reaches another only through its public names: a name with a
    # leading underscore stays behind its own module (attribute reads such
    # as LinearForm._wrap are another matter)
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}: {alias.name}" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level > 0
                  for alias in node.names if alias.name.startswith("_")]
    assert found == []
