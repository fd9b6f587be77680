import ast
import importlib
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "artifact"


def unused_imports(path):
    """Names a module imports (outside __future__) that no Name node reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [entry for path in modules for entry in unused_imports(path)]
    assert unused == []


def test_runtime_imports_are_stdlib_or_numpy():
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    assert foreign == []


def test_benchmark_layers_resolve():
    # the traced benchmark wraps each target by name, so a rename must show here
    layers = json.loads((ROOT / "benchmarks" / "layers.json").read_text())["layers"]
    missing = []
    for layer, spec in layers.items():
        module = importlib.import_module(f"artifact.{layer}")
        for fn in spec["functions"].values():
            obj = module
            for part in fn["target"].split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{layer}.{fn['target']}")
    assert missing == []


def _identifiers(text):
    """Every dotted-name part of a string: getattr and monkeypatch targets,
    benchmark layer targets."""
    return {part for token in re.findall(r"[A-Za-z_][\w.]*", text) for part in token.split(".")}


def _docstrings(tree):
    bodies = [node.body for node in ast.walk(tree) if isinstance(
        node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    return {id(body[0].value) for body in bodies
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)}


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _local_names(scope):
    """The arguments of a function or lambda and every name its own body binds
    by assignment or import (nested scopes bind their own; a nested def binds
    the function it defines, which its calls name)."""
    a = scope.args
    bound = {arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
             if arg}
    todo = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, ast.alias):
            bound.add((node.asname or node.name).split(".")[0])
        if not isinstance(node, (*_SCOPES, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return bound


def _free_names(node, local=frozenset()):
    """Every Name in the tree that no enclosing function binds as a local or
    an argument: a local that shares a package function's name names nothing."""
    if isinstance(node, ast.Name):
        return set() if node.id in local else {node.id}
    inner, body = local, ()
    if isinstance(node, _SCOPES):
        inner = local | _local_names(node)
        body = {id(b) for b in (node.body if isinstance(node.body, list) else [node.body])}
    names = set()
    for child in ast.iter_child_nodes(node):
        names |= _free_names(child, inner if id(child) in body else local)
    return names


def named_functions(paths):
    """(defined, named): the non-dunder functions and methods defined in
    src/artifact, and every name the files read, patch or list outside the
    functions that bind it locally (docstrings and comments name nothing)."""
    defined, named = {}, set()
    for path in paths:
        if path.suffix == ".json":
            named |= _identifiers(path.read_text())
            continue
        tree = ast.parse(path.read_text())
        docstrings = _docstrings(tree)
        named |= _free_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if SRC in path.parents and not node.name.startswith("__"):
                    defined[node.name] = f"{path.name}:{node.lineno}"
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.split(".")[-1])
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docstrings):
                named |= _identifiers(node.value)
    return defined, named


def code_files(*folders):
    """The .py and .json files under the folders, benchmark results left out."""
    return [p for folder in folders for p in sorted((ROOT / folder).rglob("*"))
            if p.suffix in (".py", ".json") and "results" not in p.relative_to(ROOT).parts]


def test_every_function_is_named_outside_its_definition():
    defined, named = named_functions(code_files("src", "tests", "benchmarks"))
    assert defined
    unnamed = sorted(f"{where} {name}" for name, where in defined.items() if name not in named)
    assert unnamed == []


def test_locals_and_arguments_name_no_package_function():
    # a local or an argument shares a package function's name without naming
    # it; a nested def names itself, and a name no enclosing function binds counts
    tree = ast.parse(
        "def f(gram, *tail):\n"
        "    shifted = profile\n"
        "    def build():\n"
        "        return shifted + gram + order\n"
        "    return build, (lambda values: values + scale)\n")
    assert _free_names(tree) == {"profile", "build", "order", "scale"}


def unread_parameters(source, name):
    """The parameters of each function or method in a module that its body
    never reads (lambdas are exempt: their signature is set by the caller)."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = [arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg,
                                          a.kwarg) if arg]
            read = set().union(*map(_free_names, node.body))
            unread += [f"{name}:{node.lineno} {node.name}({param})"
                       for param in params if param not in read]
    return unread


def test_every_parameter_is_read():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert [entry for path in modules
            for entry in unread_parameters(path.read_text(), path.name)] == []


def test_unread_parameters_sees_through_nested_scopes():
    # a read in a nested function or lambda counts; a nested binding of the
    # same name hides the parameter, and a lambda's own parameters are exempt
    source = ("def f(a, b, c, *d, **e):\n"
              "    def g(b):\n"
              "        return b + a\n"
              "    return g, (lambda x, y: c + x)\n")
    assert unread_parameters(source, "sample") == [
        "sample:1 f(b)", "sample:1 f(d)", "sample:1 f(e)"]


def test_process_wide_caches_are_the_listed_ones():
    # a functools cache lives as long as the process, so each one is chosen on
    # purpose (cached_property caches live on one instance and are not counted)
    cached = set()
    for path in sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"):
        module = importlib.import_module(f"artifact.{path.stem}")
        owners = [module] + [v for v in vars(module).values()
                             if isinstance(v, type) and v.__module__ == module.__name__]
        for owner in owners:
            for value in vars(owner).values():
                if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                    cached.add(value.__qualname__)
    assert cached == {"radial_rule", "degree_multiplicities", "_log_angular_sum"}


def test_test_only_functions_are_the_listed_ones():
    # checks that only tests call are kept on purpose; other code that no
    # program path names belongs in tests/
    defined, named = named_functions(code_files("src", "benchmarks"))
    assert {name for name in defined if name not in named} == {
        "check_tail", "donaldson_variation_check", "flow_pairing_spread", "gamma2_defect",
        "liouville_first_variation"}


def test_field_cache_is_written_only_by_geometry():
    # a metric's field cache is filled through RadialKahlerMetric._cached_field
    # alone, so no other module names it
    named = sorted(p.name for p in SRC.glob("*.py")
                   if p.name != "geometry.py" and "_field_cache" in p.read_text())
    assert named == []
