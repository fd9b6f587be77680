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


def named_functions(paths):
    """(defined, named): the non-dunder functions and methods defined in
    src/artifact, and every name the files read, patch or list (docstrings
    and comments name nothing)."""
    defined, named = {}, set()
    for path in paths:
        if path.suffix == ".json":
            named |= _identifiers(path.read_text())
            continue
        tree = ast.parse(path.read_text())
        docstrings = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if SRC in path.parents and not node.name.startswith("__"):
                    defined[node.name] = f"{path.name}:{node.lineno}"
            elif isinstance(node, ast.Name):
                named.add(node.id)
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
