import ast
import importlib
import json
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
