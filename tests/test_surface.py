"""The public surface: exported names and the benchmark tracer's entry points."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import kinexpand

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
PACKAGE = ROOT / "src" / "kinexpand"


def test_every_exported_name_resolves():
    missing = [name for name in kinexpand.__all__ if not hasattr(kinexpand, name)]
    assert not missing


def test_every_tracer_entry_point_resolves():
    spec = importlib.util.spec_from_file_location("kinexpand_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for layer, path, _, _ in tracer.ENTRY_POINTS:
        owner = importlib.import_module(f"kinexpand.{layer}")
        try:
            for part in path.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            missing.append(f"{layer}.{path}")
    assert tracer.ENTRY_POINTS
    assert not missing


def test_runtime_imports_are_stdlib_only():
    sources = sorted(PACKAGE.glob("*.py"))
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:  # not an import, or a relative one inside kinexpand
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "kinexpand" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {module}")
    assert "__init__.py" in {path.name for path in sources}
    assert not outside
