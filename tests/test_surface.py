"""The public surface: exported names, the benchmark tracer's entry points,
read-only records and what importing the CLI loads."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kinexpand
from kinexpand import checks, expansion, liealg

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


def _records():
    """One instance of every record type, keyed by type name."""
    galilei = liealg.catalog("galilei")
    split = liealg.worldline_split(galilei)
    run = expansion.run_theorem1()
    positive = expansion.run_theorem2(expansion.THEOREM2_POSITIVE_WITNESS)
    casimir = kinexpand.named_element(liealg.catalog("poincare"), "C1")
    records = [
        galilei.generators[0],
        liealg.JacobiViolation((0, 1, 2), {}),
        split,
        liealg.decomposition_check(galilei, split),
        checks.CheckResult("label", True),
        expansion.decompose_casimir(casimir, "omega"),
        run.seed,
        run.generators,
        positive.report.reductions[0],
        run.report,
        run,
        run.report.pairs[0],
    ]
    return {type(r).__name__: r for r in records}


RECORD_TYPES = [
    "GeneratorId", "JacobiViolation", "Decomposition", "DecompositionReport",
    "CheckResult", "CasimirDecomposition", "Seed", "ExpandedGenerators",
    "PowerReduction", "ClosureReport", "ExpansionRun", "PairVerdict",
]


@pytest.mark.parametrize("name", RECORD_TYPES)
def test_record_fields_are_read_only(name):
    record = _records()[name]
    if name == "PairVerdict":
        fields = ("pair", "verdict", "phase1")
        assert not hasattr(record, "__dict__")
    else:
        fields = type(record)._fields
        assert isinstance(record, tuple)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")])
    )
    script = (
        "import sys, kinexpand.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
