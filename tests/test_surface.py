"""The public surface: exported names and the benchmark tracer's entry points."""

import importlib
import importlib.util
from pathlib import Path

import kinexpand

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
