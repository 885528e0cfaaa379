"""Golden records: every command's argv, exit code, stdout and stderr.

Each record under ``tests/golden`` is replayed in-process through
``kinexpand.cli.main`` and must match byte for byte.  After a change that
alters output on purpose, rewrite the records with
``python3 tests/golden/write_records.py`` and name each changed record in
``CHANGES.md``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location(
    "write_records", GOLDEN / "write_records.py"
)
write_records = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(write_records)


@pytest.mark.parametrize(
    "filename,argv",
    [
        pytest.param(f, argv, id=f.removesuffix(".json"))
        for f, argv in write_records.records()
    ],
)
def test_record(filename, argv, monkeypatch):
    monkeypatch.delenv("KINEXPAND_OUTPUT_DIR", raising=False)
    expected = json.loads((GOLDEN / filename).read_text(encoding="utf-8"))
    assert expected["argv"] == argv
    assert write_records.run(argv) == expected


def test_no_stale_records():
    listed = {filename for filename, _ in write_records.records()}
    assert {p.name for p in GOLDEN.glob("*.json")} == listed
