"""Rewrite the golden records of the command-line interface.

Run from anywhere, with nothing installed::

    python3 tests/golden/write_records.py

Each run of :data:`RUNS` is recorded once per output format, as
``tests/golden/<name>.<format>.json``: the full argv, the exit code, and
stdout and stderr as lists of lines (joined with ``\\n`` they give the
bytes back).  Runs execute in-process through ``kinexpand.cli.main`` with
``tests/golden`` as the working directory, so the malformed algebra files
under ``alg/`` appear in messages by their relative paths.  Records of runs
no longer listed are deleted.  ``tests/test_golden.py`` replays every
record and compares the bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
ROOT = GOLDEN.parents[1]
FORMATS = ("text", "json")
CATALOG = ("galilei", "galilei_ext", "poincare", "newton_hooke", "euclid4")
TARGETS = ("poincare", "euclid4", "newton_hooke", "negative-nh")

# (record name, argv after the --format option)
RUNS = (
    ("report-seed1", ["--seed", "1", "report"]),
    ("report-seed5", ["--seed", "5", "report"]),
    *((f"expand-{t}", ["expand", t]) for t in TARGETS),
    ("expand-newton_hooke-kappa1", ["expand", "newton_hooke", "--witness", "kappa=1"]),
    (
        "expand-newton_hooke-kappa1-a1half",
        ["expand", "newton_hooke", "--witness", "kappa=1", "--witness", "a1=1/2"],
    ),
    ("expand-bad-name", ["expand", "poincare", "--witness", "foo=1"]),
    ("expand-no-equals", ["expand", "poincare", "--witness", "omega"]),
    ("expand-bad-rational", ["expand", "poincare", "--witness", "omega=1/0"]),
    ("expand-off-constraint", ["expand", "poincare", "--witness", "omega=5"]),
    (
        "expand-witness-oversized",
        ["expand", "poincare", "--witness", "omega=-1e5000"],
    ),
    (
        "expand-witness-long-name",
        ["expand", "poincare", "--witness", "q" * 100 + "=1"],
    ),
    ("expand-negative-nh-witness", ["expand", "negative-nh", "--witness", "kappa=5"]),
    (
        "expand-unread-witness",
        ["expand", "poincare", "--witness", "kappa=3", "--witness", "eps=0"],
    ),
    (
        "expand-repeated-witness",
        ["expand", "poincare", "--witness", "omega=-1", "--witness", "omega=-2"],
    ),
    ("expand-unknown-target", ["expand", "nosuch"]),
    ("corpus", ["corpus"]),
    *((f"casimir-check-{a}", ["casimir-check", a]) for a in CATALOG),
    *((f"check-jacobi-{a}", ["check-jacobi", a]) for a in CATALOG),
    *((f"contract-{a}", ["contract", a]) for a in CATALOG),
    ("contract-poincare-omega", ["contract", "poincare", "--param", "omega"]),
    ("contract-newton_hooke-kappa", ["contract", "newton_hooke", "--param", "kappa"]),
    ("contract-eps-inverse", ["contract", "alg/eps_inverse.alg", "--param", "eps"]),
    ("contract-unknown-param", ["contract", "poincare", "--param", "zzz"]),
    ("bracket-poincare-K1-K2", ["bracket", "poincare", "K1", "K2"]),
    ("bracket-newton_hooke-H-K1", ["bracket", "newton_hooke", "H", "K1"]),
    ("bracket-unknown-generator", ["bracket", "poincare", "H", "Q1"]),
    ("bracket-unknown-algebra", ["bracket", "nosuch", "H", "P1"]),
    ("identity-pass", ["identity", "galilei", "[J1,J2]", "J3"]),
    ("identity-fail", ["identity", "galilei", "[J1,J2]", "J2"]),
    ("identity-poincare-C1", ["identity", "poincare", "[<C1>,K1]", "0"]),
    (
        "identity-poincare-C2C1-JWKP",
        ["identity", "poincare", "[<C2>*<C1>, <JW>*<KP>]", "0"],
    ),
    ("normal-form-C2-squared", ["normal-form", "poincare", "<C2>^2"]),
    ("normal-form-degree-bound", ["normal-form", "galilei", "(((H^16)^16)^16)^16"]),
    ("normal-form-deep-left", ["normal-form", "galilei", "K1*((H^16)^16)^4"]),
    (
        "normal-form-rational-bound",
        ["normal-form", "galilei", "((((2^16)^16)^16)^16)*H"],
    ),
    (
        "normal-form-product-bound",
        ["normal-form", "galilei", "9" * 700 + "*" + "9" * 700],
    ),
    ("normal-form-deep-right", ["normal-form", "galilei", "((K1^16)^16)^4*H"]),
    ("normal-form-end-of-input", ["normal-form", "poincare", "H*"]),
    ("normal-form-missing-exponent", ["normal-form", "poincare", "H^"]),
    ("normal-form-deep-commutator", ["normal-form", "galilei", "[K1, ((H^16)^16)^4]"]),
    (
        "normal-form-nested-parentheses",
        ["normal-form", "galilei", "(" * 300 + "H" + ")" * 300],
    ),
    (
        "normal-form-nested-commutators",
        ["normal-form", "galilei", "[" * 300 + "H" + ", H]" * 300],
    ),
    ("alg-unknown-generator", ["check-jacobi", "alg/unknown_generator.alg"]),
    ("alg-repeated-bracket", ["bracket", "alg/repeated_bracket.alg", "A", "B"]),
    ("alg-missing-generator", ["check-jacobi", "alg/missing_generator.alg"]),
    ("alg-empty-bracket", ["check-jacobi", "alg/empty_bracket.alg"]),
    ("alg-trailing-plus", ["check-jacobi", "alg/trailing_plus.alg"]),
    ("alg-negative-power", ["check-jacobi", "alg/negative_power.alg"]),
    ("alg-wrong-family", ["casimir-check", "alg/wrong_family.alg"]),
    ("alg-not-lie", ["check-jacobi", "alg/not_lie.alg"]),
    ("alg-not-lie-bracket", ["bracket", "alg/not_lie.alg", "A", "B"]),
)


def run(argv) -> dict:
    """One in-process CLI run, with ``tests/golden`` as working directory."""
    from kinexpand import cli

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    return {
        "argv": list(argv),
        "exit": code,
        "stdout": out.getvalue().split("\n"),
        "stderr": err.getvalue().split("\n"),
    }


def records():
    """(file name, argv) of every record."""
    for name, argv in RUNS:
        for fmt in FORMATS:
            yield f"{name}.{fmt}.json", ["--format", fmt, *argv]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("KINEXPAND_OUTPUT_DIR", None)
    written = set()
    for filename, argv in records():
        text = json.dumps(run(argv), indent=1) + "\n"
        (GOLDEN / filename).write_text(text, encoding="utf-8")
        written.add(filename)
    for stale in GOLDEN.glob("*.json"):
        if stale.name not in written:
            stale.unlink()
    print(f"wrote {len(written)} records to {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
