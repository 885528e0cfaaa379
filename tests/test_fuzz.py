"""Pinned fuzz of malformed input through ``cli.main``, in-process.

The shipped ``.alg`` files, a set of expressions and ``--witness`` values are
mutated under seeds drawn from the session seed (printed by ``conftest``):
a token inserted, a span deleted or a line duplicated, one to three times.
Every run must end with exit 0, 1 or 2, never a traceback, and an exit 2
must write exactly one line to stderr.  A case that ever fails stays here
once the program is fixed.
"""

import contextlib
import io
import random
from pathlib import Path

import pytest

from kinexpand.cli import main

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "kinexpand" / "data"

ALG_FILES = sorted(DATA_DIR.glob("*.alg"))

# Pieces of the three input languages, and some that belong to none.
TOKENS = (
    " ", "\n", "\t", "#", "=", "*", "+", "-", "/", "^", "(", ")", "[", "]",
    "<", ">", ",", ".", "0", "1", "2", "1/0", "-1", "3/2", "0.5", "1e9",
    "99999999999999999999", "name", "generators", "bracket", "params",
    "H", "P1", "K2", "J3", "Xi", "x", "eps", "omega", "kappa", "a1", "m",
    "<C1>", "<W2>", "<Q>", "$", "é", "\x00", "((H^16)^16)^4", "(" * 300,
    "1e5000", "(((2^16)^16)^16)^16", "= +", "+ +",
)

EXPRESSIONS = (
    "H*P1 - 2*K3",
    "(J1 + eps*P2)^2",
    "[K1, P2]*omega",
    "<C1>*J3 - 3/4*H^2",
    "[<W1>, K2] + [J1, J2]",
    "<C2>*P1",
)

WITNESSES = {
    "poincare": ("c1=1", "c2=2", "a2=1/2", "omega=-4"),
    "euclid": ("c1=1", "c2=-2", "a2=1", "omega=8"),
    "newton_hooke": ("kappa=1",),
    "negative_nh": ("kappa=-1",),
}


@pytest.fixture(autouse=True)
def no_output_dir(monkeypatch):
    # a run is judged by its exit code and stderr alone, and writes no file
    monkeypatch.delenv("KINEXPAND_OUTPUT_DIR", raising=False)


def mutate(rng: random.Random, text: str) -> str:
    """One to three edits: insert a token, delete a span, duplicate a line."""
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(3)
        at = rng.randint(0, len(text))
        if kind == 0:
            text = text[:at] + rng.choice(TOKENS) + text[at:]
        elif kind == 1:
            text = text[:at] + text[at + rng.randint(1, 8):]
        else:
            lines = text.split("\n")
            i = rng.randrange(len(lines))
            lines.insert(i, lines[i])
            text = "\n".join(lines)
    return text


def run(argv):
    """Exit code and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def check(argv):
    code, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    if code == 2:
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
    return code


@pytest.mark.parametrize("path", ALG_FILES, ids=lambda p: p.name)
def test_mutated_algebra_files(seed, path, tmp_path):
    rng = random.Random(f"{seed}-fuzz-alg-{path.name}")
    text = path.read_text(encoding="utf-8")
    target = tmp_path / path.name
    for _ in range(40):
        target.write_text(mutate(rng, text), encoding="utf-8")
        for argv in (
            ["check-jacobi", str(target)],
            ["bracket", str(target), "H", "P1"],
            ["normal-form", str(target), rng.choice(EXPRESSIONS[:3])],
        ):
            check(argv)


@pytest.mark.parametrize("algebra", ["galilei", "poincare", "newton_hooke"])
def test_mutated_expressions(seed, algebra):
    rng = random.Random(f"{seed}-fuzz-expr-{algebra}")
    for _ in range(60):
        text = mutate(rng, rng.choice(EXPRESSIONS))
        check(["normal-form", algebra, text])
        check(["--format", "json", "identity", algebra, text, rng.choice(EXPRESSIONS)])


@pytest.mark.parametrize("target", sorted(WITNESSES))
def test_mutated_witnesses(seed, target):
    rng = random.Random(f"{seed}-fuzz-witness-{target}")
    for _ in range(25):
        argv = ["expand", target]
        values = WITNESSES[target]
        for value in rng.sample(values, rng.randint(1, len(values))):
            argv += ["--witness", mutate(rng, value)]
        check(argv)


def test_the_shipped_inputs_pass():
    # the unmutated inputs exit 0, so a mutant's exit 2 is the mutation's
    for path in ALG_FILES:
        assert check(["check-jacobi", str(path)]) == 0
    for text in EXPRESSIONS:
        assert check(["normal-form", "poincare", text]) == 0
    assert check(["expand", "newton_hooke", "--witness", "kappa=1"]) == 0
